package core

// Generate synthesizes the normalized KPI series for a prepared (unseen)
// trajectory sequence. Generation runs in non-overlapping batches of
// length L (Δt = L, paper §4.3.3); within a batch the LSTMs capture the
// short-term temporal correlations, while long-term correlation across
// batch boundaries is carried by ResGen's autoregressive lags over the
// generated history — the paper's two-subtask decomposition of long-series
// generation. The returned series has the sequence's full length and is in
// normalized [0,1] units; use DenormalizeSeries for physical units.
func (m *Model) Generate(seq *Sequence) [][]float64 {
	return m.generate(seq, true)
}

// GenerateIndependent generates each batch independently (autoregressive
// lags cleared at every batch boundary, so nothing crosses it) — the
// "stitching independently generated short trajectories" strawman of the
// paper's Table 8/Figure 10. batchLen overrides the model's batch length
// when positive.
func (m *Model) GenerateIndependent(seq *Sequence, batchLen int) [][]float64 {
	saved := m.Cfg.BatchLen
	// Restore via defer: a panic mid-generation must not leave the model
	// with a mutated batch length.
	defer func() { m.Cfg.BatchLen = saved }()
	if batchLen > 0 {
		m.Cfg.BatchLen = batchLen
	}
	return m.generate(seq, false)
}

func (m *Model) generate(seq *Sequence, carryLags bool) [][]float64 {
	cfg := m.Cfg
	T := seq.Len()
	m.SetNoise(true)
	if m.res != nil {
		// Statistical variation at generation time comes from the noise
		// inputs and the sampled Gaussian residual; MC dropout stays on as
		// in training (paper §6.2.1 uses generation-time dropout).
		m.res.Dropout.Active = true
	}
	out := make([][]float64, 0, T)

	for lo := 0; lo < T; lo += cfg.BatchLen {
		L := cfg.BatchLen
		if lo+L > T {
			L = T - lo
		}
		teacher := out
		if !carryLags {
			// Independent batches: no history crosses the boundary.
			teacher = nil
		}
		out = append(out, m.forwardGen(seq, lo, L, teacher)...)
	}
	return out
}

// forwardGen mirrors forward but discards backward caches and returns
// freshly allocated output rows (they escape into the generated series).
// LSTM state is reset at each batch, matching the training regime (windows
// always start from zero state). teacher is the generated history before
// lo used for ResGen lags; nil means independent batches (zero history).
func (m *Model) forwardGen(seq *Sequence, lo, L int, teacher [][]float64) [][]float64 {
	cfg := m.Cfg
	nch := len(cfg.Channels)

	maxSlots := 0
	for t := 0; t < L; t++ {
		if n := len(seq.Cells[lo+t]); n > maxSlots {
			maxSlots = n
		}
	}
	if maxSlots == 0 {
		maxSlots = 1
	}
	// Per-step mean node embedding, accumulated in slot order. The sums
	// must fold in during the slot loop: Step outputs are pooled buffers
	// that ClearCache recycles at the end of each slot pass.
	hAvg := rows(m.fc.hAvg, &m.hAvgArena, L, cfg.Hidden)
	m.fc.hAvg = hAvg
	nCells := m.fc.nCells
	if cap(nCells) < L {
		nCells = make([]int, L)
	}
	nCells = nCells[:L]
	m.fc.nCells = nCells
	for t := range nCells {
		nCells[t] = 0
	}
	if m.zeroCell == nil {
		m.zeroCell = make([]float64, cfg.CellDim())
	}
	for slot := 0; slot < maxSlots; slot++ {
		m.node.ResetState()
		for t := 0; t < L; t++ {
			cellsAtT := seq.Cells[lo+t]
			attrs := m.zeroCell
			if slot < len(cellsAtT) {
				attrs = cellsAtT[slot]
			}
			in := append(m.inBuf[:0], attrs...)
			for z := 0; z < cfg.NoiseDim; z++ {
				in = append(in, 0.1*m.rng.NormFloat64())
			}
			m.inBuf = in
			h := m.node.Step(in)
			if slot < len(cellsAtT) || (len(cellsAtT) == 0 && slot == 0) {
				sum := hAvg[t]
				for j, v := range h {
					sum[j] += v
				}
				nCells[t]++
			}
		}
		m.node.ClearCache()
	}

	// Output rows escape to the caller: one fresh backing block per batch.
	backing := make([]float64, L*nch)
	out := make([][]float64, L)
	if len(m.lagBuf) != cfg.Lags*nch {
		m.lagBuf = make([]float64, cfg.Lags*nch)
	}
	m.agg.ResetState()
	for t := 0; t < L; t++ {
		avg := hAvg[t]
		if n := nCells[t]; n > 0 {
			for j := range avg {
				avg[j] /= float64(n)
			}
		}
		ha := m.agg.Step(avg)
		base := m.aggOut.Forward(ha)
		o := backing[t*nch : (t+1)*nch]
		copy(o, base)
		if m.res != nil {
			// Lags over the combined (teacher ++ out[:t]) history, read in
			// place: absolute source index src < lo comes from the teacher
			// series, src >= lo from this batch's own output.
			lags := m.lagBuf
			for i := range lags {
				lags[i] = 0
			}
			for l := 0; l < cfg.Lags; l++ {
				src := lo + t - cfg.Lags + l
				if src < 0 {
					continue
				}
				dst := lags[l*nch : (l+1)*nch]
				if src < lo {
					if teacher != nil {
						copy(dst, teacher[src])
					}
				} else {
					copy(dst, out[src-lo])
				}
			}
			ro := m.res.Forward(seq.Env[lo+t], lags)
			for c := 0; c < nch; c++ {
				o[c] += ro.Sample[c]
			}
			m.res.ClearCache()
			m.res.recycle(ro)
		}
		for c := range o {
			o[c] = clamp01(o[c])
		}
		out[t] = o
	}
	m.agg.ClearCache()
	m.aggOut.ClearCache()
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DenormalizeSeries converts a generated normalized [T][nch] series to
// physical per-channel series, indexed [channel][t].
func (m *Model) DenormalizeSeries(norm [][]float64) [][]float64 {
	return denormalizeSeries(m.Cfg.Channels, norm)
}

// denormalizeSeries is DenormalizeSeries shared between the live model and
// the frozen InferModel.
func denormalizeSeries(channels []ChannelSpec, norm [][]float64) [][]float64 {
	nch := len(channels)
	out := make([][]float64, nch)
	for c := 0; c < nch; c++ {
		out[c] = make([]float64, len(norm))
		for t := range norm {
			out[c][t] = channels[c].Denormalize(norm[t][c])
		}
	}
	return out
}

// fanOut runs n independent generation-side work items across the model's
// worker pool. Each item gets a deterministic seed drawn upfront from the
// primary RNG and a fresh model clone, so the set of outputs depends only
// on the model state and seed — not on Workers or goroutine scheduling.
// With Workers <= 1 (or a single item) the items instead run serially on
// the model itself, preserving the original single-RNG-stream behaviour.
func (m *Model) fanOut(n int, serial func(i int), parallelItem func(rep *Model, i int)) {
	if m.Cfg.Workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			serial(i)
		}
		return
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = m.rng.Int63()
	}
	forEach(n, m.Cfg.Workers, func(i int) { parallelItem(m.Clone(seeds[i]), i) })
}

// DeriveSeed deterministically derives the i-th child seed from a base
// seed (the same splitmix64 separation the worker pool uses). Serving-side
// sample fan-out uses it so that a request's i-th sample is a pure function
// of (request seed, i).
func DeriveSeed(seed int64, i int) int64 { return workerSeed(seed, i) }

// GenJob is one seeded generation work item for GenerateJobs: a prepared
// sequence plus the RNG seed its sample is drawn with.
type GenJob struct {
	Seq  *Sequence
	Seed int64
}

// GenerateJobs generates the denormalized [channel][t] series for each job
// on a fresh model clone seeded with the job's own seed, running up to
// Cfg.Workers jobs concurrently. Each output depends only on the model
// parameters and the job's (Seq, Seed) — not on the batch composition, the
// worker count, or goroutine scheduling — so a serving layer can coalesce
// arbitrary concurrent requests into one call and still return bit-identical
// results per request. Unlike Generate, it does not mutate the receiver:
// as long as the model's parameters are not concurrently written (e.g. by
// Train), GenerateJobs is safe to call from multiple goroutines at once.
func (m *Model) GenerateJobs(jobs []GenJob) [][][]float64 {
	out := make([][][]float64, len(jobs))
	run := func(i int) {
		rep := m.Clone(jobs[i].Seed)
		out[i] = rep.DenormalizeSeries(rep.Generate(jobs[i].Seq))
	}
	forEach(len(jobs), m.Cfg.Workers, run)
	return out
}

// GenerateAll generates the normalized series for every sequence, fanning
// the sequences out across Cfg.Workers parallel model clones. With
// Workers <= 1 it is equivalent to calling Generate on each sequence in
// order.
func (m *Model) GenerateAll(seqs []*Sequence) [][][]float64 {
	out := make([][][]float64, len(seqs))
	m.fanOut(len(seqs),
		func(i int) { out[i] = m.Generate(seqs[i]) },
		func(rep *Model, i int) { out[i] = rep.Generate(seqs[i]) })
	return out
}

// GenerateN draws n independent generation samples for the sequence and
// returns them denormalized as [n][channel][t] — the basis for the
// min/max envelopes of the paper's Figure 9. The samples are drawn across
// Cfg.Workers parallel model clones.
func (m *Model) GenerateN(seq *Sequence, n int) [][][]float64 {
	out := make([][][]float64, n)
	m.fanOut(n,
		func(i int) { out[i] = m.DenormalizeSeries(m.Generate(seq)) },
		func(rep *Model, i int) { out[i] = rep.DenormalizeSeries(rep.Generate(seq)) })
	return out
}

// Envelope reduces GenerateN samples to per-channel (min, max, mean)
// series.
func Envelope(samples [][][]float64) (min, max, mean [][]float64) {
	if len(samples) == 0 {
		return nil, nil, nil
	}
	nch := len(samples[0])
	T := len(samples[0][0])
	min = alloc2(nch, T)
	max = alloc2(nch, T)
	mean = alloc2(nch, T)
	for c := 0; c < nch; c++ {
		for t := 0; t < T; t++ {
			lo, hi, sum := samples[0][c][t], samples[0][c][t], 0.0
			for _, s := range samples {
				v := s[c][t]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				sum += v
			}
			min[c][t], max[c][t], mean[c][t] = lo, hi, sum/float64(len(samples))
		}
	}
	return min, max, mean
}

func alloc2(a, b int) [][]float64 {
	out := make([][]float64, a)
	for i := range out {
		out[i] = make([]float64, b)
	}
	return out
}
