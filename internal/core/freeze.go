package core

import (
	"fmt"
	"math/rand"
	"sync"

	"gendt/internal/nn"
)

// Precision identifies a generation backend: the live float64 model or a
// frozen float32 snapshot of it.
type Precision string

// The supported generation precisions.
const (
	PrecisionF64 Precision = "f64"
	PrecisionF32 Precision = "f32"
)

// ParsePrecision parses a -precision flag value. The empty string means
// the default, f64.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", string(PrecisionF64):
		return PrecisionF64, nil
	case string(PrecisionF32):
		return PrecisionF32, nil
	}
	return "", fmt.Errorf("core: unknown precision %q (want f64, f32)", s)
}

// Generator is the read-only generation surface the serving and validation
// layers run against. Both *Model (the live f64 network) and *InferModel
// (a frozen f32 snapshot) implement it. Every method is safe for
// concurrent use, and each generated series is a pure function of
// (weights, Seq, Seed) at the implementation's own precision — seed
// determinism is bit-exact per precision, never across precisions.
type Generator interface {
	// GenerateSeeded produces the normalized [T][nch] series for the
	// sequence, deterministically from the seed.
	GenerateSeeded(seq *Sequence, seed int64) [][]float64
	// GenerateJobs generates the denormalized [channel][t] series per job,
	// fanning out over the configured worker width.
	GenerateJobs(jobs []GenJob) [][][]float64
	// DenormalizeSeries converts a normalized [T][nch] series to physical
	// per-channel series, indexed [channel][t].
	DenormalizeSeries(norm [][]float64) [][]float64
	// ModelConfig returns the model configuration (channels, batch length,
	// preparation options, worker width).
	ModelConfig() Config
	// ParamCount reports the generator parameter count.
	ParamCount() int
	// Precision identifies the backend.
	Precision() Precision
	// Fingerprint hashes the (source) model weights; a frozen snapshot
	// reports its source model's fingerprint, pinning provenance.
	Fingerprint() uint64
	// WithWorkers returns a view of the same weights with the generation
	// fan-out width overridden (n <= 0 keeps the current width). The
	// returned Generator is only for the Generator interface paths; it
	// shares weights (and, for frozen models, state pools) with the
	// receiver.
	WithWorkers(n int) Generator
}

// GenerateSeeded implements Generator on the live model: a fresh clone
// seeded with seed, so the call is concurrency-safe and deterministic.
func (m *Model) GenerateSeeded(seq *Sequence, seed int64) [][]float64 {
	return m.Clone(seed).Generate(seq)
}

// ModelConfig implements Generator.
func (m *Model) ModelConfig() Config { return m.Cfg }

// Precision implements Generator: a live model is always float64.
func (m *Model) Precision() Precision { return PrecisionF64 }

// WithWorkers implements Generator. The shallow copy shares parameters and
// scratch with the receiver, which is safe for the clone-per-job Generator
// paths (GenerateSeeded, GenerateJobs) but NOT for receiver-mutating calls
// like Generate or Train — use only through the Generator interface.
func (m *Model) WithWorkers(n int) Generator {
	if n <= 0 || n == m.Cfg.Workers {
		return m
	}
	c := *m
	c.Cfg.Workers = n
	return &c
}

// Freeze snapshots the trained generator into an immutable InferModel
// running on the blocked float32 inference kernels. p must be f32 (f64
// is the live model itself). The snapshot shares nothing mutable with the
// model: training can continue on the source while the frozen copy
// serves.
func (m *Model) Freeze(p Precision) (*InferModel, error) {
	switch p {
	case PrecisionF32:
	case PrecisionF64:
		return nil, fmt.Errorf("core: Freeze: f64 is the live model; freeze to f32")
	default:
		return nil, fmt.Errorf("core: Freeze: unknown precision %q", p)
	}
	im := &InferModel{
		Cfg:     m.Cfg,
		prec:    p,
		nch:     len(m.Cfg.Channels),
		nParams: m.ParamCount(),
		fp:      m.Fingerprint(),
		node:    nn.FreezeLSTM(m.node, false),
		agg:     nn.FreezeLSTM(m.agg, false),
		aggOut:  nn.FreezeLinear(m.aggOut),
	}
	im.Cfg.Precision = p
	// Generation always runs with the stochastic layers active (Generate
	// calls SetNoise(true)); bake that in, honoring the NoSRNN ablation.
	im.node.Noise = !m.Cfg.NoSRNN
	im.agg.Noise = !m.Cfg.NoSRNN
	if m.res != nil {
		r, err := freezeRes(m.res)
		if err != nil {
			return nil, err
		}
		im.res = r
	}
	im.states = &sync.Pool{New: func() any { return im.newState() }}
	im.batches = &sync.Pool{New: func() any { return im.newBatch() }}
	return im, nil
}

// InferModel is a frozen, immutable inference snapshot of a trained model.
// Weights are shared by every generation; per-job recurrent state and
// scratch live in pooled inferStates, so the steady-state hot path
// allocates only the output rows (same allocation profile as the f64
// path). All methods are safe for concurrent use.
type InferModel struct {
	Cfg Config

	prec    Precision
	nch     int
	nParams int
	fp      uint64

	node   *nn.InferLSTM
	agg    *nn.InferLSTM
	aggOut *nn.FrozenDense
	res    *inferRes // nil under the NoResGen ablation

	// states pools inferState by pointer so WithWorkers' shallow copies
	// share one pool (sync.Pool must not be copied by value).
	states *sync.Pool
	// batches pools the lockstep micro-batch engines (batch.go); shared
	// across shallow copies for the same reason.
	batches *sync.Pool
	// noBatch forces GenerateJobs down the job-at-a-time path (the
	// -batch-gemm=false escape hatch). Outputs are bit-identical either
	// way; only the execution schedule differs.
	noBatch bool
}

// inferRes is the frozen ResGen: the body denses with their activation
// slopes, MC dropout, and the Gaussian head.
type inferRes struct {
	in, hidden, nch, lags, noiseDim int
	dropP                           float64
	stages                          []inferStage
	head                            *nn.FrozenDense
}

// inferStage is one body dense plus the LeakyReLU slope applied after it
// (0 = no activation).
type inferStage struct {
	d     *nn.FrozenDense
	alpha float32
}

// freezeRes snapshots a ResGen. The body walk is structural, so an
// architecture drift between ResGen and the freezer fails loudly here
// instead of silently generating garbage.
func freezeRes(r *ResGen) (*inferRes, error) {
	fr := &inferRes{
		nch: r.nch, lags: r.lags, noiseDim: r.noiseDim,
		dropP: r.Dropout.P,
		head:  nn.FreezeLinear(r.head),
	}
	for _, layer := range r.body.Layers {
		switch t := layer.(type) {
		case *nn.Linear:
			fr.stages = append(fr.stages, inferStage{d: nn.FreezeLinear(t)})
		case *nn.LeakyReLU:
			if len(fr.stages) == 0 {
				return nil, fmt.Errorf("core: Freeze: ResGen body starts with an activation")
			}
			fr.stages[len(fr.stages)-1].alpha = float32(t.Alpha)
		default:
			return nil, fmt.Errorf("core: Freeze: unsupported ResGen body layer %T", layer)
		}
	}
	if len(fr.stages) == 0 {
		return nil, fmt.Errorf("core: Freeze: ResGen body has no dense layers")
	}
	fr.in = fr.stages[0].d.Cols
	fr.hidden = fr.head.Cols
	return fr, nil
}

// inferState is one generation job's recurrent state and scratch. States
// are pooled on the InferModel and fully re-initialized per job (RNG
// reseeded, LSTM states reset per batch), so reuse never leaks one job's
// randomness into another.
type inferState struct {
	src rand.Source64
	rng *rand.Rand

	node *nn.InferLSTMState
	agg  *nn.InferLSTMState

	hAvg   []float32 // [BatchLen*Hidden] arena of per-step node sums
	nCells []int
	row    []float32 // [nch] current output row (base + residual)
	head   []float32 // [2*nch] aggOut / res head output
	bufA   []float32 // res ping-pong buffers, width max(resIn, hidden)
	bufB   []float32
	lags   []float32 // [Lags*nch] res lag assembly
}

func (im *InferModel) newState() *inferState {
	cfg := im.Cfg
	src := newSource64(0)
	// Dense outputs land in kernel-width-padded buffers (pad8), as Apply
	// requires; callers only ever read the logical prefix.
	pad8 := func(n int) int { return (n + 7) &^ 7 }
	headW := pad8(2 * im.nch)
	if p := im.aggOut.PadRows; p > headW {
		headW = p
	}
	st := &inferState{
		src:    src,
		rng:    rand.New(src),
		node:   im.node.NewState(),
		agg:    im.agg.NewState(),
		hAvg:   make([]float32, cfg.BatchLen*cfg.Hidden),
		nCells: make([]int, cfg.BatchLen),
		row:    make([]float32, im.nch),
		head:   make([]float32, headW),
	}
	if im.res != nil {
		w := im.res.in
		if im.res.hidden > w {
			w = im.res.hidden
		}
		for _, sg := range im.res.stages {
			if sg.d.PadRows > w {
				w = sg.d.PadRows
			}
		}
		if p := im.res.head.PadRows; p > headW {
			// res head (2·nch rows) shares st.head with aggOut.
			headW = p
			st.head = make([]float32, headW)
		}
		st.bufA = make([]float32, w)
		st.bufB = make([]float32, w)
		st.lags = make([]float32, cfg.Lags*im.nch)
	}
	return st
}

// GenerateSeeded implements Generator: the frozen mirror of
// Model.GenerateSeeded, batch for batch. The output is bit-exact across
// repeated calls for the same (seq, seed) regardless of pooling or
// concurrency.
func (im *InferModel) GenerateSeeded(seq *Sequence, seed int64) [][]float64 {
	st := im.states.Get().(*inferState)
	st.src.Seed(seed)
	T := seq.Len()
	out := make([][]float64, 0, T)
	for lo := 0; lo < T; lo += im.Cfg.BatchLen {
		L := im.Cfg.BatchLen
		if lo+L > T {
			L = T - lo
		}
		out = append(out, im.forwardGen(st, seq, lo, L, out)...)
	}
	im.states.Put(st)
	return out
}

// forwardGen mirrors Model.forwardGen on the frozen kernels: per-slot node
// LSTM over the visible cells, mean-pooled into the aggregation LSTM and
// output head, plus the autoregressive Gaussian residual, with the same
// RNG draw schedule as the f64 path (noise dims, modulation, dropout,
// residual eps — in that order).
func (im *InferModel) forwardGen(st *inferState, seq *Sequence, lo, L int, teacher [][]float64) [][]float64 {
	cfg := im.Cfg
	nch := im.nch
	H := cfg.Hidden
	cellDim := cfg.CellDim()

	maxSlots := 0
	for t := 0; t < L; t++ {
		if n := len(seq.Cells[lo+t]); n > maxSlots {
			maxSlots = n
		}
	}
	if maxSlots == 0 {
		maxSlots = 1
	}
	hAvg := st.hAvg[:L*H]
	for i := range hAvg {
		hAvg[i] = 0
	}
	nCells := st.nCells[:L]
	for t := range nCells {
		nCells[t] = 0
	}
	for slot := 0; slot < maxSlots; slot++ {
		im.node.Reset(st.node)
		for t := 0; t < L; t++ {
			cellsAtT := seq.Cells[lo+t]
			in := st.node.Input(im.node.In)
			if slot < len(cellsAtT) {
				for k, v := range cellsAtT[slot] {
					in[k] = float32(v)
				}
			} else {
				for k := 0; k < cellDim; k++ {
					in[k] = 0
				}
			}
			for z := 0; z < cfg.NoiseDim; z++ {
				in[cellDim+z] = float32(0.1 * st.rng.NormFloat64())
			}
			h := im.node.Step(st.node, st.rng)
			if slot < len(cellsAtT) || (len(cellsAtT) == 0 && slot == 0) {
				sum := hAvg[t*H : (t+1)*H]
				for j, v := range h {
					sum[j] += v
				}
				nCells[t]++
			}
		}
	}

	// Output rows escape to the caller: one fresh backing block per batch.
	backing := make([]float64, L*nch)
	out := make([][]float64, L)
	im.agg.Reset(st.agg)
	for t := 0; t < L; t++ {
		avg := hAvg[t*H : (t+1)*H]
		if n := nCells[t]; n > 0 {
			for j := range avg {
				avg[j] /= float32(n)
			}
		}
		copy(st.agg.Input(H), avg)
		ha := im.agg.Step(st.agg, st.rng)
		im.aggOut.Apply(ha, st.head)
		row := st.row
		copy(row, st.head[:nch])
		if im.res != nil {
			// Lags over the combined (teacher ++ out[:t]) history, exactly
			// as the f64 path assembles them; the stored values are
			// float32-rounded so the widen/narrow round-trip is lossless.
			lags := st.lags
			for i := range lags {
				lags[i] = 0
			}
			for l := 0; l < cfg.Lags; l++ {
				src := lo + t - cfg.Lags + l
				if src < 0 {
					continue
				}
				dst := lags[l*nch : (l+1)*nch]
				var from []float64
				if src < lo {
					if teacher == nil {
						continue
					}
					from = teacher[src]
				} else {
					from = out[src-lo]
				}
				for c := 0; c < nch; c++ {
					dst[c] = float32(from[c])
				}
			}
			im.res.forward(st, seq.Env[lo+t], row)
		}
		o := backing[t*nch : (t+1)*nch]
		for c := range row {
			o[c] = float64(clamp01f32(row[c]))
		}
		out[t] = o
	}
	return out
}

// forward computes one timestep's residual on the frozen kernels and adds
// the sampled, soft-bounded residual into row. It consumes the same RNG
// draws as ResGen.Forward: noiseDim normals, one uniform per dropout
// element, one normal per channel.
func (r *inferRes) forward(st *inferState, envCtx []float64, row []float32) {
	r.forwardLane(st.rng, st.bufA, st.bufB, st.lags, st.head, envCtx, row)
}

// forwardLane is forward with the state unbundled, so the batched engine
// can run it per lane against its own buffers; one implementation serves
// both execution paths, which is what keeps them bit-identical by
// construction.
func (r *inferRes) forwardLane(rng *rand.Rand, bufA, bufB, lags, head []float32, envCtx []float64, row []float32) {
	x := bufA
	k := 0
	for _, v := range envCtx {
		x[k] = float32(v)
		k++
	}
	for i := 0; i < r.noiseDim; i++ {
		x[k] = float32(rng.NormFloat64())
		k++
	}
	copy(x[k:r.in], lags)
	cur, nxt := bufA, bufB
	for _, sg := range r.stages {
		sg.d.Apply(cur, nxt)
		if sg.alpha != 0 {
			for i := 0; i < sg.d.Rows; i++ {
				if nxt[i] < 0 {
					nxt[i] *= sg.alpha
				}
			}
		}
		cur, nxt = nxt, cur
	}
	h := cur[:r.hidden]
	if r.dropP > 0 {
		// MC dropout stays active at generation time (paper §6.2.1).
		keep := 1 - r.dropP
		keep32 := float32(keep)
		for i := range h {
			if rng.Float64() < keep {
				h[i] /= keep32
			} else {
				h[i] = 0
			}
		}
	}
	r.head.Apply(h, head)
	for c := 0; c < r.nch; c++ {
		mu := head[c]
		ls := head[r.nch+c]
		if ls < -6 {
			ls = -6
		} else if ls > 3 {
			ls = 3
		}
		eps := float32(rng.NormFloat64())
		raw := mu + nn.ExpF32(ls)*eps
		th := nn.TanhF32(raw / ResBound)
		row[c] += ResBound * th
	}
}

func clamp01f32(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// GenerateJobs implements Generator: no cloning — every job runs straight
// on the frozen weights, fanned out over Cfg.Workers. By default jobs run
// on the lockstep micro-batch engine (batch.go) in chunks of up to
// batchLanes, which amortizes weight bandwidth across the chunk; the
// noBatch escape hatch (WithBatch(false)) and singleton chunks take the
// job-at-a-time path. Both schedules produce bit-identical output per
// (seq, seed).
func (im *InferModel) GenerateJobs(jobs []GenJob) [][][]float64 {
	out := make([][][]float64, len(jobs))
	runOne := func(i int) {
		out[i] = im.DenormalizeSeries(im.GenerateSeeded(jobs[i].Seq, jobs[i].Seed))
	}
	if im.noBatch {
		W := im.Cfg.Workers
		if W > len(jobs) {
			W = len(jobs)
		}
		if W <= 1 {
			for i := range jobs {
				runOne(i)
			}
			return out
		}
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(jobs); i += W {
					runOne(i)
				}
			}(w)
		}
		wg.Wait()
		return out
	}
	nChunks := (len(jobs) + batchLanes - 1) / batchLanes
	runChunk := func(ci int) {
		lo := ci * batchLanes
		hi := lo + batchLanes
		if hi > len(jobs) {
			hi = len(jobs)
		}
		if hi-lo == 1 {
			runOne(lo)
			return
		}
		im.generateBatch(jobs[lo:hi], out[lo:hi])
	}
	W := im.Cfg.Workers
	if W > nChunks {
		W = nChunks
	}
	if W <= 1 {
		for ci := 0; ci < nChunks; ci++ {
			runChunk(ci)
		}
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := w; ci < nChunks; ci += W {
				runChunk(ci)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// DenormalizeSeries implements Generator.
func (im *InferModel) DenormalizeSeries(norm [][]float64) [][]float64 {
	return denormalizeSeries(im.Cfg.Channels, norm)
}

// ModelConfig implements Generator.
func (im *InferModel) ModelConfig() Config { return im.Cfg }

// ParamCount implements Generator (the source model's generator count).
func (im *InferModel) ParamCount() int { return im.nParams }

// Precision implements Generator.
func (im *InferModel) Precision() Precision { return im.prec }

// Fingerprint implements Generator: the source model's weight fingerprint.
func (im *InferModel) Fingerprint() uint64 { return im.fp }

// WithWorkers implements Generator; the copy shares weights and the state
// pool.
func (im *InferModel) WithWorkers(n int) Generator {
	if n <= 0 || n == im.Cfg.Workers {
		return im
	}
	c := *im
	c.Cfg.Workers = n
	return &c
}

// WithBatch returns a view of the same weights with the lockstep batched
// GenerateJobs engine enabled (the default) or disabled. The view shares
// weights and pools with the receiver; per-seed outputs are bit-identical
// on both settings.
func (im *InferModel) WithBatch(on bool) *InferModel {
	if im.noBatch == !on {
		return im
	}
	c := *im
	c.noBatch = !on
	return &c
}
