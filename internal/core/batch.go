package core

import (
	"math/rand"
	"sort"

	"gendt/internal/nn"
)

// Batched lockstep generation: up to batchLanes same-model jobs step
// their frozen LSTMs together, so each layer-step runs ONE batched matmul
// (nn.GemmColF32) that streams the weights once for the
// whole micro-batch instead of once per sequence, and each gate
// activation runs as one vector call over the multi-lane plane.
//
// The per-seed bit-exactness contract survives batching because nothing
// that affects a lane's arithmetic changes:
//   - the batched kernels preserve the single-lane kernels' per-row
//     accumulation order exactly (see GemmColF32), so every matmul output
//     is bit-identical to the sequential call;
//   - every lane owns its RNG, so interleaving lanes cannot perturb a
//     lane's draw sequence, and the engine's phase order (node slots
//     outer / timesteps inner, then per-timestep agg + residual) walks
//     each lane's draws in exactly GenerateSeeded's order;
//   - retired lanes are frozen via active masks — their state is not
//     touched and their RNG draws nothing — rather than padded with work.
//
// Lanes are sorted by descending sequence length, which makes window- and
// timestep-level retirement a prefix shrink: the per-step batched matmul
// covers only still-live lanes, with masks needed only in the node phase
// (a lane's visible-cell slot count is not monotonic in lane order).

// batchLanes is the micro-batch width of the lockstep engine. Eight lanes
// amortize the weight stream well past the point of diminishing returns
// for the model sizes in play while keeping the per-engine scratch small;
// larger request batches run as consecutive chunks.
const batchLanes = 8

// batchLane is one job's private half of the engine: its RNG, its
// sequence, its accumulated output rows (also the lag history), and the
// per-lane scratch that has no batched equivalent.
type batchLane struct {
	src rand.Source64
	rng *rand.Rand
	seq *Sequence
	T   int

	out     [][]float64 // normalized rows generated so far
	backing []float64   // current window's output backing

	hAvg   []float32 // [BatchLen*Hidden] per-step node-state sums
	nCells []int
	row    []float32 // [nch] current output row
	bufA   []float32 // residual ping-pong buffers
	bufB   []float32
	lags   []float32 // [Lags*nch] residual lag assembly
}

// inferBatch is a pooled lockstep engine: the shared batched LSTM states,
// the shared output-head plane, and batchLanes lanes.
type inferBatch struct {
	node *nn.InferLSTMBatchState
	agg  *nn.InferLSTMBatchState

	headW int
	head  []float32 // [batchLanes][headW] aggOut / residual-head plane

	lanes    [batchLanes]*batchLane
	order    []int  // job index per lane, descending by sequence length
	act      []bool // node-phase per-(slot,t) active mask
	maxSlots []int  // per-lane visible-cell slot count, current window
	winL     []int  // per-lane window length
	rngs     []*rand.Rand
}

func (im *InferModel) newBatch() *inferBatch {
	cfg := im.Cfg
	pad8 := func(n int) int { return (n + 7) &^ 7 }
	headW := pad8(2 * im.nch)
	if p := im.aggOut.PadRows; p > headW {
		headW = p
	}
	if im.res != nil {
		if p := im.res.head.PadRows; p > headW {
			headW = p
		}
	}
	eng := &inferBatch{
		node:     im.node.NewBatchState(batchLanes),
		agg:      im.agg.NewBatchState(batchLanes),
		headW:    headW,
		head:     make([]float32, batchLanes*headW),
		order:    make([]int, 0, batchLanes),
		act:      make([]bool, batchLanes),
		maxSlots: make([]int, batchLanes),
		winL:     make([]int, batchLanes),
		rngs:     make([]*rand.Rand, batchLanes),
	}
	for b := range eng.lanes {
		src := newSource64(0)
		ln := &batchLane{
			src:    src,
			rng:    rand.New(src),
			hAvg:   make([]float32, cfg.BatchLen*cfg.Hidden),
			nCells: make([]int, cfg.BatchLen),
			row:    make([]float32, im.nch),
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
			ln.bufA = make([]float32, w)
			ln.bufB = make([]float32, w)
			ln.lags = make([]float32, cfg.Lags*im.nch)
		}
		eng.lanes[b] = ln
		eng.rngs[b] = ln.rng
	}
	return eng
}

// generateBatch runs len(jobs) (2..batchLanes) jobs in lockstep and
// writes each job's denormalized series into out at its own index. Every
// series is bit-identical to the sequential
// DenormalizeSeries(GenerateSeeded(seq, seed)) for that job.
func (im *InferModel) generateBatch(jobs []GenJob, out [][][]float64) {
	eng := im.batches.Get().(*inferBatch)
	nb := len(jobs)
	eng.order = eng.order[:0]
	for i := range jobs {
		eng.order = append(eng.order, i)
	}
	// Longest sequences first: lane retirement then only ever shrinks the
	// live prefix, so the per-step matmuls shrink with it.
	sort.SliceStable(eng.order, func(a, b int) bool {
		return jobs[eng.order[a]].Seq.Len() > jobs[eng.order[b]].Seq.Len()
	})
	Tmax := 0
	for b := 0; b < nb; b++ {
		j := jobs[eng.order[b]]
		ln := eng.lanes[b]
		ln.seq = j.Seq
		ln.T = j.Seq.Len()
		ln.src.Seed(j.Seed)
		ln.out = make([][]float64, 0, ln.T)
		if ln.T > Tmax {
			Tmax = ln.T
		}
	}
	for lo := 0; lo < Tmax; lo += im.Cfg.BatchLen {
		nbw := 0
		for nbw < nb && eng.lanes[nbw].T > lo {
			nbw++
		}
		if nbw == 0 {
			break
		}
		im.batchWindow(eng, nbw, lo)
	}
	for b, ji := range eng.order {
		ln := eng.lanes[b]
		out[ji] = im.DenormalizeSeries(ln.out)
		ln.seq, ln.out, ln.backing = nil, nil, nil
	}
	im.batches.Put(eng)
}

// batchWindow mirrors forwardGen for one BatchLen window across the nbw
// still-live lanes (a descending-length prefix, so per-lane window
// lengths are non-increasing in lane order).
func (im *InferModel) batchWindow(eng *inferBatch, nbw, lo int) {
	cfg := im.Cfg
	nch := im.nch
	H := cfg.Hidden
	cellDim := cfg.CellDim()

	Lw, slotsMax := 0, 0
	for b := 0; b < nbw; b++ {
		ln := eng.lanes[b]
		L := cfg.BatchLen
		if lo+L > ln.T {
			L = ln.T - lo
		}
		eng.winL[b] = L
		if L > Lw {
			Lw = L
		}
		ms := 0
		for t := 0; t < L; t++ {
			if n := len(ln.seq.Cells[lo+t]); n > ms {
				ms = n
			}
		}
		if ms == 0 {
			ms = 1
		}
		eng.maxSlots[b] = ms
		if ms > slotsMax {
			slotsMax = ms
		}
		hAvg := ln.hAvg[:L*H]
		for i := range hAvg {
			hAvg[i] = 0
		}
		nC := ln.nCells[:L]
		for t := range nC {
			nC[t] = 0
		}
	}

	// Node phase. Slot membership is NOT monotonic in lane order (a short
	// sequence can see more cells), so this is the one phase that needs
	// the per-(slot,t) active mask: masked lanes keep their state and
	// draw nothing — the batched matmul computes their (ignored) gates as
	// the price of staying dense.
	for slot := 0; slot < slotsMax; slot++ {
		last := -1
		for b := 0; b < nbw; b++ {
			if slot < eng.maxSlots[b] {
				eng.node.ResetLane(b)
				last = b
			}
		}
		for t := 0; t < Lw; t++ {
			hi := -1
			for b := 0; b <= last; b++ {
				a := slot < eng.maxSlots[b] && t < eng.winL[b]
				eng.act[b] = a
				if a {
					hi = b
				}
			}
			if hi < 0 {
				break // live set only shrinks with t within a slot
			}
			for b := 0; b <= hi; b++ {
				if !eng.act[b] {
					continue
				}
				ln := eng.lanes[b]
				cellsAtT := ln.seq.Cells[lo+t]
				in := eng.node.Input(b)
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
					in[cellDim+z] = float32(0.1 * ln.rng.NormFloat64())
				}
			}
			im.node.StepBatch(eng.node, hi+1, eng.act, eng.rngs)
			for b := 0; b <= hi; b++ {
				if !eng.act[b] {
					continue
				}
				ln := eng.lanes[b]
				cellsAtT := ln.seq.Cells[lo+t]
				if slot < len(cellsAtT) || (len(cellsAtT) == 0 && slot == 0) {
					sum := ln.hAvg[t*H : (t+1)*H]
					for j, v := range eng.node.H(b) {
						sum[j] += v
					}
					ln.nCells[t]++
				}
			}
		}
	}

	// Aggregation + residual phase. Retirement here is a pure prefix
	// shrink (window lengths are sorted), so no masks: each timestep's
	// batched agg step and output-head matmul cover exactly the live
	// lanes.
	for b := 0; b < nbw; b++ {
		eng.agg.ResetLane(b)
		eng.lanes[b].backing = make([]float64, eng.winL[b]*nch)
	}
	aggH, aggStride := eng.agg.HPlane()
	for t := 0; t < Lw; t++ {
		nbt := 0
		for nbt < nbw && eng.winL[nbt] > t {
			nbt++
		}
		if nbt == 0 {
			break
		}
		for b := 0; b < nbt; b++ {
			ln := eng.lanes[b]
			avg := ln.hAvg[t*H : (t+1)*H]
			if n := ln.nCells[t]; n > 0 {
				for j := range avg {
					avg[j] /= float32(n)
				}
			}
			copy(eng.agg.Input(b), avg)
		}
		im.agg.StepBatch(eng.agg, nbt, nil, eng.rngs)
		im.aggOut.ApplyBatch(aggH, aggStride, eng.head, eng.headW, nbt)
		for b := 0; b < nbt; b++ {
			ln := eng.lanes[b]
			head := eng.head[b*eng.headW : (b+1)*eng.headW]
			row := ln.row
			copy(row, head[:nch])
			if im.res != nil {
				// ln.out already holds every row before lo+t, so the
				// teacher/window split of the sequential lag assembly
				// collapses to one absolute index.
				lags := ln.lags
				for i := range lags {
					lags[i] = 0
				}
				for l := 0; l < cfg.Lags; l++ {
					src := lo + t - cfg.Lags + l
					if src < 0 {
						continue
					}
					from := ln.out[src]
					dst := lags[l*nch : (l+1)*nch]
					for c := 0; c < nch; c++ {
						dst[c] = float32(from[c])
					}
				}
				im.res.forwardLane(ln.rng, ln.bufA, ln.bufB, lags, head, ln.seq.Env[lo+t], row)
			}
			o := ln.backing[t*nch : (t+1)*nch]
			for c := range row {
				o[c] = float64(clamp01f32(row[c]))
			}
			ln.out = append(ln.out, o)
		}
	}
}
