package nn

import (
	"math"
	"math/rand"
)

// Frozen inference layers: immutable float32 snapshots of the trained
// float64 layers, shaped for the blocked kernels in kernels.go. Freezing
// separates weights from state — a FrozenDense/InferLSTM holds only
// weights and is safe to share across any number of goroutines, while
// every generation job owns an InferLSTMState — which is what lets the
// serving path run on one frozen snapshot with zero cloning.

// FrozenDense is an immutable float32 dense weight block in the layout
// GemvColF32's AVX kernel wants: a column-major weight mirror (WT) with
// rows zero-padded to the 8-lane kernel width, plus the bias pre-padded
// to match (BiasPad). The zero padding means the kernel can always write
// full register tiles into a y of at least PadRows entries — the pad rows
// compute 0·x+0 and land beyond y[:Rows], where callers never look.
type FrozenDense struct {
	Rows, Cols int
	PadRows    int       // Rows rounded up to the 8-lane kernel width
	WT         []float32 // column-major [Cols][PadRows] weights
	BiasPad    []float32 // [PadRows] bias, zeros where absent
}

// Apply computes y = W·x (+ bias) into y[:Rows]. y must have room for
// the padded rows (len(y) >= PadRows), which every scratch buffer sized
// from PadRows does; GemvColF32 panics on a shorter y.
func (d *FrozenDense) Apply(x, y []float32) {
	GemvColF32(d.WT, d.PadRows, d.Cols, x, d.BiasPad, y)
}

// ApplyBatch is the batched Apply: y_b = W·x_b (+ bias) for nb lanes,
// lane b's input at x[b*xStride:] and output at y[b*yStride:]. It
// requires yStride >= PadRows (every batched caller sizes its planes that
// way); each lane's result is bit-identical to a standalone Apply on the
// same input, because the GEMM preserves GemvColF32's per-row
// accumulation order.
func (d *FrozenDense) ApplyBatch(x []float32, xStride int, y []float32, yStride, nb int) {
	if yStride < d.PadRows {
		panic("nn: ApplyBatch yStride below PadRows")
	}
	GemmColF32(d.WT, d.PadRows, d.Cols, x, xStride, d.BiasPad, y, yStride, nb)
}

// newFrozenDense builds a FrozenDense from float64 row-major weights.
func newFrozenDense(w64 []float64, rows, cols int, bias64 []float64) *FrozenDense {
	if len(w64) < rows*cols {
		panic("nn: newFrozenDense weight size mismatch")
	}
	d := &FrozenDense{Rows: rows, Cols: cols, PadRows: pad8(rows)}
	w := make([]float32, rows*cols)
	for i := range w {
		w[i] = float32(w64[i])
	}
	d.WT = PackColMajor(w, rows, cols)
	d.BiasPad = make([]float32, d.PadRows)
	for i, b := range bias64 {
		d.BiasPad[i] = float32(b)
	}
	return d
}

// FreezeLinear snapshots a Linear layer for inference.
func FreezeLinear(l *Linear) *FrozenDense {
	return newFrozenDense(l.W.W, l.Out, l.In, l.B.W)
}

// InferLSTM is the frozen counterpart of LSTM. The four gate matmuls of a
// step are fused into one packed [4H × (In+H)] GEMV over xh = [x; h], so
// the whole weight block streams through cache exactly once per step. The
// per-row bias column of the trained layout is split out into the dense's
// padded bias.
// Gate rows are restacked [i; f; o; g] — sigmoid gates first — so the
// step applies the vectorized sigmoid to one contiguous 3H block and the
// vectorized tanh to the last H.
type InferLSTM struct {
	In, Hidden int
	AH, AC     float32
	Noise      bool
	Gates      *FrozenDense // rows = 4H stacked [i; f; o; g], cols = In+H

	// GatesSig/GatesG are row-slices of the same stacked gate matrix —
	// the sigmoid block [i; f; o] (3H rows) and the tanh block g (H
	// rows) — frozen separately so the batched path can run each
	// activation as ONE vector call over a contiguous multi-lane plane.
	// Per-row packing is row-independent, so these produce bit-identical
	// outputs to the corresponding rows of the fused 4H matmul.
	GatesSig *FrozenDense
	GatesG   *FrozenDense
}

// FreezeLSTM repacks a trained LSTM's gate weights for the fused kernel.
//
// The int8 backend was removed; quant must be false, and true panics. The
// parameter stays only for source compatibility with the servebench
// module, which calls FreezeLSTM(l, false); a benchmark change can drop
// it.
func FreezeLSTM(l *LSTM, quant bool) *InferLSTM {
	if quant {
		panic("nn: FreezeLSTM: the int8 backend was removed; quant must be false")
	}
	H := l.Hidden
	srcCols := l.In + H + 1
	dstCols := l.In + H
	w64 := make([]float64, 4*H*dstCols)
	bias64 := make([]float64, 4*H)
	// Trained gate order is [i; f; g; o]; the frozen stack wants
	// [i; f; o; g].
	for dstGate, srcGate := range [4]int{0, 1, 3, 2} {
		for j := 0; j < H; j++ {
			dst := dstGate*H + j
			src := l.W.W[(srcGate*H+j)*srcCols:]
			copy(w64[dst*dstCols:(dst+1)*dstCols], src[:dstCols])
			bias64[dst] = src[dstCols]
		}
	}
	return &InferLSTM{
		In: l.In, Hidden: H,
		AH: float32(l.AH), AC: float32(l.AC), Noise: l.NoiseActive,
		Gates:    newFrozenDense(w64, 4*H, dstCols, bias64),
		GatesSig: newFrozenDense(w64[:3*H*dstCols], 3*H, dstCols, bias64[:3*H]),
		GatesG:   newFrozenDense(w64[3*H*dstCols:], H, dstCols, bias64[3*H:]),
	}
}

// InferLSTMState is one job's recurrent state plus step scratch for an
// InferLSTM. The weights stay in the shared InferLSTM; states are cheap
// and pooled by the caller. H aliases the tail of xh, so the recurrent
// input needs no copy per step: Step reads [x; h] directly. C and the
// activation scratch carry zero padding out to the kernel lane width,
// which is what lets every activation pass in Step run as a full-width
// vector call with no scalar tail.
type InferLSTMState struct {
	H, C []float32
	cp   []float32 // C's padded backing (cp[:Hidden] == C, rest zero)
	tc   []float32 // tanh(C) scratch, padded
	gt   []float32 // tanh(g-gate) scratch, padded
	xh   []float32 // packed [x; h] GEMV input; callers write x into Input()
	z    []float32 // gate pre-activations, padded (see Step's layout note)
}

// NewState allocates a zeroed state sized for this LSTM.
func (l *InferLSTM) NewState() *InferLSTMState {
	H := l.Hidden
	xh := make([]float32, l.In+H)
	cp := make([]float32, pad8(H))
	// z holds the [i; f; o] block rounded up to full lanes, then the g
	// block with its own lane padding: the sigmoid pass may scribble on
	// [3H : pad8(3H)) and the g-gate read may run to 3H+pad8(H), so the
	// two regions must not share lanes with anything live.
	return &InferLSTMState{
		H:  xh[l.In : l.In+H : l.In+H],
		C:  cp[:H:H],
		cp: cp,
		tc: make([]float32, pad8(H)),
		gt: make([]float32, pad8(H)),
		xh: xh,
		z:  make([]float32, pad8(3*H)+pad8(H)),
	}
}

// Reset zeroes the recurrent state (start of a new batch).
func (l *InferLSTM) Reset(st *InferLSTMState) {
	for i := range st.H {
		st.H[i] = 0
		st.C[i] = 0
	}
}

// Input returns the slice the caller fills with the step input before
// Step — writing in place avoids a copy per step.
func (st *InferLSTMState) Input(in int) []float32 { return st.xh[:in] }

// Step advances one timestep: one fused GEMV for all four gates, the
// vectorized gate activations (one sigmoid pass over [i; f; o], one tanh
// pass over g, one over the updated cell), the cell update, and (when
// enabled) the stochastic h/c modulation, mirroring LSTM.Step's float64
// semantics in float32. The returned slice aliases st.H and is valid
// until the next Step or Reset on the same state.
func (l *InferLSTM) Step(st *InferLSTMState, rng *rand.Rand) []float32 {
	l.Gates.Apply(st.xh, st.z) // st.H aliases xh[In:], so xh is [x; h]
	H := l.Hidden
	zi, zf, zo := st.z[:H], st.z[H:2*H], st.z[2*H:3*H]
	// Every activation pass below runs on full 8-lane blocks — the
	// padded regions of z, cp, tc, and gt absorb the overhang, so no
	// scalar tail runs even when H is not a multiple of 8. Order
	// matters: tanh consumes the g block before the sigmoid pass
	// scribbles on [3H : pad8(3H)).
	TanhVecF32(st.gt, st.z[3*H:3*H+len(st.gt)])
	SigmoidVecF32(st.z[:pad8(3*H)])
	C := st.C
	for j := 0; j < H; j++ {
		C[j] = zf[j]*C[j] + zi[j]*st.gt[j]
	}
	TanhVecF32(st.tc, st.cp)
	for j := 0; j < H; j++ {
		st.H[j] = zo[j] * st.tc[j]
	}
	if l.Noise && (l.AH > 0 || l.AC > 0) {
		ModulateF32(st.H, l.AH, rng)
		ModulateF32(st.C, l.AC, rng)
	}
	return st.H
}

// InferLSTMBatchState holds the recurrent state and step scratch for nb
// lockstep generation lanes over one shared InferLSTM. Every per-lane
// buffer of InferLSTMState becomes a strided plane here — lane b's slice
// starts at b×stride — so StepBatch can hand whole planes to the batched
// matmul and run each gate activation as a single vector call across all
// lanes, instead of nb short calls that each pay the kernel's setup cost.
type InferLSTMBatchState struct {
	nb, in, hid int
	sx, ph, ps  int       // lane strides: xh, pad8(H), pad8(3H)
	xh          []float32 // [nb][In+H] packed [x; h]; H(b) aliases the tail
	cp          []float32 // [nb][pad8(H)] cell state, pad rows stay zero
	tc          []float32 // [nb][pad8(H)] tanh(C) scratch
	gt          []float32 // [nb][pad8(H)] tanh(g) scratch
	zsig        []float32 // [nb][pad8(3H)] [i; f; o] pre-activations
	zg          []float32 // [nb][pad8(H)] g pre-activations
}

// NewBatchState allocates a zeroed nb-lane batch state for this LSTM.
func (l *InferLSTM) NewBatchState(nb int) *InferLSTMBatchState {
	H := l.Hidden
	st := &InferLSTMBatchState{
		nb: nb, in: l.In, hid: H,
		sx: l.In + H, ph: pad8(H), ps: pad8(3 * H),
	}
	st.xh = make([]float32, nb*st.sx)
	st.cp = make([]float32, nb*st.ph)
	st.tc = make([]float32, nb*st.ph)
	st.gt = make([]float32, nb*st.ph)
	st.zsig = make([]float32, nb*st.ps)
	st.zg = make([]float32, nb*st.ph)
	return st
}

// Lanes reports the state's capacity in lanes.
func (st *InferLSTMBatchState) Lanes() int { return st.nb }

// Input returns lane b's step-input slice (written in place, like
// InferLSTMState.Input).
func (st *InferLSTMBatchState) Input(b int) []float32 {
	return st.xh[b*st.sx : b*st.sx+st.in]
}

// H returns lane b's hidden state (aliases the tail of the lane's xh).
func (st *InferLSTMBatchState) H(b int) []float32 {
	o := b*st.sx + st.in
	return st.xh[o : o+st.hid : o+st.hid]
}

// HPlane returns the packed hidden-state plane and its lane stride (lane
// b's H starts at b*stride), shaped for feeding a downstream
// FrozenDense.ApplyBatch without copying.
func (st *InferLSTMBatchState) HPlane() ([]float32, int) {
	return st.xh[st.in:], st.sx
}

// C returns lane b's cell state.
func (st *InferLSTMBatchState) C(b int) []float32 {
	o := b * st.ph
	return st.cp[o : o+st.hid : o+st.hid]
}

// ResetLane zeroes one lane's recurrent state for reuse by a new job.
func (st *InferLSTMBatchState) ResetLane(b int) {
	h, c := st.H(b), st.C(b)
	for i := range h {
		h[i] = 0
		c[i] = 0
	}
}

// StepBatch advances nb lanes one timestep in lockstep: two batched
// matmuls (the [i; f; o] sigmoid block and the g tanh block, each
// streaming the weights once for the whole batch), one vectorized tanh /
// sigmoid pass per activation over the full multi-lane plane, then the
// per-lane cell/hidden updates and stochastic modulation. active[b]
// false freezes lane b: its gate pre-activations are still computed (the
// GEMM is cheaper run dense than masked, and the results are simply
// never read) but its C/H stay untouched and its rng draws nothing, so a
// retired lane's state and RNG schedule are exactly as its last real
// step left them. active == nil means all lanes live. Each live lane's
// H/C after the call are bit-identical to a sequential Step with the
// same inputs, state, and rng.
func (l *InferLSTM) StepBatch(st *InferLSTMBatchState, nb int, active []bool, rngs []*rand.Rand) {
	if nb > st.nb {
		panic("nn: StepBatch lane count exceeds state capacity")
	}
	H := l.Hidden
	l.GatesSig.ApplyBatch(st.xh, st.sx, st.zsig, st.ps, nb)
	l.GatesG.ApplyBatch(st.xh, st.sx, st.zg, st.ph, nb)
	// One activation call per plane. Pad lanes hold matmul zeros; the
	// activations write dead values there that nothing reads — same
	// contract as the sequential path's padded z regions.
	TanhVecF32(st.gt[:nb*st.ph], st.zg[:nb*st.ph])
	SigmoidVecF32(st.zsig[:nb*st.ps])
	for b := 0; b < nb; b++ {
		if active != nil && !active[b] {
			continue
		}
		z := st.zsig[b*st.ps:]
		zi, zf := z[:H], z[H:2*H]
		gt := st.gt[b*st.ph:]
		C := st.C(b)
		for j := 0; j < H; j++ {
			C[j] = zf[j]*C[j] + zi[j]*gt[j]
		}
	}
	TanhVecF32(st.tc[:nb*st.ph], st.cp[:nb*st.ph])
	for b := 0; b < nb; b++ {
		if active != nil && !active[b] {
			continue
		}
		zo := st.zsig[b*st.ps+2*H : b*st.ps+3*H]
		tc := st.tc[b*st.ph:]
		h := st.H(b)
		for j := 0; j < H; j++ {
			h[j] = zo[j] * tc[j]
		}
		if l.Noise && (l.AH > 0 || l.AC > 0) {
			ModulateF32(h, l.AH, rngs[b])
			ModulateF32(st.C(b), l.AC, rngs[b])
		}
	}
}

// ModulateF32 is the float32 mirror of LSTM.modulate (paper §A.2): add
// centred uniform noise scaled by the vector's mean |v|, then renormalize
// by the absolute-mass ratio clamped to [0.5, 2]. It consumes exactly
// len(v) rng.Float64 draws, matching the float64 path's RNG schedule —
// the per-precision determinism contract cares about draw counts, not
// arithmetic width.
func ModulateF32(v []float32, a float32, rng *rand.Rand) {
	if a <= 0 {
		return
	}
	// The mean pass and the old sumBefore accumulation were the same
	// operand sequence, so one pass serves both. abs32 feeds the adds the
	// bit-identical operand the old sign branches did (sum + (-x) for
	// x < 0, x unchanged otherwise, -0.0 included), keeping this function
	// byte-for-byte equal to its branchy predecessor.
	sumBefore := float32(0)
	for _, x := range v {
		sumBefore += abs32(x)
	}
	mean := sumBefore / float32(len(v))
	sumAfter := float32(0)
	for i, x := range v {
		n := float32(rng.Float64()-0.5) * mean
		nv := x + a*n
		v[i] = nv
		sumAfter += abs32(nv)
	}
	scale := float32(1)
	if sumAfter > 1e-12 {
		scale = sumBefore / sumAfter
	}
	if scale < 0.5 {
		scale = 0.5
	} else if scale > 2 {
		scale = 2
	}
	for i := range v {
		v[i] *= scale
	}
}

// abs32 clears the sign bit: |x| without a branch, exact for -0.0.
func abs32(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}
