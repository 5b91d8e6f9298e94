package main

import (
	"math/rand"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/geo"
	"gendt/internal/nn"
	"gendt/internal/serve"
)

// Direct measurements of the layers below serve, taken after the load
// phases on the same process. They time public calls from outside the
// program, on the workload's own routes and the served model's shapes.

// prepareLayers times annotation and sequence preparation route by route:
// sim.World.Annotate, the cells.Deployment.Visible and env.Map.ContextAt
// calls it makes per point, and core.PrepareSequenceWith.
func prepareLayers(ds *dataset.Dataset, cfg core.Config, routes [][]serve.RoutePoint, add func(string, float64, string)) {
	const passes = 3
	w := ds.World
	var annotate, prepare, visible, context []float64
	for pass := 0; pass < passes; pass++ {
		for _, rt := range routes {
			tr := make(geo.Trajectory, len(rt))
			for i, p := range rt {
				tr[i] = geo.Sample{Point: geo.Point{Lat: p.Lat, Lon: p.Lon}, T: p.T}
			}
			t0 := time.Now()
			meas := w.Annotate(tr)
			t1 := time.Now()
			core.PrepareSequenceWith(dataset.Run{Scenario: "serve", Traj: tr, Meas: meas}, cfg.Channels,
				core.PrepareOptions{MaxCells: cfg.MaxCells, LoadAware: cfg.LoadAware})
			t2 := time.Now()
			for _, s := range tr {
				w.Deployment.Visible(s.Point, w.VisibleRange)
			}
			t3 := time.Now()
			for _, s := range tr {
				w.Env.ContextAt(s.Point, w.EnvRadius)
			}
			t4 := time.Now()
			n := float64(len(tr))
			annotate = append(annotate, ms(t1.Sub(t0)))
			prepare = append(prepare, ms(t2.Sub(t1)))
			visible = append(visible, us(t3.Sub(t2))/n)
			context = append(context, us(t4.Sub(t3))/n)
		}
	}
	add("sim.annotate_ms", median(annotate), "ms")
	add("core.prepare_seq_ms", median(prepare), "ms")
	add("cells.visible_us", median(visible), "us")
	add("env.context_us", median(context), "us")
}

// kernelLayers times the f32 inference kernels at the served model's
// node-LSTM shape: the fused 4-gate matrix (4H rows, In+H columns) as one
// GEMV and as an 8-lane GEMM, ModulateF32 over a hidden-state vector and
// SigmoidVecF32 over the three sigmoid gates. Operation counts and bytes
// moved are computed from the tensor sizes, not measured: bytes are the
// distinct tensor bytes read plus written per call.
func kernelLayers(cfg core.Config, add func(string, float64, string)) {
	H := cfg.Hidden
	l := nn.FreezeLSTM(nn.NewLSTM(cfg.CellDim()+cfg.NoiseDim, H, rand.New(rand.NewSource(1))), false)
	d := l.Gates
	rng := rand.New(rand.NewSource(2))
	fill := func(v []float32) {
		for i := range v {
			v[i] = float32(rng.Float64()*2 - 1)
		}
	}
	const lanes = 8
	x := make([]float32, lanes*d.Cols)
	y := make([]float32, lanes*d.PadRows)
	fill(x)
	add("nn.gemv_ns", perCall(func() { nn.GemvColF32(d.WT, d.PadRows, d.Cols, x, d.BiasPad, y) }), "ns")
	add("nn.gemv_flop", float64(2*d.Rows*d.Cols), "flop")
	add("nn.gemv_bytes", float64(4*(d.PadRows*d.Cols+d.Cols+2*d.PadRows)), "B")
	add("nn.gemm8_ns", perCall(func() { nn.GemmColF32(d.WT, d.PadRows, d.Cols, x, d.Cols, d.BiasPad, y, d.PadRows, lanes) }), "ns")
	add("nn.gemm8_flop", float64(lanes*2*d.Rows*d.Cols), "flop")
	add("nn.gemm8_bytes", float64(4*(d.PadRows*d.Cols+lanes*d.Cols+d.PadRows+lanes*d.PadRows)), "B")

	h := make([]float32, H)
	fill(h)
	ac := float32(cfg.AC)
	add("nn.modulate_ns", perCall(func() { nn.ModulateF32(h, ac, rng) }), "ns")
	// Per element: |x| and a sum in the mean pass, the scaled noise and
	// its |x| sum in the second, one rescale multiply in the third.
	add("nn.modulate_flop", float64(9*H), "flop")
	add("nn.modulate_bytes", float64(8*H), "B")

	// Repeated in place, the gates settle near sigmoid's fixed point,
	// far from the saturation rails.
	g := make([]float32, 3*H)
	fill(g)
	add("nn.sigmoid_ns", perCall(func() { nn.SigmoidVecF32(g) }), "ns")
	add("nn.sigmoid_flop", float64(3*H), "flop") // one sigmoid evaluation per element
	add("nn.sigmoid_bytes", float64(8*3*H), "B")
}

// perCall is the median over 31 batches of the time per call of fn, with
// batches of about 100 µs so timer resolution does not matter.
func perCall(fn func()) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t) > 100*time.Microsecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, 31)
	for b := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
