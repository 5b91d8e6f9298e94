// Package core implements GenDT (paper §4): a conditional deep generative
// model that synthesizes multivariate radio-KPI time series for a
// drive-test trajectory, conditioned on dynamic network context (the
// visible-cell set) and environment context. The generator has three
// components — a GNN-node LSTM shared across visible cells, an aggregation
// LSTM over the mean node embedding, and the autoregressive ResGen Gaussian
// residual network — trained with an MSE plus adversarial loss against a
// single-layer LSTM discriminator, at the level of (optionally overlapping)
// batches of a fixed length L.
package core

import (
	"math"
	"runtime"

	"gendt/internal/dataset"
	"gendt/internal/env"
	"gendt/internal/radio"
	"gendt/internal/sim"
)

// ChannelSpec defines one generated KPI channel: how to extract its
// physical value from a measurement and the range used to normalize it to
// [0, 1] for the networks.
type ChannelSpec struct {
	Name    string
	Extract func(m *sim.Measurement) float64
	Lo, Hi  float64
}

// Normalize maps a physical value to [0,1].
func (c ChannelSpec) Normalize(v float64) float64 {
	x := (v - c.Lo) / (c.Hi - c.Lo)
	return math.Max(0, math.Min(1, x))
}

// Denormalize maps a [0,1] network value back to physical units.
func (c ChannelSpec) Denormalize(v float64) float64 {
	return c.Lo + math.Max(0, math.Min(1, v))*(c.Hi-c.Lo)
}

// KPIChannel returns the ChannelSpec for one of the core radio KPIs.
func KPIChannel(kpi int) ChannelSpec {
	lo, hi := radio.KPIRange(kpi)
	k := kpi
	return ChannelSpec{
		Name:    radio.KPINames[kpi],
		Extract: func(m *sim.Measurement) float64 { return m.KPI(k) },
		Lo:      lo, Hi: hi,
	}
}

// StandardChannels returns the paper's four target KPIs
// (RSRP, RSRQ, SINR, CQI) for Dataset A.
func StandardChannels() []ChannelSpec {
	return []ChannelSpec{
		KPIChannel(radio.KPIRSRP),
		KPIChannel(radio.KPIRSRQ),
		KPIChannel(radio.KPISINR),
		KPIChannel(radio.KPICQI),
	}
}

// RSRPRSRQChannels returns the two KPIs available in Dataset B.
func RSRPRSRQChannels() []ChannelSpec {
	return []ChannelSpec{
		KPIChannel(radio.KPIRSRP),
		KPIChannel(radio.KPIRSRQ),
	}
}

// MaxServingRank is the highest distance-rank the serving-cell channel can
// express; visible cells beyond this rank are clamped. Measured serving
// ranks fall at or below 16 about 97% of the time (sectorization, per-cell
// power diversity, and shadowing frequently make a non-nearest cell the
// serving one — the paper's §3 observation).
const MaxServingRank = 16

// ServingRankChannel encodes the serving cell as its rank in the
// distance-sorted visible-cell list — the additional channel used for the
// handover use case (paper §6.3.2). Rank encoding keeps the channel
// bounded and location-independent; generated ranks are snapped back to
// cell ids against the trajectory's visible sets.
func ServingRankChannel() ChannelSpec {
	return ChannelSpec{
		Name: "ServingRank",
		Extract: func(m *sim.Measurement) float64 {
			for i, v := range m.Visible {
				if v.Cell.ID == m.ServingCell {
					if i > MaxServingRank {
						return MaxServingRank
					}
					return float64(i)
				}
			}
			return 0
		},
		Lo: 0, Hi: MaxServingRank,
	}
}

// NumCellAttrs is N_c: attributes per visible cell in the network context
// (paper §4.2: [lat, lon, p_max, direction, distance_t], expressed here as
// device-relative offsets so the model generalizes across regions).
const NumCellAttrs = 5

// Sequence is a prepared training/generation sequence: per timestep the
// normalized target KPIs, the per-visible-cell network-context vectors, and
// the environment context.
type Sequence struct {
	KPIs     [][]float64   // [T][Nch] normalized targets
	Cells    [][][]float64 // [T][nVisible][NumCellAttrs]
	Env      [][]float64   // [T][env.NumAttributes] normalized
	Raw      []sim.Measurement
	Interval float64
}

// Len returns the sequence length T.
func (s *Sequence) Len() int { return len(s.KPIs) }

// normalization scales for cell attributes.
const cellOffsetScaleM = 5000 // device-to-cell offsets normalized by 5 km

// PrepareOptions controls sequence preparation.
type PrepareOptions struct {
	// MaxCells caps the visible-cell set at the nearest MaxCells cells
	// (the paper caps compute by choosing d_s conservatively; we
	// additionally bound the node count). 0 means no cap.
	MaxCells int
	// LoadAware appends each visible cell's instantaneous traffic load as
	// a sixth context attribute — the closed-loop extension of §7.2, for
	// operators who can feed network-side load into the model.
	LoadAware bool
}

// PrepareSequence converts a measurement run into model-ready tensors with
// the nearest maxCells visible cells per step.
func PrepareSequence(run dataset.Run, chans []ChannelSpec, maxCells int) *Sequence {
	return PrepareSequenceWith(run, chans, PrepareOptions{MaxCells: maxCells})
}

// PrepareSequenceWith converts a measurement run into model-ready tensors.
func PrepareSequenceWith(run dataset.Run, chans []ChannelSpec, opt PrepareOptions) *Sequence {
	T := len(run.Meas)
	s := &Sequence{
		KPIs:     make([][]float64, T),
		Cells:    make([][][]float64, T),
		Env:      make([][]float64, T),
		Raw:      run.Meas,
		Interval: run.Traj.TimeGranularity(),
	}
	for t := 0; t < T; t++ {
		m := &run.Meas[t]
		k := make([]float64, len(chans))
		for ci, ch := range chans {
			k[ci] = ch.Normalize(ch.Extract(m))
		}
		s.KPIs[t] = k

		n := len(m.Visible)
		if opt.MaxCells > 0 && n > opt.MaxCells {
			n = opt.MaxCells // Visible is distance-sorted; keep the nearest
		}
		cc := make([][]float64, n)
		for i := 0; i < n; i++ {
			attrs := CellAttrs(m, i)
			if opt.LoadAware {
				load := 0.0
				if i < len(m.VisibleLoad) {
					load = m.VisibleLoad[i]
				}
				attrs = append(attrs, load)
			}
			cc[i] = attrs
		}
		s.Cells[t] = cc
		s.Env[t] = NormalizeEnv(m.EnvCtx)
	}
	return s
}

// CellAttrs builds the normalized N_c-vector for the i-th visible cell of a
// measurement. The paper's raw attributes are [lat, lon, p_max, direction,
// distance_t]; we apply the "customized data processing" the paper alludes
// to (§4.2) and express them in a physically aligned form the networks can
// exploit: device-relative offsets (≈lat/lon), normalized power, the
// cosine of the angle between the sector boresight and the device bearing
// (≈direction, and linear in antenna-gain dB), and log-distance (linear in
// pathloss dB).
func CellAttrs(m *sim.Measurement, i int) []float64 {
	v := m.Visible[i]
	// The model sees the *reported* (CellMapper-style, possibly inexact)
	// site location and power — true positions drive only the physics.
	site := v.Cell.ReportedSite()
	// Planar offsets from device to cell site via small-angle approximation.
	dNorth := (site.Lat - m.Loc.Lat) * 111320
	dEast := (site.Lon - m.Loc.Lon) * 111320 * math.Cos(m.Loc.Lat*math.Pi/180)
	// Bearing from the cell toward the device, relative to the sector
	// boresight: cos(Δ)=1 on boresight, -1 directly behind.
	brgToDevice := math.Atan2(-dEast, -dNorth) * 180 / math.Pi // cell->device, deg from north
	delta := (brgToDevice - v.Cell.Azimuth) * math.Pi / 180
	// Log-distance (from the reported position): 0 at 10 m, ~1 at 10 km.
	d := math.Max(math.Hypot(dNorth, dEast), 10)
	logDist := math.Log10(d/10) / 3
	return []float64{
		dNorth / cellOffsetScaleM,
		dEast / cellOffsetScaleM,
		(v.Cell.ReportedPower() - 30) / 20,
		math.Cos(delta),
		logDist,
	}
}

// NormalizeEnv scales the raw 26-attribute environment context: land-use
// shares are already in [0,1]; PoI counts are squashed by count/(count+10).
func NormalizeEnv(raw []float64) []float64 {
	out := make([]float64, len(raw))
	for i, v := range raw {
		if i < env.NumLandUse {
			out[i] = v
		} else {
			out[i] = v / (v + 10)
		}
	}
	return out
}

// PrepareAll prepares several runs at once. Preparation is pure per-run
// work, so the runs are distributed over up to runtime.NumCPU() goroutines;
// the result order matches the input order.
func PrepareAll(runs []dataset.Run, chans []ChannelSpec, maxCells int) []*Sequence {
	out := make([]*Sequence, len(runs))
	forEach(len(runs), runtime.NumCPU(), func(i int) {
		out[i] = PrepareSequence(runs[i], chans, maxCells)
	})
	return out
}

// RawCellAttrs builds the un-engineered N_c-vector for the i-th visible
// cell: [north offset, east offset, p_max, azimuth/360, linear distance] —
// the paper's raw context attributes as a baseline without GenDT's
// customized data processing would consume them (§4.2 lists the tailored
// processing as part of the GenDT approach, so the baselines of §5.2 get
// the raw form).
func RawCellAttrs(m *sim.Measurement, i int) []float64 {
	v := m.Visible[i]
	site := v.Cell.ReportedSite()
	dNorth := (site.Lat - m.Loc.Lat) * 111320
	dEast := (site.Lon - m.Loc.Lon) * 111320 * math.Cos(m.Loc.Lat*math.Pi/180)
	return []float64{
		dNorth / cellOffsetScaleM,
		dEast / cellOffsetScaleM,
		(v.Cell.ReportedPower() - 30) / 20,
		v.Cell.Azimuth / 360,
		math.Hypot(dNorth, dEast) / 4000,
	}
}
