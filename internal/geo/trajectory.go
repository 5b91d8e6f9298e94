package geo

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sample is one timestamped position along a trajectory.
type Sample struct {
	Point
	T float64 // seconds
}

// Trajectory is a timestamped sequence of device locations — the paper's
// notion of a drive-test trajectory (a sequence of (location, timestamp)
// tuples; mobility is implicit in the spacing).
type Trajectory []Sample

// Duration returns the time span covered by the trajectory in seconds.
func (tr Trajectory) Duration() float64 {
	if len(tr) < 2 {
		return 0
	}
	return tr[len(tr)-1].T - tr[0].T
}

// Length returns the total path length in metres.
func (tr Trajectory) Length() float64 {
	total := 0.0
	for i := 1; i < len(tr); i++ {
		total += Distance(tr[i-1].Point, tr[i].Point)
	}
	return total
}

// AvgSpeed returns the mean speed in m/s, or 0 for degenerate trajectories.
func (tr Trajectory) AvgSpeed() float64 {
	d := tr.Duration()
	if d <= 0 {
		return 0
	}
	return tr.Length() / d
}

// TimeGranularity returns the median inter-sample interval in seconds.
func (tr Trajectory) TimeGranularity() float64 {
	if len(tr) < 2 {
		return 0
	}
	gaps := make([]float64, 0, len(tr)-1)
	for i := 1; i < len(tr); i++ {
		gaps = append(gaps, tr[i].T-tr[i-1].T)
	}
	sort.Float64s(gaps)
	return gaps[len(gaps)/2]
}

// At returns the interpolated position at time t, clamping to the endpoints
// outside the trajectory's span.
func (tr Trajectory) At(t float64) Point {
	if len(tr) == 0 {
		return Point{}
	}
	if t <= tr[0].T {
		return tr[0].Point
	}
	last := tr[len(tr)-1]
	if t >= last.T {
		return last.Point
	}
	i := sort.Search(len(tr), func(i int) bool { return tr[i].T >= t })
	a, b := tr[i-1], tr[i]
	if b.T == a.T {
		return a.Point
	}
	f := (t - a.T) / (b.T - a.T)
	return Point{
		Lat: a.Lat + f*(b.Lat-a.Lat),
		Lon: a.Lon + f*(b.Lon-a.Lon),
	}
}

// Points returns the trajectory's locations in order.
func (tr Trajectory) Points() []Point {
	out := make([]Point, len(tr))
	for i, s := range tr {
		out[i] = s.Point
	}
	return out
}

// Resample returns a new trajectory sampled at a fixed interval (seconds)
// over the original time span, interpolating positions linearly.
func (tr Trajectory) Resample(interval float64) (Trajectory, error) {
	if interval <= 0 {
		return nil, errors.New("geo: resample interval must be positive")
	}
	if len(tr) < 2 {
		return nil, fmt.Errorf("geo: cannot resample trajectory of %d samples", len(tr))
	}
	out := Trajectory{}
	for t := tr[0].T; t <= tr[len(tr)-1].T+1e-9; t += interval {
		out = append(out, Sample{Point: tr.At(t), T: t})
	}
	return out, nil
}

// Slice returns the sub-trajectory covering [t0, t1] (inclusive of samples
// whose timestamps fall in that range).
func (tr Trajectory) Slice(t0, t1 float64) Trajectory {
	out := Trajectory{}
	for _, s := range tr {
		if s.T >= t0 && s.T <= t1 {
			out = append(out, s)
		}
	}
	return out
}

// Concat joins trajectories end to end, shifting each subsequent
// trajectory's timestamps so that it starts gap seconds after the previous
// one ends. Positions are not modified.
func Concat(gap float64, trs ...Trajectory) Trajectory {
	out := Trajectory{}
	offset := 0.0
	for _, tr := range trs {
		if len(tr) == 0 {
			continue
		}
		base := tr[0].T
		for _, s := range tr {
			out = append(out, Sample{Point: s.Point, T: offset + (s.T - base)})
		}
		offset = out[len(out)-1].T + gap
	}
	return out
}

// BoundingBox returns the min/max corners of the trajectory's extent.
func (tr Trajectory) BoundingBox() (min, max Point) {
	if len(tr) == 0 {
		return Point{}, Point{}
	}
	min = Point{Lat: math.Inf(1), Lon: math.Inf(1)}
	max = Point{Lat: math.Inf(-1), Lon: math.Inf(-1)}
	for _, s := range tr {
		min.Lat = math.Min(min.Lat, s.Lat)
		min.Lon = math.Min(min.Lon, s.Lon)
		max.Lat = math.Max(max.Lat, s.Lat)
		max.Lon = math.Max(max.Lon, s.Lon)
	}
	return min, max
}

// Centroid returns the arithmetic mean position of the trajectory samples.
func (tr Trajectory) Centroid() Point {
	if len(tr) == 0 {
		return Point{}
	}
	var lat, lon float64
	for _, s := range tr {
		lat += s.Lat
		lon += s.Lon
	}
	n := float64(len(tr))
	return Point{Lat: lat / n, Lon: lon / n}
}

// MinDistanceTo returns the minimum haversine distance in metres from any
// sample of tr to any sample of other. It is used to enforce geographic
// separation between train and test splits.
func (tr Trajectory) MinDistanceTo(other Trajectory) float64 {
	best := math.Inf(1)
	for _, a := range tr {
		for _, b := range other {
			if d := Distance(a.Point, b.Point); d < best {
				best = d
			}
		}
	}
	return best
}
