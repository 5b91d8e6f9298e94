package cells

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gendt/internal/geo"
)

// visibleOracle is the reference visibility query: a scan over every cell,
// projecting each site afresh, then sort.Slice by (distance, cell ID).
// A point with a non-finite planar coordinate sees no cells.
func visibleOracle(d *Deployment, loc geo.Point, ds float64) []VisibleCell {
	x, y := d.proj.ToXY(loc)
	if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
		return nil
	}
	var out []VisibleCell
	for i := range d.Cells {
		c := &d.Cells[i]
		cx, cy := d.proj.ToXY(c.Site)
		if dist := math.Hypot(cx-x, cy-y); dist <= ds {
			out = append(out, VisibleCell{Cell: c, Distance: dist})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Cell.ID < out[j].Cell.ID
	})
	return out
}

// checkAlong compares VisibleAlong element for element, distance bits
// included, against the oracle at every point of the path.
func checkAlong(t *testing.T, d *Deployment, pts []geo.Point, ds float64) {
	t.Helper()
	got := d.VisibleAlong(pts, ds)
	if len(got) != len(pts) {
		t.Fatalf("VisibleAlong returned %d slices for %d points", len(got), len(pts))
	}
	for i, p := range pts {
		want := visibleOracle(d, p, ds)
		if (got[i] == nil) != (want == nil) || len(got[i]) != len(want) {
			t.Fatalf("point %d %v ds=%v: got %d cells (nil=%v), oracle %d (nil=%v)",
				i, p, ds, len(got[i]), got[i] == nil, len(want), want == nil)
		}
		for j := range want {
			g, w := got[i][j], want[j]
			if g.Cell != w.Cell || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
				t.Fatalf("point %d %v ds=%v, entry %d: got cell %d at %v, oracle cell %d at %v",
					i, p, ds, j, g.Cell.ID, g.Distance, w.Cell.ID, w.Distance)
			}
		}
		if cap(got[i]) != len(got[i]) {
			t.Fatalf("point %d: slice cap %d exceeds len %d", i, cap(got[i]), len(got[i]))
		}
	}
}

func TestVisibleAlongMatchesOracle(t *testing.T) {
	d := testDeployment(t, 4)
	pr := geo.NewProjection(origin)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		// A walk of small steps with occasional jumps well beyond segRadius.
		x, y := (rng.Float64()-0.5)*12000, (rng.Float64()-0.5)*12000
		pts := make([]geo.Point, 60)
		for i := range pts {
			step := 15.0
			if rng.Intn(10) == 0 {
				step = 900
			}
			x += (rng.Float64()*2 - 1) * step
			y += (rng.Float64()*2 - 1) * step
			pts[i] = pr.FromXY(x, y)
		}
		checkAlong(t, d, pts, 500+rng.Float64()*3000)
	}
}

func TestVisibleAlongEdgeCases(t *testing.T) {
	d := testDeployment(t, 4)
	nan := geo.Point{Lat: math.NaN(), Lon: origin.Lon}
	near := geo.Offset(origin, 90, 100)
	cases := []struct {
		name string
		pts  []geo.Point
		ds   float64
	}{
		{"empty path", nil, 2000},
		{"one point", []geo.Point{origin}, 2000},
		{"NaN point keeps no stale candidates", []geo.Point{origin, nan, geo.Offset(origin, 0, 5000), near}, 2000},
		{"NaN first", []geo.Point{nan, origin}, 2000},
		{"infinite point", []geo.Point{origin, {Lat: math.Inf(1), Lon: 0}, origin}, 2000},
		{"outside deployment", []geo.Point{geo.Offset(origin, 0, 100000), geo.Offset(origin, 0, 100100)}, 2000},
		{"far side of the globe", []geo.Point{{Lat: -51.5, Lon: -172.54}}, 2000},
		{"zero radius on a site", []geo.Point{d.Cells[0].Site, d.Cells[0].Site}, 0},
		{"negative radius", []geo.Point{origin}, -1},
		{"NaN radius", []geo.Point{origin}, math.NaN()},
		{"huge radius", []geo.Point{origin, near}, 1e12},
		{"infinite radius", []geo.Point{origin, near}, math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkAlong(t, d, tc.pts, tc.ds) })
	}
}

func TestVisibleAlongAppendDoesNotClobber(t *testing.T) {
	d := testDeployment(t, 4)
	pts := []geo.Point{origin, geo.Offset(origin, 90, 10)}
	got := d.VisibleAlong(pts, 2000)
	next := append([]VisibleCell(nil), got[1]...)
	_ = append(got[0], VisibleCell{})
	for j := range next {
		if got[1][j] != next[j] {
			t.Fatalf("append to point 0's slice overwrote point 1's entry %d", j)
		}
	}
}

// FuzzVisibleAlong checks the path query against the per-point oracle on
// fuzzed walks: any start (inside the deployment or far outside it), step
// sizes below and above segRadius, an optional NaN point and any radius.
func FuzzVisibleAlong(f *testing.F) {
	f.Add(0.0, 0.0, 20.0, uint8(40), int8(-1), 2000.0, int64(1))
	f.Add(3000.0, -2000.0, 400.0, uint8(10), int8(3), 2500.0, int64(2))
	f.Add(0.0, 0.0, 0.0, uint8(0), int8(-1), 2000.0, int64(3))
	f.Add(-4000.0, 4000.0, 30.0, uint8(1), int8(0), 1e-9, int64(4))
	f.Add(2e6, 2e6, 5000.0, uint8(5), int8(-1), 1e15, int64(5))
	f.Add(100.0, 100.0, 260.0, uint8(30), int8(12), 0.0, int64(6))
	d := testDeployment(f, 4)
	pr := geo.NewProjection(origin)
	f.Fuzz(func(t *testing.T, x, y, step float64, n uint8, nanAt int8, ds float64, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geo.Point, int(n)%80)
		for i := range pts {
			x += (rng.Float64()*2 - 1) * step
			y += (rng.Float64()*2 - 1) * step
			pts[i] = pr.FromXY(x, y)
		}
		if int(nanAt) >= 0 && int(nanAt) < len(pts) {
			pts[nanAt].Lon = math.NaN()
		}
		checkAlong(t, d, pts, ds)
	})
}
