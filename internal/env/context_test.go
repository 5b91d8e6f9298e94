package env

import (
	"math"
	"math/rand"
	"testing"

	"gendt/internal/geo"
)

// contextOracle is the reference ContextAt: every raster centre and every
// PoI is tested with math.Hypot(dx, dy) <= radius.
func contextOracle(m *Map, p geo.Point, radius float64) []float64 {
	out := make([]float64, NumAttributes)
	x0, y0 := m.proj.ToXY(p)
	count := 0
	for gy := 0; gy < m.n; gy++ {
		for gx := 0; gx < m.n; gx++ {
			cx := -m.extentM + (float64(gx)+0.5)*m.cellM
			cy := -m.extentM + (float64(gy)+0.5)*m.cellM
			if math.Hypot(cx-x0, cy-y0) <= radius {
				out[m.landUse[gy*m.n+gx]]++
				count++
			}
		}
	}
	if count > 0 {
		for i := 0; i < NumLandUse; i++ {
			out[i] /= float64(count)
		}
	}
	for _, bucket := range m.poiGrid {
		for _, q := range bucket {
			if math.Hypot(q.x-x0, q.y-y0) <= radius {
				out[NumLandUse+int(q.kind)]++
			}
		}
	}
	return out
}

func checkContext(t *testing.T, m *Map, p geo.Point, radius float64) {
	t.Helper()
	got, want := m.ContextAt(p, radius), contextOracle(m, p, radius)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ContextAt(%v, %v)[%s] = %v, oracle %v", p, radius, AttributeNames[i], got[i], want[i])
		}
	}
}

func TestContextAtMatchesOracle(t *testing.T) {
	m := newTestMap()
	pr := geo.NewProjection(origin)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := pr.FromXY((rng.Float64()-0.5)*14000, (rng.Float64()-0.5)*14000)
		checkContext(t, m, p, 100+rng.Float64()*1500)
	}
	checkContext(t, m, geo.Point{Lat: math.NaN(), Lon: origin.Lon}, 500)
	checkContext(t, m, origin, 0)
	checkContext(t, m, origin, 1e12)
}

// TestContextAtBoundary places raster centres and PoIs exactly at the
// radius and one ulp either side of it, where a squared-distance shortcut
// would round the wrong way if its band were too narrow.
func TestContextAtBoundary(t *testing.T) {
	m := newTestMap()
	// Raster: radii that put one centre exactly at r and at r ± 1 ulp.
	cx := -m.extentM + (float64(m.n/2+3)+0.5)*m.cellM
	cy := -m.extentM + (float64(m.n/2+2)+0.5)*m.cellM
	r0 := math.Hypot(cx, cy)
	for _, r := range []float64{r0, math.Nextafter(r0, 0), math.Nextafter(r0, math.Inf(1))} {
		checkContext(t, m, origin, r)
	}

	// PoIs: for radius r, offsets whose Hypot is r and r ± 1 ulp, in many
	// directions.
	const r = 500.0
	at := map[float64]int{}
	for i := 0; i < 360; i++ {
		th := float64(i) * math.Pi / 180
		dx, dy := r*math.Cos(th), r*math.Sin(th)
		for _, target := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
			x := dx
			for step := 0; step < 64 && math.Hypot(x, dy) != target; step++ {
				if math.Hypot(x, dy) < target == (x >= 0) {
					x = math.Nextafter(x, math.Inf(1))
				} else {
					x = math.Nextafter(x, math.Inf(-1))
				}
			}
			if h := math.Hypot(x, dy); h == target {
				m.addPoI(poi{x, dy, uint8(i % NumPoI)})
				at[h]++
			}
		}
	}
	for _, h := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
		if at[h] == 0 {
			t.Fatalf("no PoI placed at distance %v", h)
		}
	}
	for _, rr := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
		checkContext(t, m, origin, rr)
	}
}
