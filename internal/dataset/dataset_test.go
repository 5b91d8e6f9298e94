package dataset

import (
	"math"
	"testing"
	"time"

	"gendt/internal/env"
	"gendt/internal/radio"
	"gendt/internal/sim"
)

// smallSpec keeps test datasets fast to build.
var smallSpec = Spec{Seed: 1, Scale: 0.02}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"A", "a", "B", "b"} {
		d, err := NewByName(name, smallSpec)
		if err != nil {
			t.Fatalf("NewByName(%q): %v", name, err)
		}
		if d.World == nil || len(d.Runs) == 0 {
			t.Fatalf("NewByName(%q) returned empty dataset", name)
		}
	}
	if _, err := NewByName("C", smallSpec); err == nil {
		t.Fatal("unknown dataset name must error")
	}
}

func TestDatasetAScenarios(t *testing.T) {
	d := NewDatasetA(smallSpec)
	scens := d.Scenarios()
	want := []string{ScenarioWalk, ScenarioBus, ScenarioTram}
	if len(scens) != len(want) {
		t.Fatalf("scenarios = %v, want %v", scens, want)
	}
	for i := range want {
		if scens[i] != want[i] {
			t.Fatalf("scenarios = %v, want %v", scens, want)
		}
	}
}

func TestDatasetATrainTestSplitGeographicallyDisjoint(t *testing.T) {
	d := NewDatasetA(smallSpec)
	train, test := d.TrainRuns(), d.TestRuns()
	if len(train) == 0 || len(test) == 0 {
		t.Fatalf("split produced %d train / %d test runs", len(train), len(test))
	}
	// Every test run should keep a nonzero minimum distance from every
	// train run (the paper avoids geographic proximity between splits).
	for _, te := range test {
		for _, tr := range train {
			if d := te.Traj.MinDistanceTo(tr.Traj); d < 100 {
				t.Errorf("test run (%s) within %v m of a train run (%s)", te.Scenario, d, tr.Scenario)
			}
		}
	}
}

func TestDatasetAStatsPlausible(t *testing.T) {
	d := NewDatasetA(Spec{Seed: 2, Scale: 0.05})
	st := d.ScenarioStats(ScenarioWalk)
	if st.TimeGranularity != 1 {
		t.Errorf("walk granularity = %v, want 1 s", st.TimeGranularity)
	}
	if st.AvgVelocity < 0.8 || st.AvgVelocity > 2.2 {
		t.Errorf("walk velocity = %v m/s", st.AvgVelocity)
	}
	if st.AvgRSRP > -60 || st.AvgRSRP < -110 {
		t.Errorf("walk avg RSRP = %v dBm, implausible", st.AvgRSRP)
	}
	if st.StdRSRP < 2 || st.StdRSRP > 18 {
		t.Errorf("walk std RSRP = %v dB, implausible", st.StdRSRP)
	}
	if st.Samples == 0 {
		t.Error("no samples")
	}
	tram := d.ScenarioStats(ScenarioTram)
	if tram.AvgVelocity <= st.AvgVelocity {
		t.Errorf("tram velocity %v should exceed walk %v", tram.AvgVelocity, st.AvgVelocity)
	}
}

func TestDatasetBScenariosAndGranularity(t *testing.T) {
	d := NewDatasetB(smallSpec)
	if got := len(d.Scenarios()); got != 4 {
		t.Fatalf("Dataset B has %d scenarios, want 4", got)
	}
	hw := d.ScenarioStats(ScenarioHighway1)
	cc := d.ScenarioStats(ScenarioCity1)
	if hw.TimeGranularity >= cc.TimeGranularity {
		t.Errorf("highway granularity %v should be finer than city %v", hw.TimeGranularity, cc.TimeGranularity)
	}
	if hw.AvgVelocity < 18 {
		t.Errorf("highway velocity = %v m/s, want >= 18", hw.AvgVelocity)
	}
	if cc.AvgVelocity > 18 {
		t.Errorf("city velocity = %v m/s, want < 18", cc.AvgVelocity)
	}
}

func TestDatasetBHighwayDwellShorter(t *testing.T) {
	d := NewDatasetB(Spec{Seed: 3, Scale: 0.05})
	hw := d.ScenarioStats(ScenarioHighway2)
	if hw.AvgServingDwell <= 0 {
		t.Skip("no handovers in scaled-down run")
	}
	if hw.AvgServingDwell > 600 {
		t.Errorf("highway serving dwell = %v s, implausibly long", hw.AvgServingDwell)
	}
}

func TestLongComplexRunSpansUnseenCities(t *testing.T) {
	spec := Spec{Seed: 4, Scale: 0.1}
	d := NewDatasetB(spec)
	long := LongComplexRun(d, spec)
	if long.Train {
		t.Error("long run must be test data")
	}
	if len(long.Meas) != len(long.Traj) {
		t.Fatalf("measurements %d != trajectory samples %d", len(long.Meas), len(long.Traj))
	}
	// The long trajectory must stay away from all training runs.
	for _, tr := range d.TrainRuns() {
		if dist := long.Traj.MinDistanceTo(tr.Traj); dist < 2000 {
			t.Errorf("long trajectory within %v m of training run %s", dist, tr.Scenario)
		}
	}
	// It should be mostly in coverage.
	covered := 0
	for _, m := range long.Meas {
		if m.ServingCell >= 0 && m.RSRP > radio.RSRPMin {
			covered++
		}
	}
	if frac := float64(covered) / float64(len(long.Meas)); frac < 0.9 {
		t.Errorf("long trajectory only %v covered", frac)
	}
}

func TestPartitionDisjointAndComplete(t *testing.T) {
	d := NewDatasetA(smallSpec)
	train := d.TrainRuns()
	parts := Partition(train, 5)
	if len(parts) != 5 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	for _, p := range parts {
		for _, r := range p {
			total += len(r.Meas)
		}
	}
	want := 0
	for _, r := range train {
		want += len(r.Meas)
	}
	if total != want {
		t.Errorf("partition covers %d samples, want %d", total, want)
	}
	// Chunks from the same run must not overlap in time.
	for pi, p := range parts {
		for pj := pi + 1; pj < len(parts); pj++ {
			for _, a := range p {
				for _, b := range parts[pj] {
					if a.Scenario == b.Scenario && len(a.Traj) > 0 && len(b.Traj) > 0 {
						aLo, aHi := a.Traj[0].T, a.Traj[len(a.Traj)-1].T
						bLo, bHi := b.Traj[0].T, b.Traj[len(b.Traj)-1].T
						if aLo < bHi && bLo < aHi && sameRun(a, b) {
							t.Fatalf("parts %d and %d overlap in time", pi, pj)
						}
					}
				}
			}
		}
	}
}

// sameRun approximates identity of origin run via first-point equality of
// the parent trajectory; with chunked slices the underlying arrays differ,
// so compare scenario + overlap instead.
func sameRun(a, b Run) bool { return a.Scenario == b.Scenario && a.Train == b.Train }

func TestStatsStringNonEmpty(t *testing.T) {
	d := NewDatasetA(smallSpec)
	if s := d.ScenarioStats(ScenarioBus).String(); len(s) == 0 {
		t.Error("empty stats string")
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a := NewDatasetA(Spec{Seed: 5, Scale: 0.02})
	b := NewDatasetA(Spec{Seed: 5, Scale: 0.02})
	sa := sim.Series(a.Runs[0].Meas, radio.KPIRSRP)
	sb := sim.Series(b.Runs[0].Meas, radio.KPIRSRP)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed produced different data at %d", i)
		}
	}
}

func TestScenarioMeansNearPaper(t *testing.T) {
	// Shape check against paper Tables 1-2: RSRP means in the -80s dBm,
	// RSRQ in the -8..-15 dB band.
	d := NewDatasetA(Spec{Seed: 6, Scale: 0.05})
	for _, s := range d.Scenarios() {
		st := d.ScenarioStats(s)
		if st.AvgRSRP < -100 || st.AvgRSRP > -70 {
			t.Errorf("%s avg RSRP = %v, outside plausible band", s, st.AvgRSRP)
		}
		if st.AvgRSRQ < -19 || st.AvgRSRQ > -3 {
			t.Errorf("%s avg RSRQ = %v, outside plausible band", s, st.AvgRSRQ)
		}
		if math.IsNaN(st.StdRSRQ) {
			t.Errorf("%s std RSRQ is NaN", s)
		}
	}
}

func TestWithExtraCellsAndNewSiteAt(t *testing.T) {
	d := NewDatasetA(smallSpec)
	before := len(d.World.Deployment.Cells)
	spot := d.Runs[0].Traj.Centroid()
	extra := NewSiteAt(spot, 100000, 3, 43)
	if len(extra) != 3 {
		t.Fatalf("NewSiteAt produced %d cells", len(extra))
	}
	w := d.WithExtraCells(extra)
	if got := len(w.Deployment.Cells); got != before+3 {
		t.Fatalf("augmented deployment has %d cells, want %d", got, before+3)
	}
	// Original world unchanged.
	if len(d.World.Deployment.Cells) != before {
		t.Fatal("WithExtraCells mutated the original deployment")
	}
	// The new site is visible near the spot.
	found := false
	for _, v := range w.Deployment.Visible(spot, 500) {
		if v.Cell.ID >= 100000 {
			found = true
		}
	}
	if !found {
		t.Error("new site not visible at its own location")
	}
}

// TestHugeRadiusQueriesBounded: a huge visibility or environment radius
// costs no more than a scan of the occupied index, not one proportional
// to r², and the visible set is then every cell, in distance order.
func TestHugeRadiusQueriesBounded(t *testing.T) {
	d := NewDatasetA(Spec{Seed: 1, Scale: 0.05})
	w := d.World
	loc := d.Runs[0].Traj[0].Point
	start := time.Now()
	vis := w.Deployment.Visible(loc, 1e12)
	ctx := w.Env.ContextAt(loc, 1e7)
	if el := time.Since(start); el > time.Second {
		t.Errorf("huge-radius queries took %v", el)
	}
	if len(vis) != len(w.Deployment.Cells) || len(vis) != 855 {
		t.Fatalf("Visible(ds=1e12) returned %d of %d cells, want all 855", len(vis), len(w.Deployment.Cells))
	}
	for i := 1; i < len(vis); i++ {
		a, b := vis[i-1], vis[i]
		if a.Distance > b.Distance || (a.Distance == b.Distance && a.Cell.ID >= b.Cell.ID) {
			t.Fatalf("entries %d and %d out of order: %v/%d then %v/%d", i-1, i, a.Distance, a.Cell.ID, b.Distance, b.Cell.ID)
		}
	}
	share, pois := 0.0, 0.0
	for i, v := range ctx {
		if i < env.NumLandUse {
			share += v
		} else {
			pois += v
		}
	}
	if math.Abs(share-1) > 1e-9 || pois == 0 {
		t.Errorf("ContextAt(r=1e7): land-use shares sum to %v, %v PoIs", share, pois)
	}
}
