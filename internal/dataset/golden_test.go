package dataset

import (
	"errors"
	"math"
	"os"
	"testing"

	"gendt/internal/scenario"
)

// Committed fingerprints of Dataset A and B at Seed=42, Scale=0.05,
// recorded from the hard-coded constructors that scenarios/dataset-a.toml
// and dataset-b.toml replaced. If these change, dataset synthesis is no
// longer reproducing the bytes every committed golden and trained model
// was built against.
const (
	goldenFingerprintA = 0x7d285f8fc7615375
	goldenFingerprintB = 0x3785e9e56fd8c985
)

// goldenFingerprintLong pins LongComplexRun at Seed=42, Scale=0.05: the
// fingerprint of a one-run dataset holding only the long run, on
// Dataset B's world.
const goldenFingerprintLong uint64 = 0xff5c55a0b7495bc6

// Full-scale (Scale=1.0, Seed=42) fingerprints of A and B, checked only by
// the env-gated TestScenarioGoldenBitIdentityFullScale.
const (
	goldenFingerprintAFull = 0xe507ead5aa6fec47
	goldenFingerprintBFull = 0x1076d73180bd18
)

// TestScenarioGoldenBitIdentity proves the DSL-compiled datasets still
// produce the committed bytes: same cells, same trajectories, same
// measurements, bit for bit.
func TestScenarioGoldenBitIdentity(t *testing.T) {
	spec := Spec{Seed: 42, Scale: 0.05}
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"A", goldenFingerprintA},
		{"B", goldenFingerprintB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := scenario.Lookup(tc.name)
			if !ok {
				t.Fatalf("scenario %q not registered", tc.name)
			}
			built, err := FromScenario(sc, spec)
			if err != nil {
				t.Fatalf("FromScenario(%q): %v", tc.name, err)
			}
			if got := built.Fingerprint(); got != tc.want {
				t.Errorf("DSL-compiled fingerprint = %#x, committed golden %#x", got, tc.want)
			}
		})
	}
}

// TestScenarioGoldenBitIdentityFullScale repeats the identity check at
// Scale=1.0 — the paper-sized datasets. Building A and B at full scale
// takes tens of seconds, so the test only runs when asked:
// GENDT_FULL_SCALE_GOLDEN=1 go test ./internal/dataset -run FullScale
func TestScenarioGoldenBitIdentityFullScale(t *testing.T) {
	if os.Getenv("GENDT_FULL_SCALE_GOLDEN") == "" {
		t.Skip("set GENDT_FULL_SCALE_GOLDEN=1 to run the full-scale identity check")
	}
	spec := Spec{Seed: 42, Scale: 1.0}
	for name, want := range map[string]uint64{"A": goldenFingerprintAFull, "B": goldenFingerprintBFull} {
		sc, _ := scenario.Lookup(name)
		built, err := FromScenario(sc, spec)
		if err != nil {
			t.Fatalf("FromScenario(%q): %v", name, err)
		}
		if got := built.Fingerprint(); got != want {
			t.Errorf("%s: full-scale DSL fingerprint %#x, committed golden %#x", name, got, want)
		}
	}
}

// TestLongComplexRunGolden pins the §6.1.3 long trajectory and its
// measurements bit for bit.
func TestLongComplexRunGolden(t *testing.T) {
	spec := Spec{Seed: 42, Scale: 0.05}
	d := NewDatasetB(spec)
	one := &Dataset{Name: d.Name, World: d.World, Runs: []Run{LongComplexRun(d, spec)}}
	if got := one.Fingerprint(); got != goldenFingerprintLong {
		t.Errorf("LongComplexRun fingerprint = %#x, committed golden %#x", got, goldenFingerprintLong)
	}
}

// TestNonFiniteScaleRejected: a NaN or infinite Scale must come back as an
// error wrapping scenario.ErrNonFinite from every world-building entry
// point, never as a panic deep in route synthesis.
func TestNonFiniteScaleRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			spec := Spec{Seed: 1, Scale: tc.scale}
			if _, err := NewByName("A", spec); !errors.Is(err, scenario.ErrNonFinite) {
				t.Errorf("NewByName: err = %v, want scenario.ErrNonFinite", err)
			}
			sc, _ := scenario.Lookup("NR5G")
			if _, err := FromScenario(sc, spec); !errors.Is(err, scenario.ErrNonFinite) {
				t.Errorf("FromScenario: err = %v, want scenario.ErrNonFinite", err)
			}
		})
	}
}
