package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gendt/internal/dataset"
)

// freezeFixture trains a tiny model and prepares one held-out sequence.
func freezeFixture(t *testing.T) (*Model, *Sequence) {
	t.Helper()
	d := dataset.NewDatasetA(tinyData)
	chans := RSRPRSRQChannels()
	m := NewModel(tinyConfig(chans))
	train := PrepareAll(d.TrainRuns(), chans, m.Cfg.MaxCells)
	m.Train(train, nil)
	seq := PrepareAll(d.TestRuns(), chans, m.Cfg.MaxCells)[0]
	return m, seq
}

func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{
		"": PrecisionF64, "f64": PrecisionF64, "f32": PrecisionF32,
	} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePrecision("bf16"); err == nil {
		t.Error("ParsePrecision must reject unknown precisions")
	}
}

func TestFreezeRejectsF64(t *testing.T) {
	m, _ := freezeFixture(t)
	if _, err := m.Freeze(PrecisionF64); err == nil {
		t.Error("Freeze(f64) must fail: f64 is the live model")
	}
	if _, err := m.Freeze(Precision("x")); err == nil {
		t.Error("Freeze must reject unknown precisions")
	}
}

// TestFrozenDeterministicPerPrecision is the per-precision seed-determinism
// contract: repeated generations with the same (seq, seed) are bit-exact
// on the same frozen backend, including across pooled-state reuse and
// GenerateJobs concurrency.
func TestFrozenDeterministicPerPrecision(t *testing.T) {
	m, seq := freezeFixture(t)
	im, err := m.Freeze(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	a := im.GenerateSeeded(seq, 42)
	b := im.GenerateSeeded(seq, 42)
	if !series2Equal(a, b) {
		t.Fatalf("repeated GenerateSeeded not bit-exact")
	}
	jobs := []GenJob{{Seq: seq, Seed: 42}, {Seq: seq, Seed: 7}, {Seq: seq, Seed: 42}}
	serial := im.WithWorkers(1).GenerateJobs(jobs)
	par := im.WithWorkers(3).GenerateJobs(jobs)
	for i := range jobs {
		if !series2Equal(serial[i], par[i]) {
			t.Fatalf("job %d differs between Workers=1 and Workers=3", i)
		}
	}
	if !series2Equal(serial[0], serial[2]) {
		t.Fatalf("same-seed jobs differ")
	}
	direct := im.DenormalizeSeries(im.GenerateSeeded(seq, 42))
	if !series2Equal(serial[0], direct) {
		t.Fatalf("GenerateJobs vs direct GenerateSeeded differ")
	}
}

// TestFrozenCloseToF64 bounds the frozen backend's drift from the live
// model. The paths draw identical RNG schedules, so with the same seed the
// series differ only by arithmetic precision: f32 stays within a few ulps
// compounded over the recurrence. This is a sanity bound — the real
// faithfulness gate is gendt-validate's distributional suite, which CI
// runs against the frozen backend.
func TestFrozenCloseToF64(t *testing.T) {
	m, seq := freezeFixture(t)
	ref := m.GenerateSeeded(seq, 9)
	im, err := m.Freeze(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	got := im.GenerateSeeded(seq, 9)
	if len(got) != len(ref) {
		t.Fatalf("length %d vs %d", len(got), len(ref))
	}
	var sum float64
	var n int
	for t2 := range ref {
		for c := range ref[t2] {
			sum += math.Abs(got[t2][c] - ref[t2][c])
			n++
		}
	}
	// The recurrent nets are chaotic-ish: tiny rounding differences
	// compound across steps, so the bound is loose but still far tighter
	// than the [0,1] output range.
	if mean := sum / float64(n); mean > 0.15 {
		t.Errorf("mean |frozen - f64| = %.4f, want <= 0.15", mean)
	}
}

// TestFrozenMatchesConfigShape checks the frozen metadata mirrors the
// source model.
func TestFrozenMatchesConfigShape(t *testing.T) {
	m, _ := freezeFixture(t)
	im, err := m.Freeze(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	if im.Precision() != PrecisionF32 {
		t.Errorf("Precision() = %v", im.Precision())
	}
	if im.ParamCount() != m.ParamCount() {
		t.Errorf("ParamCount %d vs %d", im.ParamCount(), m.ParamCount())
	}
	if im.Fingerprint() != m.Fingerprint() {
		t.Errorf("Fingerprint mismatch")
	}
	if im.ModelConfig().Precision != PrecisionF32 {
		t.Errorf("frozen config precision = %q", im.ModelConfig().Precision)
	}
	if got := im.ModelConfig().Channels; len(got) != len(m.Cfg.Channels) {
		t.Errorf("channels %d vs %d", len(got), len(m.Cfg.Channels))
	}
}

// TestPrecisionPersistRoundTrip: a model saved with a preferred serving
// precision loads with it intact, and corrupt values are rejected.
func TestPrecisionPersistRoundTrip(t *testing.T) {
	m, _ := freezeFixture(t)
	m.Cfg.Precision = PrecisionF32
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg.Precision != PrecisionF32 {
		t.Errorf("loaded precision = %q, want f32", loaded.Cfg.Precision)
	}

	data := bytes.ReplaceAll(saved, []byte(`"precision":"f32"`), []byte(`"precision":"zzz"`))
	if bytes.Equal(data, saved) {
		t.Fatal("snapshot layout changed; precision field not found")
	}
	// The checksum trailer covers the payload, so recompute via a fresh
	// save path: corrupting the field invalidates the checksum anyway,
	// which is itself a pass (the file is rejected).
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt precision must not load")
	}
}

// TestLoadRejectsInt8Precision: the int8 backend is gone, so a model file
// that still asks for it fails to load through ParsePrecision's error
// (checksum intact), and the flag parser refuses the value too.
func TestLoadRejectsInt8Precision(t *testing.T) {
	if _, err := ParsePrecision("int8"); err == nil {
		t.Error(`ParsePrecision("int8") must fail`)
	}
	m, _ := freezeFixture(t)
	m.Cfg.Precision = Precision("int8")
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"precision":"int8"`)) {
		t.Fatal("snapshot layout changed; precision field not found")
	}
	_, err := Load(&buf)
	if err == nil {
		t.Fatal(`Load of a "precision":"int8" model must fail`)
	}
	if msg := err.Error(); !strings.Contains(msg, `unknown precision "int8" (want f64, f32)`) {
		t.Errorf("Load error = %q, want the ParsePrecision error listing f64, f32", msg)
	}
}

// series2Equal is bit-exact equality for [T][nch] or [nch][T] series.
func series2Equal(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
