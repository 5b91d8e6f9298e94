package core

import (
	"testing"

	"gendt/internal/dataset"
)

// truncSeq returns a prefix view of seq (shared backing — read-only use).
func truncSeq(seq *Sequence, n int) *Sequence {
	if n > seq.Len() {
		n = seq.Len()
	}
	return &Sequence{
		KPIs: seq.KPIs[:n], Cells: seq.Cells[:n], Env: seq.Env[:n],
		Interval: seq.Interval,
	}
}

// TestBatchedGenerateJobsBitIdentical is the lockstep engine's contract:
// batched GenerateJobs and per-job direct GenerateSeeded must be
// byte-equal across mixed sequence lengths (ragged lane retirement),
// chunk boundaries (more jobs than batchLanes), and worker fan-out widths.
func TestBatchedGenerateJobsBitIdentical(t *testing.T) {
	m, seq := freezeFixture(t)
	// Mixed lengths exercise window-level retirement (length differences
	// spanning BatchLen windows) and per-timestep prefix shrink.
	L := m.Cfg.BatchLen
	seqs := []*Sequence{
		seq,
		truncSeq(seq, seq.Len()-1),
		truncSeq(seq, L+1),
		truncSeq(seq, L),
		truncSeq(seq, L-1),
		truncSeq(seq, 1),
	}
	var jobs []GenJob
	for i := 0; i < 11; i++ { // > batchLanes, non-multiple: ragged chunk
		jobs = append(jobs, GenJob{Seq: seqs[i%len(seqs)], Seed: DeriveSeed(99, i)})
	}
	im, err := m.Freeze(PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	batched := im.WithWorkers(1).GenerateJobs(jobs)
	for i, job := range jobs {
		direct := im.DenormalizeSeries(im.GenerateSeeded(job.Seq, job.Seed))
		if !series2Equal(batched[i], direct) {
			t.Fatalf("job %d (T=%d): batched vs direct GenerateSeeded differ", i, job.Seq.Len())
		}
	}
	parallel := im.WithWorkers(3).GenerateJobs(jobs)
	for i := range jobs {
		if !series2Equal(batched[i], parallel[i]) {
			t.Fatalf("job %d: Workers=1 vs Workers=3 differ", i)
		}
	}
	// Repeat on the same engine pool: state reuse must not leak.
	again := im.WithWorkers(1).GenerateJobs(jobs)
	for i := range jobs {
		if !series2Equal(batched[i], again[i]) {
			t.Fatalf("job %d: repeat on pooled engine differs", i)
		}
	}
}

// TestBatchedGenerateJobsAblations covers the engine under the NoSRNN
// (no stochastic modulation) and NoResGen (no residual head) ablations,
// whose code paths skip whole draw phases.
func TestBatchedGenerateJobsAblations(t *testing.T) {
	for _, ablate := range []string{"nosrnn", "noresgen"} {
		t.Run(ablate, func(t *testing.T) {
			d := dataset.NewDatasetA(tinyData)
			chans := RSRPRSRQChannels()
			cfg := tinyConfig(chans)
			switch ablate {
			case "nosrnn":
				cfg.NoSRNN = true
			case "noresgen":
				cfg.NoResGen = true
			}
			m := NewModel(cfg)
			train := PrepareAll(d.TrainRuns(), chans, m.Cfg.MaxCells)
			m.Train(train, nil)
			seq := PrepareAll(d.TestRuns(), chans, m.Cfg.MaxCells)[0]
			im, err := m.Freeze(PrecisionF32)
			if err != nil {
				t.Fatal(err)
			}
			jobs := []GenJob{
				{Seq: seq, Seed: 3},
				{Seq: truncSeq(seq, seq.Len()/2), Seed: 4},
				{Seq: seq, Seed: 5},
			}
			batched := im.WithWorkers(1).GenerateJobs(jobs)
			for i, job := range jobs {
				direct := im.DenormalizeSeries(im.GenerateSeeded(job.Seq, job.Seed))
				if !series2Equal(batched[i], direct) {
					t.Fatalf("%s: job %d: batched vs direct differ", ablate, i)
				}
			}
		})
	}
}
