// Command gendt-rollout promotes a candidate model across a gendt fleet
// one replica at a time, gated by the statistical validation suite, with
// automatic rollback on any failure.
//
// The fleet shares one serving path: every replica's -model flag points at
// -model-path, and the rollout atomically replaces that file with
// -candidate before walking the replicas. Per replica it drains it out of
// the LB's ring, drives /admin/reload, confirms the weight fingerprint on
// /v1/models, runs the remote statistical gate (distributional tolerances
// from -golden plus metamorphic invariants, over the replica's live
// /v1/generate path), readmits it, and watches an error-budget window
// against the LB's pre-rollout /debug/vars baseline. Any failure restores
// the previous file fleet-wide and exits non-zero; the LB's /debug/vars
// rollout block carries the progress and, after a halt, the reason.
//
// Usage:
//
//	gendt-rollout -lb http://127.0.0.1:18080 -admin-token SECRET \
//	    -replicas http://127.0.0.1:18081,http://127.0.0.1:18082 \
//	    -model-path /srv/model.json -candidate /srv/candidate.json \
//	    -golden validate/golden/gate-a.json \
//	    [-dataset A] [-scale F] [-seed N] [-routes N] [-samples N]
//	    [-max-route-len N] [-model NAME] [-backup PATH] [-skip-gate]
//	    [-budget-window D] [-err-budget F] [-p99-factor F]
//	    [-min-window-requests N] [-drain-timeout D]
//
// Exit status: 0 fleet promoted; 1 rollout halted and rolled back; 2 usage
// or setup error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/rollout"
	"gendt/internal/validate"
)

func main() {
	lbURL := flag.String("lb", "", "balancer base URL (required)")
	token := flag.String("admin-token", "", "LB admin bearer token (required)")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs in promotion order (required)")
	modelPath := flag.String("model-path", "", "shared serving path the replicas load from (required)")
	candidate := flag.String("candidate", "", "candidate model file to promote (required)")
	backup := flag.String("backup", "", "rollback copy of the current model (default <model-path>.prev)")
	modelName := flag.String("model", "", "registered model name on the replicas (empty = single-model default)")

	golden := flag.String("golden", "", "golden tolerance file for the statistical gate")
	which := flag.String("dataset", "A", "registered scenario name (A, B, NR5G, Tunnel, Suburb, ...); must match the fleet's world")
	scale := flag.Float64("scale", 0.05, "dataset scale (must match the fleet's world)")
	seed := flag.Int64("seed", 1, "validation seed for the gate")
	routes := flag.Int("routes", 4, "held-out routes for the gate's distributional pass")
	samples := flag.Int("samples", 2, "generation samples per route")
	maxRouteLen := flag.Int("max-route-len", 150, "truncate held-out routes to N samples (negative = full)")
	skipGate := flag.Bool("skip-gate", false, "skip the per-replica statistical gate (fingerprint check still runs)")

	budgetWindow := flag.Duration("budget-window", rollout.DefaultBudgetWindow, "post-readmit observation window per replica (negative disables)")
	errBudget := flag.Float64("err-budget", rollout.DefaultErrBudget, "absolute error-rate headroom over the pre-rollout baseline")
	p99Factor := flag.Float64("p99-factor", rollout.DefaultP99Factor, "window p99 cap as a multiple of the baseline p99")
	minWindowReqs := flag.Int64("min-window-requests", rollout.DefaultMinWindowRequests, "windows smaller than this trivially pass")
	drainTimeout := flag.Duration("drain-timeout", rollout.DefaultDrainTimeout, "max wait for a replica's in-flight requests to drain")
	flag.Parse()

	fail := func(msg string) {
		fmt.Fprintln(os.Stderr, "gendt-rollout:", msg)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *lbURL == "":
		fail("-lb is required")
	case *token == "":
		fail("-admin-token is required")
	case *replicas == "":
		fail("-replicas is required")
	case *modelPath == "":
		fail("-model-path is required")
	case *candidate == "":
		fail("-candidate is required")
	}

	var reps []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimRight(strings.TrimSpace(r), "/"); r != "" {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		fail("-replicas named no replicas")
	}

	// The candidate must load before anything is touched: a corrupt file
	// that cannot even parse should fail here, not mid-fleet. Its
	// fingerprint becomes the post-reload check.
	m, err := core.LoadFile(*candidate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-rollout: candidate:", err)
		os.Exit(2)
	}

	opt := rollout.Options{
		LB:                strings.TrimRight(*lbURL, "/"),
		AdminToken:        *token,
		Replicas:          reps,
		ModelPath:         *modelPath,
		Candidate:         *candidate,
		Backup:            *backup,
		Model:             *modelName,
		WantFingerprint:   fmt.Sprintf("%016x", m.Fingerprint()),
		BudgetWindow:      *budgetWindow,
		ErrBudget:         *errBudget,
		P99Factor:         *p99Factor,
		MinWindowRequests: *minWindowReqs,
		DrainTimeout:      *drainTimeout,
		Logf:              func(f string, a ...any) { fmt.Printf(f+"\n", a...) },
	}

	if !*skipGate {
		ds, err := dataset.NewByName(strings.ToUpper(*which), dataset.Spec{Seed: *seed, Scale: *scale})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gendt-rollout:", err)
			os.Exit(2)
		}
		gateOpts := validate.Options{
			Dataset: ds, Routes: *routes, SamplesPerRoute: *samples,
			MaxRouteLen: *maxRouteLen, Seed: *seed,
		}
		if *golden != "" {
			gateOpts.Golden, err = validate.LoadGolden(*golden)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gendt-rollout:", err)
				os.Exit(2)
			}
		}
		opt.Gate = func(ctx context.Context, replica string) error {
			rep, err := validate.RunRemote(m, validate.RemoteOptions{
				Target: replica, Model: *modelName,
			}, gateOpts)
			if err != nil {
				return err
			}
			if fails := rep.Failures(); len(fails) > 0 {
				names := make([]string, len(fails))
				for i, c := range fails {
					names[i] = c.Name
				}
				return fmt.Errorf("%d checks failed: %s", len(fails), strings.Join(names, ", "))
			}
			return nil
		}
	}

	c, err := rollout.New(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendt-rollout:", err)
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	start := time.Now()
	if err := c.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "gendt-rollout:", err)
		os.Exit(1)
	}
	fmt.Printf("gendt-rollout: fleet promoted in %s\n", time.Since(start).Round(time.Millisecond))
}
