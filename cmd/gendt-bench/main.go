// Command gendt-bench replays a deterministic trajectory-request trace
// open-loop against the GenDT serving tier (a gendt-lb front or a bare
// gendt-serve replica) and reports tail latency, error/shed breakdowns, and
// achieved-vs-offered throughput as machine-readable JSON. A sweep mode
// walks an RPS ladder to locate the saturation knee; a verify mode asserts
// per-seed responses are bit-identical through two endpoints (LB vs direct
// replica).
//
// The trace is synthesized from the resident dataset world with a seeded
// RNG, so -dataset/-scale/-seed must match the serving fleet's flags.
//
// Usage:
//
//	gendt-bench -target http://127.0.0.1:8080 [-dataset A] [-scale 0.05]
//	            [-seed 1] [-model NAME] [-routes 8] [-steps 120]
//	            [-samples 1] [-trace-seed 1]
//	            [-rps 20] [-duration 10s] [-warmup 2s]
//	            [-arrival poisson|fixed] [-timeout 30s]
//	            [-sweep 10,20,40,80] [-name lb-2x] [-out report.json]
//	            [-max-error-rate 0.01]
//	            [-verify-against http://127.0.0.1:8081 -verify-n 4]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"gendt/internal/loadgen"
)

func main() {
	target := flag.String("target", "", "base URL under test (required)")
	which := flag.String("dataset", "A", "registered scenario name (A, B, NR5G, Tunnel, Suburb, ...); must match the serving fleet")
	scale := flag.Float64("scale", 0.05, "dataset scale (must match the serving fleet)")
	seed := flag.Int64("seed", 1, "dataset seed (must match the serving fleet)")
	model := flag.String("model", "", "model name in the fleet registry (empty = single-model default)")
	routes := flag.Int("routes", 8, "distinct routes in the trace")
	steps := flag.Int("steps", 120, "samples per route (0 = full trajectories)")
	samples := flag.Int("samples", 1, "generation fan-out per request")
	traceSeed := flag.Int64("trace-seed", 1, "seed for route selection, request seeds, and Poisson arrivals")
	rps := flag.Float64("rps", 20, "offered request rate")
	duration := flag.Duration("duration", 10*time.Second, "arrival window per rate")
	warmup := flag.Duration("warmup", 2*time.Second, "initial span excluded from statistics")
	arrival := flag.String("arrival", loadgen.ArrivalPoisson, "arrival process: poisson or fixed")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	sweep := flag.String("sweep", "", "comma-separated RPS ladder (overrides -rps; locates the saturation knee)")
	name := flag.String("name", "", "report name (the BENCH_serve.json entry key)")
	out := flag.String("out", "", "write the JSON report here (empty = stdout)")
	maxErrorRate := flag.Float64("max-error-rate", -1, "exit non-zero when the measured error rate exceeds this (-1 disables)")
	verifyAgainst := flag.String("verify-against", "", "second endpoint: assert bit-identical per-seed responses vs -target, then exit")
	verifyN := flag.Int("verify-n", 4, "routes to verify in -verify-against mode")
	flag.Parse()

	logger := log.New(os.Stderr, "gendt-bench: ", log.LstdFlags)
	if *target == "" {
		logger.Fatal("-target is required")
	}

	spec := loadgen.TraceSpec{
		Dataset: *which, Scale: *scale, Seed: *seed,
		Routes: *routes, Steps: *steps, Model: *model,
		Samples: *samples, RNGSeed: *traceSeed,
	}
	logger.Printf("synthesizing trace: dataset %s scale %g seed %d, %d routes x %d steps",
		*which, *scale, *seed, *routes, *steps)
	trace, err := loadgen.BuildTrace(spec)
	if err != nil {
		logger.Fatal(err)
	}

	if *verifyAgainst != "" {
		logger.Printf("verifying bit-identity: %s vs %s (%d routes)", *target, *verifyAgainst, *verifyN)
		if err := loadgen.Verify(*target, *verifyAgainst, trace, *verifyN, *timeout); err != nil {
			logger.Fatal(err)
		}
		fmt.Println("verify: bit-identical")
		return
	}

	cfg := loadgen.RunConfig{
		Target: *target, RPS: *rps, Duration: *duration, Warmup: *warmup,
		Arrival: *arrival, Timeout: *timeout, Name: *name,
	}

	var doc any
	exitErr := false
	if *sweep != "" {
		rates, err := parseRates(*sweep)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("sweeping %v rps, %s per rate", rates, *duration)
		sw, err := loadgen.Sweep(cfg, trace, rates)
		if err != nil {
			logger.Fatal(err)
		}
		for _, rep := range sw.Reports {
			logReport(logger, rep)
		}
		if sw.Saturation.Found {
			logger.Printf("saturation knee at %g rps (%s); max good rate %g rps",
				sw.Saturation.KneeRPS, sw.Saturation.Reason, sw.Saturation.MaxGoodRPS)
		} else {
			logger.Printf("no saturation up to %g rps", rates[len(rates)-1])
		}
		doc = sw
	} else {
		logger.Printf("replaying %s for %s at %g rps (%s arrivals)", *target, *duration, *rps, *arrival)
		rep, err := loadgen.Run(cfg, trace)
		if err != nil {
			logger.Fatal(err)
		}
		logReport(logger, rep)
		if *maxErrorRate >= 0 && rep.ErrorRate > *maxErrorRate {
			logger.Printf("FAIL: error rate %.4f exceeds -max-error-rate %.4f", rep.ErrorRate, *maxErrorRate)
			exitErr = true
		}
		doc = rep
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		logger.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		logger.Fatal(err)
	}
	if exitErr {
		os.Exit(1)
	}
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad sweep rate %q", part)
		}
		rates = append(rates, v)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("empty -sweep")
	}
	return rates, nil
}

func logReport(logger *log.Logger, rep loadgen.Report) {
	logger.Printf("rps %g: sent %d measured %d ok %d err %d (%.2f%%) achieved %.1f rps | p50 %.1fms p99 %.1fms p999 %.1fms | reasons %v",
		rep.OfferedRPS, rep.Sent, rep.Measured, rep.Succeeded, rep.Errors,
		100*rep.ErrorRate, rep.AchievedRPS,
		rep.LatencyMs.P50, rep.LatencyMs.P99, rep.LatencyMs.P999, rep.Reasons)
	if h := rep.BatchSizeHist; h != nil {
		logger.Printf("rps %g: batch sizes: %d batches, mean %.2f req/batch | le %s",
			rep.OfferedRPS, h.Count, h.Mean, fmtBuckets(h.Buckets))
	}
}

// fmtBuckets renders le-bucket counts in ascending bound order ("+Inf"
// last), e.g. "1:12 2:3 8:1".
func fmtBuckets(buckets map[string]int64) string {
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		vi, erri := strconv.ParseInt(keys[i], 10, 64)
		vj, errj := strconv.ParseInt(keys[j], 10, 64)
		if (erri == nil) != (errj == nil) {
			return erri == nil // numeric bounds before "+Inf"
		}
		if erri != nil {
			return keys[i] < keys[j]
		}
		return vi < vj
	})
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, buckets[k]))
	}
	return strings.Join(parts, " ")
}
