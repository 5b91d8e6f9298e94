// Command servebench is the GenDT serving benchmark. In one process it
// builds dataset A, trains and freezes an f32 model, starts gendt-lb in
// front of two gendt-serve replicas on loopback TCP, drives one workload
// through the balancer, checks every response, and prints one JSON result
// line last on standard output.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash servebench/run.sh -workload hot-routes|new-routes|envelope \
//	    -seed N -seconds S -trace 0|1
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a separate traced run. A full report and,
// on traced runs, the spans are written under -out-dir. The command exits
// non-zero when any output fails the correctness gate.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gendt/internal/lb"
	"gendt/internal/serve"
)

// Run shape. The measured time is split into rounds of a closed window
// followed by a paced window, so both phases sample the same stretch of
// machine noise.
const (
	setupReps   = 3 // set-up is repeated and reported as a median
	rounds      = 10
	closedShare = 0.5 // of the measured seconds; the paced windows get the rest
	warmup      = 2 * time.Second
	probes      = 4
	watchdog    = 170 * time.Second
)

// endToEnd and perLayer name the metrics the result line carries on
// untraced and traced runs; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"capacity_rps", "cpu_ms_per_req", "success_share", "rss_mb", "setup_s"}
	perLayer = []string{
		"lb.self_p50_ms", "lb.retries", "lb.sheds", "lb.max_replica_share",
		"serve.handler_p50_ms", "serve.nongen_p50_ms", "serve.queue_wait_p50_ms",
		"serve.prep_hit_ratio", "serve.batch_requests_mean",
		"core.generate_p50_ms", "core.jobs_per_call_mean", "core.ns_per_step", "core.busy_share", "core.prepare_seq_ms",
		"sim.annotate_ms", "cells.visible_us", "env.context_us",
		"nn.gemv_ns", "nn.gemv_flop", "nn.gemv_bytes", "nn.gemm8_ns", "nn.gemm8_flop", "nn.gemm8_bytes",
		"nn.modulate_ns", "nn.modulate_flop", "nn.modulate_bytes", "nn.sigmoid_ns", "nn.sigmoid_flop", "nn.sigmoid_bytes",
		"runtime.alloc_bytes_per_req", "runtime.gc_cpu_share", "runtime.peak_rss_mb",
		"setup.world_s", "setup.train_s", "setup.freeze_s", "setup.fleet_s",
		"client.paced_p50_ms", "client.paced_p90_ms", "client.sched_lag_p90_ms", "client.conn_wait_p90_ms", "client.closed_n", "client.paced_n", "client.error_rate", "client.cpu_steal_share",
		"workload.distinct_routes",
		"trace.unexplained_share", "trace.overhead_share",
	}
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes a value JSON cannot hold, such as a percentile that
// reached a failed request, as a string.
func (m metric) MarshalJSON() ([]byte, error) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return json.Marshal(struct {
			Value string `json:"value"`
			Unit  string `json:"unit"`
		}{strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit})
	}
	type plain metric
	return json.Marshal(plain(m))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"` // of the measured tree's .go, .toml and go.mod files
}

type settings struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       int     `json:"seconds"`
	Trace         bool    `json:"trace"`
	SetupReps     int     `json:"setup_reps"`
	Rounds        int     `json:"rounds"`
	WarmupS       float64 `json:"warmup_s"`
	ClosedS       float64 `json:"closed_s_per_round"`
	PacedS        float64 `json:"paced_s_per_round"`
	Rate          float64 `json:"paced_rate_rps"`
	Samples       int     `json:"samples"`
	Conns         int     `json:"conns"`
	Replicas      int     `json:"replicas"`
	BatchWindowMs float64 `json:"batch_window_ms"`
	MaxBatch      int     `json:"max_batch"`
	World         string  `json:"world"`
	Model         string  `json:"model"`
	Why           string  `json:"why"`
	Exercises     string  `json:"exercises"`
	Bypasses      string  `json:"bypasses"`
}

// report is everything one run measured; it is written as JSON under
// the output directory.
type report struct {
	Machine  machine           `json:"machine"`
	Settings settings          `json:"settings"`
	Failures []string          `json:"failures,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Windows  windowStats       `json:"windows"`
	Result   result            `json:"result"`
}

// windowStats are the per-window values behind the capacity, CPU and
// paced-latency metrics, with the share of CPU time the hypervisor took
// from the machine in each window.
type windowStats struct {
	ClosedRPS   []float64 `json:"closed_rps"`
	ClosedSteal []float64 `json:"closed_steal_share"`
	ClosedCPU   []float64 `json:"closed_cpu_ms_per_req"`
	PacedP50    []float64 `json:"paced_p50_ms"`
	PacedP90    []float64 `json:"paced_p90_ms"`
	PacedSteal  []float64 `json:"paced_steal_share"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: hot-routes, new-routes or envelope")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: routes and request seeds derive from it")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds, split over the closed and paced windows")
	traceFlag := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	flag.StringVar(&o.outDir, "out-dir", ".bench_build/servebench", "directory for the report and span files")
	flag.Parse()
	if _, err := workloadByName(o.workload); err != nil || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: servebench -workload NAME -seed N -seconds S (>=1) -trace 0|1:", err)
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "servebench: still running after %s, giving up\n", watchdog)
		os.Exit(3)
	})

	rep, err := run(o)
	if err == nil {
		err = rep.write(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// counters are the fleet's own cumulative counters, read around the
// measured windows.
type counters struct {
	prepHits, prepMisses, batches, samples int64
	retries, sheds                         int64
	perReplica                             map[string]int64
}

func (f *fleet) counters() counters {
	c := counters{perReplica: map[string]int64{}}
	for _, s := range f.servers {
		m := s.Metrics()
		c.prepHits += m.PrepHits.Load()
		c.prepMisses += m.PrepMisses.Load()
		c.batches += m.Batches.Load()
		c.samples += m.GenerateSamples.Load()
	}
	snap := f.bal.Snapshot()
	c.retries, c.sheds = snap.Retries, snap.Sheds
	for name, r := range snap.Replicas {
		c.perReplica[name] = r.Requests
	}
	return c
}

// runtimeSample holds the allocation and CPU-class counters of
// runtime/metrics. They cover the whole process, load generator included.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func run(o options) (*report, error) {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	closedD := time.Duration(float64(o.seconds) * closedShare / rounds * float64(time.Second))
	pacedD := time.Duration(float64(o.seconds) * (1 - closedShare) / rounds * float64(time.Second))
	cfg := trainConfig()
	rep := &report{
		Machine: describeMachine(),
		Settings: settings{
			Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			SetupReps: setupReps, Rounds: rounds, WarmupS: warmup.Seconds(),
			ClosedS: closedD.Seconds(), PacedS: pacedD.Seconds(), Rate: wl.rate, Samples: wl.samples,
			Conns: conns, Replicas: replicas, BatchWindowMs: ms(batchWindow), MaxBatch: serve.DefaultMaxBatch,
			World: fmt.Sprintf("dataset %s seed %d scale %g", worldName, worldSeed, worldScale),
			Model: fmt.Sprintf("f32 frozen; hidden %d, batch %d, step %d, maxcells %d, %d epochs, %d workers, %d channels",
				cfg.Hidden, cfg.BatchLen, cfg.StepLen, cfg.MaxCells, cfg.Epochs, cfg.Workers, len(cfg.Channels)),
			Why: wl.why, Exercises: wl.exercises, Bypasses: wl.bypasses,
		},
		Metrics: map[string]metric{},
	}
	add := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	gate := func(format string, args ...any) { rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...)) }

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up, repeated; the last fleet serves the load. Training is
	// deterministic, so every set-up must produce the same weights.
	var f *fleet
	var setups []setupTimes
	for i := 0; i < setupReps; i++ {
		var prev uint64
		if f != nil {
			prev = f.fp
			f.close()
			// The extra set-ups exist only to time set-up; return their
			// memory so the peak resident set covers one set-up and the
			// serving.
			debug.FreeOSMemory()
		}
		nf, st, err := setup(tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if f != nil && nf.fp != prev {
			gate("training is not deterministic: weight fingerprint %016x after %016x", nf.fp, prev)
		}
		f = nf
		setups = append(setups, st)
	}
	defer f.close()
	stage := func(name string, pick func(setupTimes) time.Duration) {
		v := make([]float64, len(setups))
		for i, st := range setups {
			v[i] = pick(st).Seconds()
		}
		add(name, median(v), "s")
	}
	stage("setup_s", setupTimes.total)
	stage("setup.world_s", func(s setupTimes) time.Duration { return s.World })
	stage("setup.train_s", func(s setupTimes) time.Duration { return s.Train })
	stage("setup.freeze_s", func(s setupTimes) time.Duration { return s.Freeze })
	stage("setup.fleet_s", func(s setupTimes) time.Duration { return s.Fleet })

	s, err := newStream(wl, o.seed, f.ds, f.owner)
	if err != nil {
		return nil, err
	}
	c := newClient(f.lbURL, f.model.ModelConfig().Channels, tr)
	defer c.hc.CloseIdleConnections()
	var nextIndex atomic.Int64
	next := func() request { return s.request(nextIndex.Add(1) - 1) }

	// Warm-up: every fixed route once, so each later request hits the
	// prepared-sequence cache, then closed-loop load.
	warm := c.closed(warmup, next).Out
	for k := range s.fixed {
		r := s.warm(k)
		_, out := c.post(c.url, r, r.body())
		warm = append(warm, out)
	}
	for _, out := range warm {
		if out.Bad {
			gate("warm-up: %s", out.Err)
		}
	}

	rss := startRSS()
	// Measured rounds. On traced runs each closed window is split into an
	// untraced and a traced half: their capacity ratio is the tracing
	// overhead, and allocation per request comes from the untraced halves.
	before := f.counters()
	var closedW, untracedW, pacedW []window
	var allocBytes float64
	rt0 := readRuntime()
	for r := 0; r < rounds; r++ {
		if tr != nil {
			a := readRuntime()
			untracedW = append(untracedW, c.closed(closedD/2, next))
			b := readRuntime()
			allocBytes += b.allocBytes - a.allocBytes
			tr.on.Store(true)
			closedW = append(closedW, c.closed(closedD/2, next))
		} else {
			closedW = append(closedW, c.closed(closedD, next))
		}
		pacedW = append(pacedW, c.paced(pacedD, wl.rate, next))
		if tr != nil {
			tr.on.Store(false)
		}
	}
	after := f.counters()
	rt1 := readRuntime()
	rssMB, err := rss.finish()
	if err != nil {
		return nil, err
	}

	// Correctness and the error share over both measured phases.
	attempted, failed := 0, 0
	routes := map[uint64]bool{}
	var closedN, pacedN int
	count := func(ws []window, n *int) {
		for _, w := range ws {
			for _, out := range w.Out {
				attempted++
				*n++
				routes[out.Key] = true
				if !out.OK {
					failed++
					if len(rep.Failures) < 20 {
						gate("request seed %d: %s", out.Seed, out.Err)
					}
				}
			}
		}
	}
	count(closedW, &closedN)
	count(untracedW, &closedN)
	count(pacedW, &pacedN)
	measuredFailed := failed

	for k := 0; k < probes; k++ {
		attempted++
		if err := probe(f, c, s.probe(k)); err != nil {
			failed++
			gate("probe %d: %v", k, err)
		}
	}

	// End-to-end metrics. Traced runs compute them too, for the report,
	// but only untraced runs put them on the result line.
	e2eClosed := closedW
	if tr != nil {
		e2eClosed = untracedW
	}
	add("capacity_rps", capacity(e2eClosed), "req/s")
	var cpu float64
	for _, w := range e2eClosed {
		cpu += w.CPU
	}
	add("cpu_ms_per_req", 1e3*cpu/float64(okCount(e2eClosed)), "ms")
	// Paced latency is pooled over all the paced windows, so its p90 rests
	// on a few dozen requests beyond it even at envelope's rate. It is
	// reported but not gated: see the README for why.
	var all, p50s, p90s, lag, wait []float64
	for _, w := range pacedW {
		lat := latencies(w)
		all = append(all, lat...)
		for _, out := range w.Out {
			lag = append(lag, ms(out.Queued.Sub(out.Due)))
			wait = append(wait, ms(out.Sent.Sub(out.Queued)))
		}
		p50s = append(p50s, percentile(lat, 0.50))
		p90s = append(p90s, percentile(lat, 0.90))
		rep.Windows.PacedSteal = append(rep.Windows.PacedSteal, w.Steal)
	}
	rep.Windows.PacedP50, rep.Windows.PacedP90 = p50s, p90s
	for _, w := range e2eClosed {
		rep.Windows.ClosedRPS = append(rep.Windows.ClosedRPS, float64(w.ok())/w.seconds())
		rep.Windows.ClosedSteal = append(rep.Windows.ClosedSteal, w.Steal)
		rep.Windows.ClosedCPU = append(rep.Windows.ClosedCPU, 1e3*w.CPU/float64(w.ok()))
	}
	add("client.paced_p50_ms", percentile(all, 0.50), "ms")
	add("client.paced_p90_ms", percentile(all, 0.90), "ms")
	add("success_share", 1-ratio(float64(measuredFailed), float64(closedN+pacedN)), "share")
	add("rss_mb", median(rssMB), "MB")
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	add("runtime.peak_rss_mb", peak, "MB")

	// Per-layer metrics the fleet's own counters give on every run,
	// including the workload-property shares.
	hits := float64(after.prepHits - before.prepHits)
	misses := float64(after.prepMisses - before.prepMisses)
	batches := float64(after.batches - before.batches)
	add("serve.prep_hit_ratio", ratio(hits, hits+misses), "share")
	add("serve.batch_requests_mean", ratio(hits+misses, batches), "count")
	add("core.jobs_per_call_mean", ratio(float64(after.samples-before.samples), batches), "count")
	add("workload.distinct_routes", float64(len(routes)), "count")
	add("lb.retries", float64(after.retries-before.retries), "count")
	add("lb.sheds", float64(after.sheds-before.sheds), "count")
	var most, total float64
	for name, n := range after.perReplica {
		d := float64(n - before.perReplica[name])
		total += d
		most = math.Max(most, d)
	}
	add("lb.max_replica_share", ratio(most, total), "share")
	add("client.sched_lag_p90_ms", percentile(lag, 0.90), "ms")
	add("client.conn_wait_p90_ms", percentile(wait, 0.90), "ms")
	add("client.closed_n", float64(closedN), "count")
	add("client.paced_n", float64(pacedN), "count")
	add("client.error_rate", ratio(float64(measuredFailed), float64(closedN+pacedN)), "share")
	add("client.cpu_steal_share", mean(append(append([]float64(nil), rep.Windows.ClosedSteal...), rep.Windows.PacedSteal...)), "share")

	if tr != nil {
		traced := append(append([]window(nil), closedW...), pacedW...)
		tracedLayers(tr, traced, add)
		// The halves are short, so the overhead compares the rates pooled
		// over all of them rather than the best half of each kind.
		add("trace.overhead_share", 1-pooledRate(closedW)/pooledRate(untracedW), "share")
		add("runtime.alloc_bytes_per_req", allocBytes/float64(okCount(untracedW)), "B")
		// The CPU classes advance only when a GC cycle ends, so the share
		// is taken over all the rounds rather than the short untraced
		// halves.
		add("runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "share")
		var routesUsed [][]serve.RoutePoint
		if len(s.fixed) > 0 {
			routesUsed = s.fixed
		} else {
			for i := int64(0); i < 16; i++ {
				routesUsed = append(routesUsed, s.request(i).Route)
			}
		}
		mc := f.model.ModelConfig()
		prepareLayers(f.ds, mc, routesUsed, add)
		kernelLayers(mc, add)
		if err := tr.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, o.seed))); err != nil {
			return nil, err
		}
	}

	names := endToEnd
	if o.trace {
		names = perLayer
	}
	rep.Result = result{Correct: len(rep.Failures) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := rep.Metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, -1) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", n, m.Value)
		}
		if math.IsInf(m.Value, 1) {
			// A paced percentile reached the failed requests: the run
			// cannot be scored, and its failures are listed above.
			rep.Result.Correct = false
			m.Value = math.MaxFloat64
		}
		rep.Result.Metrics[n] = m
	}
	return rep, nil
}

// tracedLayers joins each traced request's spans by seed and splits its
// time into stages: LB self time, the replica handler's non-generation
// part, the batcher queue wait and the GenerateJobs call. The four add
// up to the LB handler's time by construction; what the client saw on
// top of that is the unexplained share.
func tracedLayers(tr *tracer, ws []window, add func(string, float64, string)) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	bySeed := map[string]map[int64]span{"lb": {}, "serve": {}, "generate": {}}
	for _, sp := range tr.spans {
		if m, ok := bySeed[sp.Name]; ok {
			m[sp.Seed] = sp
		}
	}
	dur := func(sp span) float64 { return float64(sp.End-sp.Start) / 1e6 }
	var client, lbTotal, lbSelf, handler, nongen, queue []float64
	var wall float64
	for _, w := range ws {
		wall += w.seconds()
		for _, out := range w.Out {
			l, ok1 := bySeed["lb"][out.Seed]
			sv, ok2 := bySeed["serve"][out.Seed]
			g, ok3 := bySeed["generate"][out.Seed]
			if !out.OK || !ok1 || !ok2 || !ok3 {
				continue
			}
			client = append(client, ms(out.Done.Sub(out.Sent)))
			lbTotal = append(lbTotal, dur(l))
			lbSelf = append(lbSelf, dur(l)-dur(sv))
			handler = append(handler, dur(sv))
			nongen = append(nongen, dur(sv)-out.GenMs)
			queue = append(queue, out.GenMs-dur(g))
		}
	}
	add("lb.self_p50_ms", percentile(lbSelf, 0.5), "ms")
	add("serve.handler_p50_ms", percentile(handler, 0.5), "ms")
	add("serve.nongen_p50_ms", percentile(nongen, 0.5), "ms")
	add("serve.queue_wait_p50_ms", percentile(queue, 0.5), "ms")
	add("trace.unexplained_share", (mean(client)-mean(lbTotal))/mean(client), "share")

	var calls []float64
	var busy, steps float64
	for _, c := range tr.calls {
		d := float64(c.End - c.Start)
		calls = append(calls, d/1e6)
		busy += d
		steps += float64(c.Steps)
	}
	add("core.generate_p50_ms", percentile(calls, 0.5), "ms")
	add("core.ns_per_step", ratio(busy, steps), "ns")
	add("core.busy_share", busy/1e9/(wall*replicas), "share")
}

// probe sends one (route, seed) through the balancer and straight to the
// replica the ring picks, and generates it in process on a fresh world:
// all three must give the same bits.
func probe(f *fleet, c *client, r request) error {
	body := r.body()
	viaLB, o1 := c.post(c.url, r, body)
	replica := f.bal.Ring().Lookup(lb.RouteKey("", r.Route, ""))
	direct, o2 := c.post(replica+serve.EndpointGenerate, r, body)
	if viaLB == nil || direct == nil {
		return fmt.Errorf("via lb: %q; direct: %q", o1.Err, o2.Err)
	}
	a := generation{Series: viaLB.Series, Envelope: viaLB.Envelope}
	b := generation{Series: direct.Series, Envelope: direct.Envelope}
	if err := sameGeneration(a, b); err != nil {
		return fmt.Errorf("lb vs replica: %w", err)
	}
	if err := sameGeneration(b, inProcess(serve.NewWorldFrom(f.ds), f.model, r)); err != nil {
		return fmt.Errorf("replica vs in-process: %w", err)
	}
	return nil
}

// latencies gives each paced request's latency in ms, timed from when it
// was due. A request that failed or returned bad output is +Inf: it
// misses every latency limit.
func latencies(w window) []float64 {
	lat := make([]float64, len(w.Out))
	for i, out := range w.Out {
		lat[i] = math.Inf(1)
		if out.OK {
			lat[i] = ms(out.Done.Sub(out.Due))
		}
	}
	return lat
}

// capacity is the best closed window's rate of successful responses.
// Other tenants of a shared machine only ever slow a window down, so the
// best window is the steadiest estimate of what the fleet sustains. When
// the machine is noisy the best window dodges it more often than the
// second best or the median of windows do.
func capacity(ws []window) float64 {
	best := 0.0
	for _, w := range ws {
		best = math.Max(best, float64(w.ok())/w.seconds())
	}
	return best
}

// pooledRate is the rate of successful responses over all of ws.
func pooledRate(ws []window) float64 {
	var secs float64
	for _, w := range ws {
		secs += w.seconds()
	}
	return float64(okCount(ws)) / secs
}

func okCount(ws []window) int {
	n := 0
	for _, w := range ws {
		n += w.ok()
	}
	return n
}

// rssSampler samples the resident set every 20 ms until finish.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
	err  error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				s.err = err
				return
			}
			s.mb = append(s.mb, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.mb, s.err
}

// rssMB reads the current resident set from Linux procfs.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("resident set: short /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from Linux
// procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

func describeMachine() machine {
	m := machine{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown (not built in a git checkout)", Source: sourceDigest(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" {
			m.Commit = rev
			if modified {
				m.Commit += " (modified)"
			}
		}
	}
	return m
}

// sourceDigest hashes the Go sources, scenario configs and module files
// under the working directory, skipping dot directories: it names the
// measured code where no commit is known.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(p); ext == ".go" || ext == ".toml" || d.Name() == "go.mod" {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// write prints the human-readable report and stores it as JSON.
func (r *report) write(o options) error {
	m, st := r.Machine, r.Settings
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		m.CPU, m.NProc, m.GOMAXPROCS, m.Go, m.Commit, m.Source)
	fmt.Printf("settings: workload=%s seed=%d seconds=%d trace=%t setups=%d rounds=%d warmup=%gs closed=%gs paced=%gs/round rate=%grps samples=%d conns=%d replicas=%d batch_window=%gms max_batch=%d\n",
		st.Workload, st.Seed, st.Seconds, st.Trace, st.SetupReps, st.Rounds, st.WarmupS, st.ClosedS, st.PacedS,
		st.Rate, st.Samples, st.Conns, st.Replicas, st.BatchWindowMs, st.MaxBatch)
	fmt.Printf("world: %s; model: %s\n", st.World, st.Model)
	fmt.Printf("workload %s: why: %s\n  exercises: %s\n  bypasses: %s\n", st.Workload, st.Why, st.Exercises, st.Bypasses)
	fmt.Printf("properties: prep_hit_ratio=%.4f (hits/(hits+misses) over the measured prepares) jobs_per_call_mean=%.3f distinct_routes=%.0f\n",
		r.Metrics["serve.prep_hit_ratio"].Value, r.Metrics["core.jobs_per_call_mean"].Value, r.Metrics["workload.distinct_routes"].Value)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, f := range r.Failures {
		fmt.Println("FAIL", f)
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(o.outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", o.workload, o.seed, trace)), data, 0o644)
}
