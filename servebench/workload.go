package main

import (
	"encoding/json"
	"fmt"
	"math"

	"gendt/internal/dataset"
	"gendt/internal/serve"
)

// workload is one traffic mix driven through the fleet. The paced rate
// is a fixed number, about a third to two fifths of the closed-loop
// capacity measured on a 2-core Xeon; it must never be derived from a
// capacity measured in the same run, or a slower program would be
// offered less load and look no worse.
type workload struct {
	name      string
	why       string  // why the workload is in the benchmark
	exercises string  // layers whose speed it measures
	bypasses  string  // layers it never reaches: a change there should show no change here
	samples   int     // per-request sample fan-out
	rate      float64 // paced-phase arrivals per second
	fixed     int     // size of the fixed route set; 0 makes every request a new route
}

var workloads = []workload{
	{
		name:      "hot-routes",
		why:       "operators re-query known routes; every request hits the prepared-sequence cache, so time goes to HTTP/JSON, the LB hop, the batch window and sequential generation",
		exercises: "lb (ring pick, forward), serve (decode, batch window, prep-cache hit, encode), core sequential generation, nn GEMV kernels",
		bypasses:  "sim/cells/env annotation, the batched GEMM engine",
		samples:   1, rate: 100, fixed: 16,
	},
	{
		name:      "new-routes",
		why:       "the paper's own use case: a route nobody has driven, so every World.Prepare misses and annotation dominates while the prep cache churns",
		exercises: "sim.Annotate, cells.Visible, env.ContextAt, core.PrepareSequenceWith, the Go runtime (allocation, GC), plus everything hot-routes exercises",
		bypasses:  "the prepared-sequence cache hit path, the batched GEMM engine",
		samples:   1, rate: 40, fixed: 0,
	},
	{
		name:      "envelope",
		why:       "the paper's Fig. 9 min/max/mean envelope: 32 samples per request, so generation on the lockstep batched engine dominates",
		exercises: "core batched GenerateJobs (4 chunks of 8 lanes), nn GEMM and ModulateF32, serve envelope encoding",
		bypasses:  "sim/cells/env annotation (prepare always hits)",
		samples:   32, rate: 12, fixed: 8,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Route shape. At dataset A scale 0.05 only the Walk runs (126 samples)
// are long enough for a 120-step window.
const (
	routeSteps = 120
	maxShiftM  = 250 // a route is shifted by up to this many metres east and north
)

// Namespaces keep the draws of different purposes independent.
const (
	nsFixed uint64 = iota + 1
	nsNew
	nsPick
	nsSeed
	nsProbeRoute
	nsProbeSeed
	nsWarmSeed
)

// request is one generate call of the stream.
type request struct {
	Seed    int64
	Samples int
	Route   []serve.RoutePoint
}

// body encodes the request. The seed is the first field, which lets the
// tracing handlers read it without decoding the route.
func (r request) body() []byte {
	b, err := json.Marshal(serve.GenerateRequest{Seed: r.Seed, Samples: r.Samples, Route: r.Route})
	if err != nil {
		panic(err) // a struct of numbers always encodes
	}
	return b
}

// stream is the workload's request sequence: request i is a pure function
// of (workload, seed, i), so the same seed replays byte-identical bodies
// whichever client sends them.
type stream struct {
	wl    workload
	seed  int64
	src   []dataset.Run
	fixed [][]serve.RoutePoint
}

// newStream builds the stream. owner names the replica a route lands on;
// the fixed route set takes an equal number of routes per replica, so the
// split of a small fixed set over the ring does not vary from seed to
// seed. How evenly the ring spreads many routes is measured on new-routes
// (lb.max_replica_share).
func newStream(wl workload, seed int64, ds *dataset.Dataset, owner func([]serve.RoutePoint) string) (*stream, error) {
	s := &stream{wl: wl, seed: seed}
	for _, r := range ds.Runs {
		if len(r.Traj) >= routeSteps {
			s.src = append(s.src, r)
		}
	}
	if len(s.src) == 0 {
		return nil, fmt.Errorf("dataset %s has no run of %d samples", ds.Name, routeSteps)
	}
	quota := map[string]int{}
	for k := uint64(0); len(s.fixed) < wl.fixed; k++ {
		rt := s.route(nsFixed, k)
		o := owner(rt)
		if quota[o] == wl.fixed/replicas {
			continue
		}
		quota[o]++
		s.fixed = append(s.fixed, rt)
	}
	return s, nil
}

// request returns request i of the stream. Seeds are unique per i.
func (s *stream) request(i int64) request {
	r := request{Seed: seedOf(mix(s.seed, nsSeed, uint64(i))), Samples: s.wl.samples}
	if len(s.fixed) > 0 {
		r.Route = s.fixed[mix(s.seed, nsPick, uint64(i))%uint64(len(s.fixed))]
	} else {
		r.Route = s.route(nsNew, uint64(i))
	}
	return r
}

// probe returns the k-th bit-identity probe: a fixed route of the
// workload (a fresh one on new-routes) and a seed outside the stream's.
func (s *stream) probe(k int) request {
	r := request{Seed: seedOf(mix(s.seed, nsProbeSeed, uint64(k))), Samples: s.wl.samples}
	if len(s.fixed) > 0 {
		r.Route = s.fixed[k%len(s.fixed)]
	} else {
		r.Route = s.route(nsProbeRoute, uint64(k))
	}
	return r
}

// warm returns a warm-up request for fixed route k.
func (s *stream) warm(k int) request {
	return request{Seed: seedOf(mix(s.seed, nsWarmSeed, uint64(k))), Samples: s.wl.samples, Route: s.fixed[k]}
}

// route draws a 120-step window of a source run, restarts its clock at 0
// and shifts it by a random offset of up to ±250 m on each axis, so two
// draws are distinct routes even when they share a window.
func (s *stream) route(ns, k uint64) []serve.RoutePoint {
	g := splitmix(mix(s.seed, ns, k))
	tr := s.src[g.next()%uint64(len(s.src))].Traj
	off := int(g.next() % uint64(len(tr)-routeSteps+1))
	dx := (g.float()*2 - 1) * maxShiftM
	dy := (g.float()*2 - 1) * maxShiftM
	const mPerDeg = 111_320.0
	lat0 := tr[off].Lat
	dLat := dy / mPerDeg
	dLon := dx / (mPerDeg * math.Cos(lat0*math.Pi/180))
	pts := make([]serve.RoutePoint, routeSteps)
	for j := range pts {
		p := tr[off+j]
		pts[j] = serve.RoutePoint{T: p.T - tr[off].T, Lat: p.Lat + dLat, Lon: p.Lon + dLon}
	}
	return pts
}

// mix hashes (seed, namespace, index) with the splitmix64 finalizer. For
// a fixed seed and namespace it is a bijection of the index, so request
// seeds never repeat within a run.
func mix(seed int64, ns, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + ns*0xd1b54a32d192ed03 + i
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// seedOf maps a hash to a request seed; 0 would make the server draw its
// own, non-reproducible seed.
func seedOf(h uint64) int64 {
	if h == 0 {
		return 1
	}
	return int64(h)
}

// splitmix is a tiny deterministic generator for route draws.
type splitmix uint64

func (g *splitmix) next() uint64 {
	*g += 0x9e3779b97f4a7c15
	z := uint64(*g)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *splitmix) float() float64 { return float64(g.next()>>11) / (1 << 53) }
