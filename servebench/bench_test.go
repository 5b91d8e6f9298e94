package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/lb"
	"gendt/internal/serve"
)

var (
	dsOnce sync.Once
	dsA    *dataset.Dataset
	dsErr  error
)

func worldA(t *testing.T) *dataset.Dataset {
	t.Helper()
	dsOnce.Do(func() { dsA, dsErr = dataset.NewByName(worldName, dataset.Spec{Seed: worldSeed, Scale: worldScale}) })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsA
}

// parityOwner stands in for the ring: it splits routes by key parity.
func parityOwner(rt []serve.RoutePoint) string {
	return []string{"a", "b"}[lb.RouteKey("", rt, "")%2]
}

func bodies(t *testing.T, wl workload, seed int64, n int) [][]byte {
	t.Helper()
	s, err := newStream(wl, seed, worldA(t), parityOwner)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = s.request(int64(i)).body()
	}
	return out
}

func TestStreamSameSeedSameBytes(t *testing.T) {
	for _, wl := range workloads {
		a, b := bodies(t, wl, 7, 200), bodies(t, wl, 7, 200)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", wl.name, i)
			}
		}
	}
}

func TestStreamOtherSeedOtherBytes(t *testing.T) {
	for _, wl := range workloads {
		a, b := bodies(t, wl, 7, 200), bodies(t, wl, 8, 200)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], b[i]) {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of 200 requests equal across seeds 7 and 8", wl.name, same)
		}
	}
}

// Every new-routes request must miss the prepared-sequence cache: its
// route, which with the fixed model config is the whole prepare key, is
// new. Request seeds must be unique on every workload, since they are
// the trace's request identifiers.
func TestStreamKeysAndSeedsDistinct(t *testing.T) {
	for _, wl := range workloads {
		s, err := newStream(wl, 3, worldA(t), parityOwner)
		if err != nil {
			t.Fatal(err)
		}
		routes, seeds := map[uint64]bool{}, map[int64]bool{}
		const n = 3000
		for i := int64(0); i < n; i++ {
			r := s.request(i)
			if len(r.Route) != routeSteps || r.Samples != wl.samples {
				t.Fatalf("%s request %d: %d steps, %d samples", wl.name, i, len(r.Route), r.Samples)
			}
			routes[lb.RouteKey("", r.Route, "")] = true
			seeds[r.Seed] = true
		}
		for k := 0; k < probes; k++ {
			seeds[s.probe(k).Seed] = true
		}
		if len(seeds) != n+probes {
			t.Errorf("%s: %d distinct seeds in %d requests and probes", wl.name, len(seeds), n+probes)
		}
		want := wl.fixed
		if wl.fixed == 0 {
			want = n
		}
		perOwner := map[string]int{}
		for _, rt := range s.fixed {
			perOwner[parityOwner(rt)]++
		}
		for o, k := range perOwner {
			if k != wl.fixed/replicas {
				t.Errorf("%s: %d fixed routes on %s, want %d", wl.name, k, o, wl.fixed/replicas)
			}
		}
		if len(routes) != want {
			t.Errorf("%s: %d distinct routes, want %d", wl.name, len(routes), want)
		}
	}
}

func TestFailuresAreInfinitelySlow(t *testing.T) {
	due := time.Unix(0, 0)
	var w window
	for i := 1; i <= 100; i++ {
		w.Out = append(w.Out, outcome{Due: due, Done: due.Add(time.Duration(i) * time.Millisecond), OK: true})
	}
	if got := percentile(latencies(w), 0.9); got != 90 {
		t.Fatalf("p90 of 1..100 ms = %v, want 90", got)
	}
	// Six transport failures and five responses that failed the gate, all
	// fast: p90 lands on them.
	for i := 0; i < 11; i++ {
		w.Out[i] = outcome{Due: due, Done: due.Add(time.Microsecond), Bad: i%2 == 0, Err: "failed"}
	}
	lat := latencies(w)
	if got := percentile(lat, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 11%% failures = %v, want +Inf", got)
	}
	if got := percentile(lat, 0.5); got != 61 {
		t.Errorf("p50 with 11 failures = %v, want 61", got)
	}
}

// validResponse builds a response that passes the gate for req.
func validResponse(req request) serve.GenerateResponse {
	chans := core.StandardChannels()
	resp := serve.GenerateResponse{Seed: req.Seed, Samples: req.Samples, Steps: len(req.Route)}
	block := func(frac float64) [][]float64 {
		out := make([][]float64, len(chans))
		for c, ch := range chans {
			out[c] = make([]float64, len(req.Route))
			for t := range out[c] {
				out[c][t] = ch.Lo + frac*(ch.Hi-ch.Lo)
			}
		}
		return out
	}
	for _, ch := range chans {
		resp.Channels = append(resp.Channels, ch.Name)
	}
	resp.Series = block(0.5)
	if req.Samples > 1 {
		resp.Envelope = &serve.EnvelopeJSON{Min: block(0.2), Max: block(0.8), Mean: block(0.5)}
	}
	return resp
}

func TestValidateGate(t *testing.T) {
	route := make([]serve.RoutePoint, 5)
	for i := range route {
		route[i] = serve.RoutePoint{T: float64(i), Lat: 55.95, Lon: -3.19}
	}
	one := request{Seed: 9, Samples: 1, Route: route}
	env := request{Seed: 9, Samples: 4, Route: route}
	cases := []struct {
		name   string
		req    request
		mutate func(*serve.GenerateResponse)
		want   string // substring of the error; "" means the response passes
	}{
		{"valid single", one, func(*serve.GenerateResponse) {}, ""},
		{"valid envelope", env, func(*serve.GenerateResponse) {}, ""},
		{"wrong steps", one, func(r *serve.GenerateResponse) { r.Steps = 4 }, "steps"},
		{"wrong samples", env, func(r *serve.GenerateResponse) { r.Samples = 3 }, "samples"},
		{"wrong seed", one, func(r *serve.GenerateResponse) { r.Seed = 8 }, "seed"},
		{"short series", one, func(r *serve.GenerateResponse) { r.Series[1] = r.Series[1][:4] }, "steps"},
		{"missing channel", one, func(r *serve.GenerateResponse) { r.Channels = r.Channels[:3] }, "channels"},
		{"above range", one, func(r *serve.GenerateResponse) { r.Series[0][2] = 1e6 }, "outside"},
		{"below range", one, func(r *serve.GenerateResponse) { r.Series[3][0] = -1e6 }, "outside"},
		{"mean above max", env, func(r *serve.GenerateResponse) { r.Envelope.Mean[2][1] = r.Envelope.Max[2][1] + 1 }, "envelope"},
		{"no envelope", env, func(r *serve.GenerateResponse) { r.Envelope = nil }, "no envelope"},
		{"stray envelope", one, func(r *serve.GenerateResponse) { r.Envelope = validResponse(env).Envelope }, "envelope"},
	}
	for _, tc := range cases {
		resp := validResponse(tc.req)
		tc.mutate(&resp)
		data, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		_, err = validate(tc.req, data, core.StandardChannels())
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	// A NaN cannot travel in JSON; the gate must also refuse a body that
	// is not a response at all.
	if _, err := validate(one, []byte(`{"series":"x"}`), core.StandardChannels()); err == nil {
		t.Error("malformed body passed the gate")
	}
}

func TestLeadingSeed(t *testing.T) {
	r := request{Seed: -1234567890123, Samples: 1, Route: []serve.RoutePoint{{T: 0, Lat: 1, Lon: 2}}}
	if got := leadingSeed(r.body()); got != r.Seed {
		t.Errorf("leadingSeed = %d, want %d", got, r.Seed)
	}
	if got := leadingSeed([]byte(`{"samples":1,"seed":5}`)); got != 0 {
		t.Errorf("seed not first: got %d, want 0", got)
	}
}

// One small fleet end to end: requests pass the gate and the probes are
// bit-identical through the balancer, the replica and in process.
func TestFleetProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	f, _, err := setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	for _, wl := range workloads {
		s, err := newStream(wl, 5, f.ds, f.owner)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(f.lbURL, f.model.ModelConfig().Channels, nil)
		for i := int64(0); i < 3; i++ {
			r := s.request(i)
			if _, out := c.post(c.url, r, r.body()); !out.OK {
				t.Errorf("%s request %d: %s", wl.name, i, out.Err)
			}
		}
		for k := 0; k < 2; k++ {
			if err := probe(f, c, s.probe(k)); err != nil {
				t.Errorf("%s probe %d: %v", wl.name, k, err)
			}
		}
		c.hc.CloseIdleConnections()
	}
}
