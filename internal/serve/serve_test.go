package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/geo"
)

// fixture state shared by all tests: one tiny trained model saved to disk,
// one resident world, one short unseen route. Built once per test binary.
var fix struct {
	once      sync.Once
	err       error
	dir       string
	modelPath string
	world     *World
	route     geo.Trajectory
}

var fixSpec = dataset.Spec{Seed: 11, Scale: 0.015}

func fixCfg() core.Config {
	return core.Config{
		Channels: core.RSRPRSRQChannels(),
		Hidden:   10, NoiseDim: 2, ResNoise: 2, Lags: 2,
		BatchLen: 12, StepLen: 6, MaxCells: 6,
		Epochs: 1, Seed: 1, Workers: 1,
	}
}

func setup(t *testing.T) {
	t.Helper()
	fix.once.Do(func() {
		dir, err := os.MkdirTemp("", "gendt-serve-test")
		if err != nil {
			fix.err = err
			return
		}
		fix.dir = dir
		d := dataset.NewDatasetA(fixSpec)
		chans := core.RSRPRSRQChannels()
		train := core.PrepareAll(d.TrainRuns(), chans, 6)
		m := core.NewModel(fixCfg())
		m.Train(train, nil)
		fix.modelPath = filepath.Join(dir, "model.json")
		if err := m.SaveFile(fix.modelPath); err != nil {
			fix.err = err
			return
		}
		fix.world, fix.err = NewWorld("A", fixSpec)
		if fix.err != nil {
			return
		}
		tr := d.TestRuns()[0].Traj
		if len(tr) > 40 {
			tr = tr[:40]
		}
		fix.route = tr
	})
	if fix.err != nil {
		t.Fatalf("fixture: %v", fix.err)
	}
}

// newServer builds a Server over the fixture model with the given options
// (Registry/World filled in) and wraps it in an httptest server.
func newServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	setup(t)
	if opt.Registry == nil {
		reg, err := NewRegistry([]ModelSource{{Name: "gendt", Path: fix.modelPath}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt.Registry = reg
	}
	if opt.World == nil {
		opt.World = fix.world
	}
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func routePoints() []RoutePoint {
	out := make([]RoutePoint, len(fix.route))
	for i, p := range fix.route {
		out[i] = RoutePoint{T: p.T, Lat: p.Lat, Lon: p.Lon}
	}
	return out
}

func postGenerate(t *testing.T, url string, req GenerateRequest) (int, GenerateResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+EndpointGenerate, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out GenerateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decode: %v\n%s", err, buf.String())
		}
	}
	return resp.StatusCode, out, buf.String()
}

func TestHealthz(t *testing.T) {
	_, ts := newServer(t, Options{})
	resp, err := http.Get(ts.URL + EndpointHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Models != 1 || h.World != "A" {
		t.Fatalf("health = %+v", h)
	}
}

func TestModels(t *testing.T) {
	_, ts := newServer(t, Options{})
	resp, err := http.Get(ts.URL + EndpointModels)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Models) != 1 {
		t.Fatalf("models = %+v", mr.Models)
	}
	m := mr.Models[0]
	if m.Name != "gendt" || m.Params == 0 {
		t.Fatalf("model info = %+v", m)
	}
	if !reflect.DeepEqual(m.Channels, []string{"RSRP", "RSRQ"}) {
		t.Fatalf("channels = %v", m.Channels)
	}
}

func TestGenerateDeterministicForFixedSeed(t *testing.T) {
	_, ts := newServer(t, Options{})
	req := GenerateRequest{Seed: 7, Route: routePoints()}
	code1, r1, raw1 := postGenerate(t, ts.URL, req)
	code2, r2, _ := postGenerate(t, ts.URL, req)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status %d / %d: %s", code1, code2, raw1)
	}
	if r1.Steps != len(fix.route) || len(r1.Series) != 2 || len(r1.Series[0]) != r1.Steps {
		t.Fatalf("shape: steps=%d series=%dx%d", r1.Steps, len(r1.Series), len(r1.Series[0]))
	}
	if !reflect.DeepEqual(r1.Series, r2.Series) {
		t.Fatal("same (model, route, seed) must be bit-identical")
	}
	if r1.Seed != 7 || r1.Model != "gendt" {
		t.Fatalf("echo fields: %+v", r1)
	}
	// RSRP must come back in physical units (dBm range).
	for _, v := range r1.Series[0] {
		if v > -20 || v < -160 {
			t.Fatalf("RSRP %v outside physical range", v)
		}
	}
	// Omitted seed draws a fresh one and must differ across calls.
	_, r3, _ := postGenerate(t, ts.URL, GenerateRequest{Route: routePoints()})
	_, r4, _ := postGenerate(t, ts.URL, GenerateRequest{Route: routePoints()})
	if r3.Seed == 0 || r4.Seed == 0 || r3.Seed == r4.Seed {
		t.Fatalf("auto seeds: %d, %d", r3.Seed, r4.Seed)
	}
}

func TestGenerateSamplesEnvelope(t *testing.T) {
	_, ts := newServer(t, Options{})
	code, r, raw := postGenerate(t, ts.URL, GenerateRequest{Seed: 3, Samples: 4, Route: routePoints()})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if r.Envelope == nil {
		t.Fatal("samples=4 must return an envelope")
	}
	for c := 0; c < 2; c++ {
		for i := range r.Envelope.Min[c] {
			lo, hi, mean := r.Envelope.Min[c][i], r.Envelope.Max[c][i], r.Envelope.Mean[c][i]
			if lo > hi || mean < lo || mean > hi {
				t.Fatalf("envelope order at [%d][%d]: min=%v mean=%v max=%v", c, i, lo, mean, hi)
			}
		}
	}
	// Sample i is a pure function of (seed, i): the first sample of a
	// samples=4 request matches the single sample of a samples=1 request.
	_, r1, _ := postGenerate(t, ts.URL, GenerateRequest{Seed: 3, Samples: 1, Route: routePoints()})
	if !reflect.DeepEqual(r.Series, r1.Series) {
		t.Fatal("sample 0 must not depend on the sample count")
	}
}

func TestRouteCSVMatchesJSON(t *testing.T) {
	_, ts := newServer(t, Options{})
	var sb strings.Builder
	sb.WriteString("t,lat,lon\n")
	for _, p := range fix.route {
		fmt.Fprintf(&sb, "%s,%s,%s\n",
			strconv.FormatFloat(p.T, 'g', -1, 64),
			strconv.FormatFloat(p.Lat, 'g', -1, 64),
			strconv.FormatFloat(p.Lon, 'g', -1, 64))
	}
	_, rJSON, _ := postGenerate(t, ts.URL, GenerateRequest{Seed: 5, Route: routePoints()})
	code, rCSV, raw := postGenerate(t, ts.URL, GenerateRequest{Seed: 5, RouteCSV: sb.String()})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if !reflect.DeepEqual(rJSON.Series, rCSV.Series) {
		t.Fatal("CSV and JSON routes must generate identically")
	}
}

// TestBatchingBitIdentical is the core serving guarantee: the same
// (model, route, seed) returns bit-identical series whether the request
// ran alone with batching disabled or was coalesced with 7 others.
func TestBatchingBitIdentical(t *testing.T) {
	_, tsSolo := newServer(t, Options{BatchWindow: 0})
	_, tsBatch := newServer(t, Options{BatchWindow: 50 * time.Millisecond})

	const n = 8
	solo := make([]GenerateResponse, n)
	for i := 0; i < n; i++ {
		code, r, raw := postGenerate(t, tsSolo.URL, GenerateRequest{Seed: int64(100 + i), Route: routePoints()})
		if code != http.StatusOK {
			t.Fatalf("solo status %d: %s", code, raw)
		}
		solo[i] = r
	}

	batch := make([]GenerateResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, r, raw := postGenerate(t, tsBatch.URL, GenerateRequest{Seed: int64(100 + i), Route: routePoints()})
			if code != http.StatusOK {
				t.Errorf("batch status %d: %s", code, raw)
				return
			}
			batch[i] = r
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(solo[i].Series, batch[i].Series) {
			t.Fatalf("request %d: batched series differs from unbatched", i)
		}
	}
}

// TestBatcherCoalesces drives concurrent requests through a wide batching
// window and asserts they actually shared GenerateJobs calls.
func TestBatcherCoalesces(t *testing.T) {
	s, ts := newServer(t, Options{BatchWindow: 100 * time.Millisecond})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, raw := postGenerate(t, ts.URL, GenerateRequest{Seed: int64(1 + i), Route: routePoints()})
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, raw)
			}
		}(i)
	}
	wg.Wait()
	met := s.Metrics()
	if got := met.Batches.Load(); got >= n {
		t.Fatalf("no coalescing: %d batches for %d requests", got, n)
	}
	if met.MaxBatch.Load() < 2 || met.BatchedRequests.Load() < 2 {
		t.Fatalf("coalescing not observed: max=%d batched=%d",
			met.MaxBatch.Load(), met.BatchedRequests.Load())
	}
}

// TestMaxBatchOneNeverCoalesces pins the job-at-a-time reference replica
// of ci/statistical_gate.sh: with MaxBatch 1, concurrent requests inside a
// wide window still run one singleton GenerateJobs call each, and each f32
// series equals what a coalescing server (batched engine) returns for the
// same seed.
func TestMaxBatchOneNeverCoalesces(t *testing.T) {
	setup(t)
	f32 := func() *Registry {
		reg, err := NewRegistry([]ModelSource{{Name: "gendt", Path: fix.modelPath, Precision: core.PrecisionF32}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	_, tsDefault := newServer(t, Options{Registry: f32(), BatchWindow: 50 * time.Millisecond})
	sOne, tsOne := newServer(t, Options{Registry: f32(), BatchWindow: 50 * time.Millisecond, MaxBatch: 1})

	const n = 8
	fire := func(url string) []GenerateResponse {
		out := make([]GenerateResponse, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, r, raw := postGenerate(t, url, GenerateRequest{Seed: int64(100 + i), Route: routePoints()})
				if code != http.StatusOK {
					t.Errorf("status %d: %s", code, raw)
					return
				}
				out[i] = r
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return out
	}
	want := fire(tsDefault.URL)
	got := fire(tsOne.URL)
	met := sOne.Metrics()
	if mx, b := met.MaxBatch.Load(), met.Batches.Load(); mx != 1 || b != n {
		t.Fatalf("MaxBatch 1 coalesced: max_batch=%d batches=%d, want 1 and %d", mx, b, n)
	}
	for i := range got {
		if !reflect.DeepEqual(want[i].Series, got[i].Series) {
			t.Fatalf("request %d: MaxBatch 1 series differs from the default server's", i)
		}
	}
}

// TestConcurrentClients hammers the server with 32 parallel clients (the
// acceptance bar; run under -race).
func TestConcurrentClients(t *testing.T) {
	s, ts := newServer(t, Options{BatchWindow: 2 * time.Millisecond})
	const clients = 32
	const perClient = 2
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				req := GenerateRequest{Seed: int64(1 + c), Route: routePoints()}
				if c%4 == 0 {
					req.Samples = 2
				}
				code, r, raw := postGenerate(t, ts.URL, req)
				if code != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, code, raw)
					return
				}
				if r.Steps != len(fix.route) {
					t.Errorf("client %d: steps %d", c, r.Steps)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Metrics().Endpoint(EndpointGenerate)
	if got := st.Requests.Load(); got != clients*perClient {
		t.Fatalf("request count %d, want %d", got, clients*perClient)
	}
	if got := st.InFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge %d after drain", got)
	}
	if st.Latency.observe.Load() != clients*perClient {
		t.Fatal("latency histogram missed observations")
	}
	// The prep cache must absorb the repeated route rather than
	// re-annotating per request (the shared fixture world may already hold
	// the route from earlier tests, so only hits are asserted).
	if s.Metrics().PrepHits.Load() == 0 {
		t.Fatalf("prep cache unused: hits=0 misses=%d", s.Metrics().PrepMisses.Load())
	}
}

func TestReloadSwapsModel(t *testing.T) {
	setup(t)
	// Two architecturally identical but differently initialized models.
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	cfgA := fixCfg()
	cfgA.Epochs = 0
	if err := core.NewModel(cfgA).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry([]ModelSource{{Name: "m", Path: path}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, Options{Registry: reg})

	req := GenerateRequest{Model: "m", Seed: 9, Route: routePoints()}
	_, r1, _ := postGenerate(t, ts.URL, req)

	cfgB := cfgA
	cfgB.Seed = 99 // different random init -> different weights
	if err := core.NewModel(cfgB).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+EndpointReload, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	var rr ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Failures != 0 || len(rr.Models) != 1 {
		t.Fatalf("reload = %+v", rr)
	}

	_, r2, _ := postGenerate(t, ts.URL, req)
	if reflect.DeepEqual(r1.Series, r2.Series) {
		t.Fatal("reload did not swap the model")
	}

	// A corrupt file on disk must fail the reload but keep serving the
	// previously loaded model.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+EndpointReload, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d", resp2.StatusCode)
	}
	code, r3, raw := postGenerate(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("serving after failed reload: %d %s", code, raw)
	}
	if !reflect.DeepEqual(r2.Series, r3.Series) {
		t.Fatal("failed reload must keep the old model")
	}
}

func TestGenerateValidation(t *testing.T) {
	_, ts := newServer(t, Options{MaxSamples: 4, MaxBody: 64 << 10})
	cases := []struct {
		name string
		req  GenerateRequest
		want int
	}{
		{"missing route", GenerateRequest{Seed: 1}, http.StatusBadRequest},
		{"both routes", GenerateRequest{Seed: 1, Route: routePoints(), RouteCSV: "t,lat,lon\n0,0,0\n1,0,0"}, http.StatusBadRequest},
		{"short route", GenerateRequest{Seed: 1, Route: routePoints()[:1]}, http.StatusBadRequest},
		{"unknown model", GenerateRequest{Model: "nope", Seed: 1, Route: routePoints()}, http.StatusNotFound},
		{"too many samples", GenerateRequest{Seed: 1, Samples: 5, Route: routePoints()}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, _, raw := postGenerate(t, ts.URL, tc.req); code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, raw)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + EndpointGenerate)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET generate: %d", resp.StatusCode)
	}

	// Oversized body (valid JSON, so the byte limit trips before a syntax
	// error can).
	big := []byte(`{"route_csv":"` + strings.Repeat("a", 128<<10) + `"}`)
	resp2, err := http.Post(ts.URL+EndpointGenerate, "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d", resp2.StatusCode)
	}
}

// TestGenerateRejectsBadRoutePoints: a non-finite or out-of-range route
// point is a 400 with a JSON error body, whether it arrives as JSON points
// or CSV. JSON has no NaN or Inf literal, so those reach only route_csv.
func TestGenerateRejectsBadRoutePoints(t *testing.T) {
	_, ts := newServer(t, Options{})
	cases := []struct {
		name    string
		mut     func(p []RoutePoint)
		jsonToo bool
	}{
		{"NaN t", func(p []RoutePoint) { p[1].T = math.NaN() }, false},
		{"+Inf t", func(p []RoutePoint) { p[1].T = math.Inf(1) }, false},
		{"NaN lat", func(p []RoutePoint) { p[1].Lat = math.NaN() }, false},
		{"-Inf lon", func(p []RoutePoint) { p[1].Lon = math.Inf(-1) }, false},
		{"lat above 90", func(p []RoutePoint) { p[1].Lat = 90.5 }, true},
		{"lat below -90", func(p []RoutePoint) { p[1].Lat = -91 }, true},
		{"lon above 180", func(p []RoutePoint) { p[1].Lon = 180.25 }, true},
		{"lon below -180", func(p []RoutePoint) { p[1].Lon = -200 }, true},
		{"time step overflows", func(p []RoutePoint) { p[0].T, p[1].T = -1.7e308, 1.7e308 }, true},
	}
	for _, tc := range cases {
		pts := routePoints()
		tc.mut(pts)
		var sb strings.Builder
		sb.WriteString("t,lat,lon\n")
		for _, p := range pts {
			fmt.Fprintf(&sb, "%s,%s,%s\n",
				strconv.FormatFloat(p.T, 'g', -1, 64),
				strconv.FormatFloat(p.Lat, 'g', -1, 64),
				strconv.FormatFloat(p.Lon, 'g', -1, 64))
		}
		reqs := map[string]GenerateRequest{"route_csv": {Seed: 1, RouteCSV: sb.String()}}
		if tc.jsonToo {
			reqs["route"] = GenerateRequest{Seed: 1, Route: pts}
		}
		for form, req := range reqs {
			code, _, raw := postGenerate(t, ts.URL, req)
			var body struct {
				Error string `json:"error"`
			}
			if code != http.StatusBadRequest || json.Unmarshal([]byte(raw), &body) != nil || body.Error == "" {
				t.Errorf("%s via %s: status %d, body %q; want 400 with a JSON error", tc.name, form, code, raw)
			}
		}
	}
}

func TestDrainingReturns503(t *testing.T) {
	s, ts := newServer(t, Options{})
	// Prime the batcher so Close has something to drain.
	if code, _, raw := postGenerate(t, ts.URL, GenerateRequest{Seed: 1, Route: routePoints()}); code != http.StatusOK {
		t.Fatalf("prime: %d %s", code, raw)
	}
	s.Close()
	body, err := json.Marshal(GenerateRequest{Seed: 1, Route: routePoints()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+EndpointGenerate, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after drain: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != strconv.Itoa(DrainRetryAfter) {
		t.Errorf("Retry-After = %q, want %q", got, strconv.Itoa(DrainRetryAfter))
	}
	if got := resp.Header.Get(ReasonHeader); got != ReasonDraining {
		t.Errorf("%s = %q, want %q (clients must distinguish draining from front-tier sheds)",
			ReasonHeader, got, ReasonDraining)
	}
}

// TestHealthzDraining checks a draining server fails its health probe with
// status "draining" so orchestrators route away during shutdown.
func TestHealthzDraining(t *testing.T) {
	s, ts := newServer(t, Options{})
	s.StartDrain()
	resp, err := http.Get(ts.URL + EndpointHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("healthz while draining: missing Retry-After header")
	}
	if got := resp.Header.Get(ReasonHeader); got != ReasonDraining {
		t.Errorf("healthz while draining: %s = %q, want %q", ReasonHeader, got, ReasonDraining)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "draining" {
		t.Errorf("status = %q, want %q", hr.Status, "draining")
	}
}

func TestDebugVars(t *testing.T) {
	_, ts := newServer(t, Options{})
	if code, _, raw := postGenerate(t, ts.URL, GenerateRequest{Seed: 2, Route: routePoints()}); code != http.StatusOK {
		t.Fatalf("generate: %d %s", code, raw)
	}
	resp, err := http.Get(ts.URL + EndpointVars)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		UptimeS   float64 `json:"uptime_s"`
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
			Latency  struct {
				Count   int64            `json:"count"`
				Buckets map[string]int64 `json:"buckets_le_ms"`
			} `json:"latency"`
		} `json:"endpoints"`
		Generate struct {
			Samples     int64   `json:"samples"`
			NsPerSample float64 `json:"ns_per_sample"`
			Batches     int64   `json:"batches"`
		} `json:"generate"`
		Runtime struct {
			AllocBytes uint64 `json:"alloc_bytes"`
			Goroutines int    `json:"goroutines"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	gen := vars.Endpoints[EndpointGenerate]
	if gen.Requests < 1 || gen.Latency.Count < 1 || len(gen.Latency.Buckets) == 0 {
		t.Fatalf("generate endpoint vars = %+v", gen)
	}
	if vars.Generate.Samples < 1 || vars.Generate.NsPerSample <= 0 || vars.Generate.Batches < 1 {
		t.Fatalf("generate vars = %+v", vars.Generate)
	}
	if vars.Runtime.AllocBytes == 0 || vars.Runtime.Goroutines == 0 {
		t.Fatalf("runtime vars = %+v", vars.Runtime)
	}
}

func TestPrepCacheReuse(t *testing.T) {
	setup(t)
	w, err := NewWorld("A", fixSpec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadFile(fix.modelPath)
	if err != nil {
		t.Fatal(err)
	}
	s1, hit1 := w.Prepare(fix.route, m)
	s2, hit2 := w.Prepare(fix.route, m)
	if hit1 || !hit2 {
		t.Fatalf("cache hits = %v, %v", hit1, hit2)
	}
	if s1 != s2 {
		t.Fatal("cache must return the same prepared sequence")
	}
	if s1.Len() != len(fix.route) {
		t.Fatalf("prepared length %d, want %d", s1.Len(), len(fix.route))
	}
}

// trainCheckpointBytes trains the fixture model for `epochs` epochs and
// returns the serialized training checkpoint captured at the final epoch —
// the same byte format gendt-train's -checkpoint-dir writes.
func trainCheckpointBytes(t *testing.T, epochs int) ([]byte, uint64) {
	t.Helper()
	d := dataset.NewDatasetA(fixSpec)
	chans := core.RSRPRSRQChannels()
	train := core.PrepareAll(d.TrainRuns(), chans, 6)
	cfg := fixCfg()
	cfg.Epochs = epochs
	m := core.NewModel(cfg)
	var data []byte
	_, err := m.TrainWithOptions(train, core.TrainOpts{
		AfterEpoch: func(ev core.EpochEvent) error {
			if ev.Epoch != ev.Epochs {
				return nil
			}
			var encErr error
			data, encErr = core.EncodeTrainState(ev.State())
			return encErr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if data == nil {
		t.Fatal("no checkpoint captured")
	}
	return data, m.Fingerprint()
}

// TestCheckpointHotReloadSIGHUP proves a training-checkpoint file is a
// first-class servable model: the registry loads it, and — mirroring
// gendt-serve's SIGHUP handler — a SIGHUP-triggered Reload picks up a new
// checkpoint written over the same path.
func TestCheckpointHotReloadSIGHUP(t *testing.T) {
	ck1, fp1 := trainCheckpointBytes(t, 1)
	ck2, fp2 := trainCheckpointBytes(t, 2)
	if fp1 == fp2 {
		t.Fatal("fixture checkpoints have identical weights; test needs distinct ones")
	}

	path := filepath.Join(t.TempDir(), "ckpt-model.json")
	if err := os.WriteFile(path, ck1, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry([]ModelSource{{Name: "ck", Path: path}}, 0)
	if err != nil {
		t.Fatalf("registry rejected checkpoint-format model: %v", err)
	}
	m, ok := reg.Get("ck")
	if !ok {
		t.Fatal("checkpoint model not registered")
	}
	if got := m.Fingerprint(); got != fp1 {
		t.Fatalf("loaded fingerprint %#x, want %#x", got, fp1)
	}
	s, ts := newServer(t, Options{Registry: reg})
	if code, _, raw := postGenerate(t, ts.URL, GenerateRequest{Seed: 3, Route: routePoints()}); code != http.StatusOK {
		t.Fatalf("generate against checkpoint model: %d %s", code, raw)
	}

	// Swap the file on disk, then deliver a real SIGHUP to this process;
	// the handler mirrors cmd/gendt-serve's reload goroutine.
	if err := os.WriteFile(path, ck2, 0o644); err != nil {
		t.Fatal(err)
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	reloaded := make(chan int, 1)
	go func() {
		<-hup
		_, failures := s.Reload()
		reloaded <- failures
	}()
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	select {
	case failures := <-reloaded:
		if failures != 0 {
			t.Fatalf("reload failures: %d", failures)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SIGHUP never delivered")
	}
	m2, _ := reg.Get("ck")
	if got := m2.Fingerprint(); got != fp2 {
		t.Fatalf("post-SIGHUP fingerprint %#x, want new checkpoint's %#x", got, fp2)
	}
}
