// Package serve implements gendt-serve: a long-lived HTTP JSON inference
// service over trained GenDT models. It holds the dataset world resident
// (route annotation without per-request world rebuilds), keeps a registry
// of hot-reloadable models, and admits concurrent /v1/generate requests
// through a micro-batching layer that coalesces them into single
// GenerateJobs calls against the parallel generation engine. Every sample
// is generated from a model clone seeded per (request seed, sample index),
// so responses are bit-identical for a fixed (model, route, seed)
// regardless of batching, concurrency, or worker count.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gendt/internal/core"
	"gendt/internal/export"
	"gendt/internal/geo"
)

// Options configures a Server. Zero fields take the defaults below.
type Options struct {
	Registry *Registry
	World    *World

	// BatchWindow is how long the admission layer waits to coalesce
	// concurrent requests into one batch; 0 batches only what is already
	// queued (no added latency).
	BatchWindow time.Duration
	// MaxBatch caps the generation jobs coalesced per batch.
	MaxBatch int
	// Timeout bounds each request's generation (queue wait included).
	Timeout time.Duration
	// MaxBody bounds the request body in bytes.
	MaxBody int64
	// MaxSamples caps the per-request sample fan-out.
	MaxSamples int
	// MaxSteps caps the route length in samples.
	MaxSteps int
}

// Serving defaults.
const (
	DefaultTimeout    = 30 * time.Second
	DefaultMaxBody    = 8 << 20 // 8 MiB of route JSON/CSV
	DefaultMaxSamples = 64
	DefaultMaxSteps   = 50000
)

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.MaxBody <= 0 {
		o.MaxBody = DefaultMaxBody
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = DefaultMaxSamples
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = DefaultMaxSteps
	}
	return o
}

// Server is the HTTP inference service.
type Server struct {
	opt Options
	met *Metrics
	mux *http.ServeMux

	draining atomic.Bool

	mu       sync.Mutex
	batchers map[string]*Batcher
	seedSeq  func() int64 // nondeterministic seeds for requests that omit one
}

// New builds a Server from loaded options; Registry and World must be set.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:      opt,
		met:      NewMetrics(EndpointGenerate, EndpointModels, EndpointHealth, EndpointVars, EndpointReload),
		batchers: make(map[string]*Batcher),
	}
	var seedMu sync.Mutex
	next := time.Now().UnixNano()
	s.seedSeq = func() int64 {
		seedMu.Lock()
		defer seedMu.Unlock()
		next++
		return next
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(EndpointGenerate, s.instrument(EndpointGenerate, http.MethodPost, s.handleGenerate))
	s.mux.HandleFunc(EndpointModels, s.instrument(EndpointModels, http.MethodGet, s.handleModels))
	s.mux.HandleFunc(EndpointHealth, s.instrument(EndpointHealth, http.MethodGet, s.handleHealth))
	s.mux.HandleFunc(EndpointVars, s.instrument(EndpointVars, http.MethodGet, s.handleVars))
	s.mux.HandleFunc(EndpointReload, s.instrument(EndpointReload, http.MethodPost, s.handleReload))
	return s
}

// Endpoint paths.
const (
	EndpointGenerate = "/v1/generate"
	EndpointModels   = "/v1/models"
	EndpointHealth   = "/healthz"
	EndpointVars     = "/debug/vars"
	EndpointReload   = "/admin/reload"
)

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's metrics state (tests and the /debug/vars
// handler read it).
func (s *Server) Metrics() *Metrics { return s.met }

// DrainRetryAfter is the Retry-After hint (seconds) on draining 503s: long
// enough for a restart or rollout to complete, short enough that balancers
// re-probe promptly.
const DrainRetryAfter = 5

// ReasonHeader distinguishes otherwise-identical 503s across the serving
// tier: a replica refusing work because it is shutting down, the front tier
// shedding because every shard is saturated, and the front tier relaying an
// upstream failure are different conditions that clients (and the
// gendt-bench error breakdown) must be able to tell apart.
const ReasonHeader = "X-Gendt-Reason"

// ReasonHeader values.
const (
	ReasonDraining = "draining" // replica is draining (shutdown/rollout)
	ReasonShed     = "shed"     // front tier shed: per-replica in-flight caps full
	ReasonUpstream = "upstream" // front tier exhausted retries against replicas
)

// StartDrain flips the server into draining mode: new /v1/generate
// requests get an immediate 503 with a Retry-After hint (so load
// balancers fail over instead of queueing behind a dying process) and
// /healthz starts failing with status "draining". Requests already
// admitted keep running; call Close to wait them out.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains every batcher: admitted requests finish, new ones get 503.
func (s *Server) Close() {
	s.StartDrain()
	s.mu.Lock()
	bs := make([]*Batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		bs = append(bs, b)
	}
	s.mu.Unlock()
	for _, b := range bs {
		b.Close()
	}
}

// Reload re-reads every registered model from disk (SIGHUP handler and
// POST /admin/reload both land here).
func (s *Server) Reload() ([]ReloadStatus, int) { return s.opt.Registry.Reload() }

// batcher returns (creating if needed) the admission layer for a model.
func (s *Server) batcher(name string) *Batcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.batchers[name]; ok {
		return b
	}
	reg := s.opt.Registry
	b := NewBatcher(func() core.Generator {
		g, _ := reg.Get(name)
		return g
	}, s.opt.BatchWindow, s.opt.MaxBatch, s.met)
	s.batchers[name] = b
	return b
}

// instrument wraps a handler with method filtering, request counting,
// in-flight tracking, and latency observation.
func (s *Server) instrument(name, method string, h http.HandlerFunc) http.HandlerFunc {
	st := s.met.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			WriteError(w, http.StatusMethodNotAllowed, fmt.Sprintf("use %s", method))
			return
		}
		st.Requests.Add(1)
		st.InFlight.Add(1)
		start := time.Now()
		sw := &StatusWriter{ResponseWriter: w, Code: http.StatusOK}
		h(sw, r)
		st.InFlight.Add(-1)
		st.Latency.Observe(time.Since(start))
		if sw.Code >= 400 {
			st.Errors.Add(1)
		}
	}
}

// StatusWriter records the response code for error accounting. Start
// Code at http.StatusOK: a handler that never calls WriteHeader sends 200.
type StatusWriter struct {
	http.ResponseWriter
	Code int
}

// WriteHeader records code and forwards it.
func (w *StatusWriter) WriteHeader(code int) {
	w.Code = code
	w.ResponseWriter.WriteHeader(code)
}

// RoutePoint is one JSON route sample.
type RoutePoint struct {
	T   float64 `json:"t"`
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// GenerateRequest is the /v1/generate request body. Exactly one of Route
// and RouteCSV must be set.
type GenerateRequest struct {
	// Model selects a registry entry; empty works when one model is loaded.
	Model string `json:"model,omitempty"`
	// Seed makes the response deterministic; 0 draws a fresh seed (echoed
	// back in the response so the result can be reproduced).
	Seed int64 `json:"seed,omitempty"`
	// Samples fans the request out into N independent generations; the
	// response then carries a min/max/mean envelope (paper Figure 9).
	Samples int `json:"samples,omitempty"`
	// Route is the trajectory as JSON points.
	Route []RoutePoint `json:"route,omitempty"`
	// RouteCSV is the trajectory as "t,lat,lon" CSV (gendt-route output).
	RouteCSV string `json:"route_csv,omitempty"`
}

// EnvelopeJSON is the per-channel min/max/mean over the request's samples.
type EnvelopeJSON struct {
	Min  [][]float64 `json:"min"`
	Max  [][]float64 `json:"max"`
	Mean [][]float64 `json:"mean"`
}

// GenerateResponse is the /v1/generate response body. Series holds the
// first sample in physical units, indexed [channel][t].
type GenerateResponse struct {
	Model      string        `json:"model"`
	Seed       int64         `json:"seed"`
	Samples    int           `json:"samples"`
	Channels   []string      `json:"channels"`
	IntervalS  float64       `json:"interval_s"`
	Steps      int           `json:"steps"`
	Series     [][]float64   `json:"series"`
	Envelope   *EnvelopeJSON `json:"envelope,omitempty"`
	PrepCached bool          `json:"prep_cached"`
	GenMs      float64       `json:"gen_ms"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeDraining(w, ErrDraining.Error())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBody)
	var req GenerateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}

	tr, err := req.trajectory(s.opt.MaxSteps)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	name, model, ok := s.opt.Registry.Resolve(req.Model)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q (have %s)",
			req.Model, strings.Join(s.opt.Registry.Names(), ", ")))
		return
	}
	samples := req.Samples
	if samples <= 0 {
		samples = 1
	}
	if samples > s.opt.MaxSamples {
		WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("samples %d exceeds limit %d", samples, s.opt.MaxSamples))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.seedSeq()
	}

	seq, cached := s.opt.World.Prepare(tr, model)
	if cached {
		s.met.PrepHits.Add(1)
	} else {
		s.met.PrepMisses.Add(1)
	}

	jobs := make([]core.GenJob, samples)
	for i := range jobs {
		jobs[i] = core.GenJob{Seq: seq, Seed: core.DeriveSeed(seed, i)}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opt.Timeout)
	defer cancel()
	start := time.Now()
	outs, err := s.batcher(name).Generate(ctx, jobs)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			writeDraining(w, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			WriteError(w, http.StatusGatewayTimeout, "generation timed out")
		default:
			WriteError(w, http.StatusBadRequest, err.Error())
		}
		return
	}

	resp := GenerateResponse{
		Model:      name,
		Seed:       seed,
		Samples:    samples,
		IntervalS:  seq.Interval,
		Steps:      seq.Len(),
		Series:     outs[0],
		PrepCached: cached,
		GenMs:      float64(time.Since(start)) / float64(time.Millisecond),
	}
	for _, ch := range model.ModelConfig().Channels {
		resp.Channels = append(resp.Channels, ch.Name)
	}
	if samples > 1 {
		min, max, mean := core.Envelope(outs)
		resp.Envelope = &EnvelopeJSON{Min: min, Max: max, Mean: mean}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// trajectory converts the request's route into a geo.Trajectory.
func (req *GenerateRequest) trajectory(maxSteps int) (geo.Trajectory, error) {
	if len(req.Route) > 0 && req.RouteCSV != "" {
		return nil, errors.New("set route or route_csv, not both")
	}
	var tr geo.Trajectory
	switch {
	case len(req.Route) > 0:
		tr = make(geo.Trajectory, len(req.Route))
		for i, p := range req.Route {
			tr[i] = geo.Sample{Point: geo.Point{Lat: p.Lat, Lon: p.Lon}, T: p.T}
		}
	case req.RouteCSV != "":
		var err error
		tr, err = export.ReadTrajectoryCSV(strings.NewReader(req.RouteCSV))
		if err != nil {
			return nil, fmt.Errorf("route_csv: %w", err)
		}
	default:
		return nil, errors.New("missing route: set route (JSON points) or route_csv")
	}
	if len(tr) < 2 {
		return nil, fmt.Errorf("route needs at least 2 samples, got %d", len(tr))
	}
	if len(tr) > maxSteps {
		return nil, fmt.Errorf("route has %d samples, limit %d", len(tr), maxSteps)
	}
	for i, p := range tr {
		switch {
		case !finite(p.T) || !finite(p.Lat) || !finite(p.Lon):
			return nil, fmt.Errorf("route point %d: t, lat and lon must be finite", i)
		case math.Abs(p.Lat) > 90 || math.Abs(p.Lon) > 180:
			return nil, fmt.Errorf("route point %d: lat %v or lon %v out of range", i, p.Lat, p.Lon)
		case i > 0 && !finite(p.T-tr[i-1].T):
			return nil, fmt.Errorf("route point %d: time step is not finite", i)
		}
	}
	return tr, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ModelsResponse is the /v1/models response body.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, ModelsResponse{Models: s.opt.Registry.List()})
}

// HealthResponse is the /healthz response body.
type HealthResponse struct {
	Status  string  `json:"status"`
	Models  int     `json:"models"`
	World   string  `json:"world"`
	UptimeS float64 `json:"uptime_s"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:  "ok",
		Models:  len(s.opt.Registry.Names()),
		World:   s.opt.World.Name(),
		UptimeS: time.Since(s.met.start).Seconds(),
	}
	code := http.StatusOK
	if s.Draining() {
		// Fail the probe during shutdown so orchestrators stop routing
		// here before the listener actually closes.
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(DrainRetryAfter))
		w.Header().Set(ReasonHeader, ReasonDraining)
	}
	WriteJSON(w, code, resp)
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.met.Snapshot())
}

// ReloadResponse is the /admin/reload response body.
type ReloadResponse struct {
	Models   []ReloadStatus `json:"models"`
	Failures int            `json:"failures"`
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	statuses, failures := s.Reload()
	code := http.StatusOK
	if failures > 0 {
		code = http.StatusInternalServerError
	}
	WriteJSON(w, code, ReloadResponse{Models: statuses, Failures: failures})
}

// WriteJSON sends v as indented JSON with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// WriteError sends the JSON error body {"error": msg} with the given
// status code.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// writeDraining is the 503 every draining rejection goes through: the
// Retry-After header tells clients and balancers when to try again, and the
// reason header tells them why this 503 happened (vs a front-tier shed).
func writeDraining(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(DrainRetryAfter))
	w.Header().Set(ReasonHeader, ReasonDraining)
	WriteError(w, http.StatusServiceUnavailable, msg)
}
