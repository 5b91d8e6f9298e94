package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gendt/internal/core"
	"gendt/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its seed, which serves as the request's identifier; Parent names
// the layer whose span encloses this one.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Seed   int64  `json:"seed"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Jobs   int    `json:"jobs,omitempty"` // generate spans: this request's jobs in the call
}

// genCall is one GenerateJobs call as the batcher issued it.
type genCall struct {
	Start, End int64
	Steps      int // sum over jobs of the sequence length
}

// tracer records spans from wrappers around the fleet's public
// boundaries. It records only while on, so one process can alternate
// traced and untraced windows; spans stay in memory until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu     sync.Mutex
	spans  []span
	calls  []genCall
	jobReq map[int64]int64 // job seed -> request seed, via core.DeriveSeed
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), jobReq: make(map[int64]int64)}
}

func (t *tracer) since(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// expect registers a request before it is sent, so the generate wrapper
// can map each job back to the request that carried it.
func (t *tracer) expect(r request) {
	t.mu.Lock()
	for i := 0; i < r.Samples; i++ {
		t.jobReq[core.DeriveSeed(r.Seed, i)] = r.Seed
	}
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times a handler's /v1/generate requests as spans named name.
// The request seed is read from the body's leading "seed" field, which
// costs one body copy per request; the trace overhead share includes it.
func (t *tracer) wrap(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != serve.EndpointGenerate {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.add(span{Name: name, Parent: parent, Seed: leadingSeed(body), Start: t.since(start), End: t.since(end)})
	})
}

// leadingSeed parses the seed of a body that starts with {"seed":N; any
// other body yields 0, which matches no request.
func leadingSeed(body []byte) int64 {
	const prefix = `{"seed":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0
	}
	rest := body[len(prefix):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0
	}
	v, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// tracedGen is the served generator with GenerateJobs timed. It reaches
// the replicas through serve.NewStaticRegistry, so the batcher calls it
// exactly as it calls the model.
type tracedGen struct {
	core.Generator
	tr *tracer
}

func (g *tracedGen) GenerateJobs(jobs []core.GenJob) [][][]float64 {
	if !g.tr.on.Load() {
		return g.Generator.GenerateJobs(jobs)
	}
	start := time.Now()
	out := g.Generator.GenerateJobs(jobs)
	end := time.Now()
	t := g.tr
	s, e := t.since(start), t.since(end)
	perReq := make(map[int64]int)
	steps := 0
	t.mu.Lock()
	for _, j := range jobs {
		perReq[t.jobReq[j.Seed]]++
		steps += j.Seq.Len()
	}
	for seed, n := range perReq {
		t.spans = append(t.spans, span{Name: "generate", Parent: "serve", Seed: seed, Start: s, End: e, Jobs: n})
	}
	t.calls = append(t.calls, genCall{Start: s, End: e, Steps: steps})
	t.mu.Unlock()
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
