package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gendt/internal/core"
	"gendt/internal/lb"
	"gendt/internal/serve"
)

// conns bounds the load generator's connections and closed-loop clients:
// one per core of the 2-core reference machine.
const conns = 2

// outcome is one request as the client saw it.
type outcome struct {
	Seed   int64
	Key    uint64    // route key, to count distinct routes
	Due    time.Time // paced windows: when the schedule wanted it sent
	Queued time.Time // paced windows: when the schedule handed it over
	Sent   time.Time
	Done   time.Time
	OK     bool   // 200 and the output gate passed
	Bad    bool   // 200 but the output gate failed
	Err    string // why the request did not succeed
	GenMs  float64
}

type client struct {
	hc    *http.Client
	url   string // the balancer's generate endpoint
	chans []core.ChannelSpec
	tr    *tracer // nil on untraced runs
}

func newClient(lbURL string, chans []core.ChannelSpec, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{
		hc:    &http.Client{Transport: t, Timeout: 30 * time.Second},
		url:   lbURL + serve.EndpointGenerate,
		chans: chans,
		tr:    tr,
	}
}

// post sends one request to url and checks the response through the
// output gate. The response is returned only when it passed.
func (c *client) post(url string, r request, body []byte) (*serve.GenerateResponse, outcome) {
	o := outcome{Seed: r.Seed, Key: lb.RouteKey("", r.Route, "")}
	tracing := c.tr != nil && c.tr.on.Load()
	if tracing {
		c.tr.expect(r)
	}
	o.Sent = time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.Done = time.Now()
		o.Err = err.Error()
		return nil, o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Done = time.Now()
	switch {
	case err != nil:
		o.Err = "read response: " + err.Error()
		return nil, o
	case resp.StatusCode != http.StatusOK:
		o.Err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, data)
		return nil, o
	}
	g, err := validate(r, data, c.chans)
	if err != nil {
		o.Bad = true
		o.Err = "output gate: " + err.Error()
		return nil, o
	}
	o.OK = true
	o.GenMs = g.GenMs
	if tracing {
		c.tr.add(span{Name: "client", Seed: r.Seed, Start: c.tr.since(o.Sent), End: c.tr.since(o.Done)})
	}
	return g, o
}

// window is one measured phase window.
type window struct {
	Start, End time.Time
	Out        []outcome
	Steal      float64 // share of the machine's CPU time stolen by the hypervisor
	CPU        float64 // seconds of CPU time this process used in the window
}

func (w window) seconds() float64 { return w.End.Sub(w.Start).Seconds() }

func (w window) ok() int {
	n := 0
	for _, o := range w.Out {
		if o.OK {
			n++
		}
	}
	return n
}

// closed runs conns clients that each send their next request as soon as
// the previous one completes, until d has passed. The window ends when
// the last client has its final response.
func (c *client) closed(d time.Duration, next func() request) window {
	cpu0, own0 := readCPU(), processCPU()
	w := window{Start: time.Now()}
	deadline := w.Start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []outcome
			for time.Now().Before(deadline) {
				r := next()
				_, o := c.post(c.url, r, r.body())
				local = append(local, o)
			}
			mu.Lock()
			w.Out = append(w.Out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.End = time.Now()
	w.Steal = readCPU().stealSince(cpu0)
	w.CPU = processCPU() - own0
	return w
}

// paced sends d×rate requests on a fixed schedule over conns connections.
// Bodies are encoded before the window starts. A request that finds both
// connections busy waits in the queue, and its latency, timed from when
// it was due, includes that wait.
func (c *client) paced(d time.Duration, rate float64, next func() request) window {
	n := int(d.Seconds() * rate)
	reqs := make([]request, n)
	bodies := make([][]byte, n)
	for i := range reqs {
		reqs[i] = next()
		bodies[i] = reqs[i].body()
	}
	type item struct {
		i           int
		due, queued time.Time
	}
	// Sized to the window's sends, so the schedule never blocks on a busy
	// connection.
	queue := make(chan item, n)
	w := window{Out: make([]outcome, n)}
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				_, o := c.post(c.url, reqs[it.i], bodies[it.i])
				o.Due, o.Queued = it.due, it.queued
				w.Out[it.i] = o
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	cpu0 := readCPU()
	w.Start = time.Now()
	for i := 0; i < n; i++ {
		due := w.Start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		queue <- item{i: i, due: due, queued: time.Now()}
	}
	close(queue)
	wg.Wait()
	w.End = time.Now()
	w.Steal = readCPU().stealSince(cpu0)
	return w
}

// cpuTimes is the machine-wide CPU line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal float64 }

// readCPU reads /proc/stat; on a system without it every share is NaN.
func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTimes) stealSince(t0 cpuTimes) float64 {
	return ratio(t.steal-t0.steal, t.total-t0.total)
}

// processCPU is the user plus system CPU time this process has used, in
// seconds. Time the hypervisor steals is not in it.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
