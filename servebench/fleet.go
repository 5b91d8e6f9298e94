package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/lb"
	"gendt/internal/serve"
)

// The served system: gendt-lb in front of two gendt-serve replicas. The
// model has the gendt-train shape defaults with 2 epochs and 2 workers;
// the replicas keep the gendt-serve batching defaults.
const (
	replicas    = 2
	batchWindow = 2 * time.Millisecond
	worldName   = "A"
	worldSeed   = 1
	worldScale  = 0.05
)

// replicaAddrs are fixed so the balancer's ring, which hashes replica URLs,
// places a route on the same replica in every run; that keeps the fixed
// route sets' placement a function of the workload seed. A busy port
// falls back to a free one.
var replicaAddrs = [replicas]string{"127.0.0.1:38411", "127.0.0.1:38412"}

func trainConfig() core.Config {
	return core.Config{
		Channels: core.StandardChannels(),
		Hidden:   32, BatchLen: 24, StepLen: 6, MaxCells: 10,
		Epochs: 2, Seed: 1, Workers: 2,
	}
}

// setupTimes splits one set-up into its stages.
type setupTimes struct {
	World, Train, Freeze, Fleet time.Duration
}

func (s setupTimes) total() time.Duration { return s.World + s.Train + s.Freeze + s.Fleet }

// fleet is one running serving stack on loopback TCP.
type fleet struct {
	ds      *dataset.Dataset
	model   *core.InferModel
	fp      uint64 // trained weight fingerprint
	servers []*serve.Server
	urls    []string // replica base URLs
	bal     *lb.LB
	lbURL   string

	https []*http.Server
	wg    sync.WaitGroup // one per http.Server's Serve goroutine
}

// setup builds the world, trains and freezes the model and starts the
// fleet, returning once the balancer and every replica answer /healthz.
// A non-nil tracer wraps the handlers and the generator.
func setup(tr *tracer) (*fleet, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	ds, err := dataset.NewByName(worldName, dataset.Spec{Seed: worldSeed, Scale: worldScale})
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	cfg := trainConfig()
	m := core.NewModel(cfg)
	if _, err := m.TrainWithOptions(core.PrepareAll(ds.TrainRuns(), cfg.Channels, cfg.MaxCells), core.TrainOpts{}); err != nil {
		return nil, st, fmt.Errorf("train: %w", err)
	}
	t2 := time.Now()
	im, err := m.Freeze(core.PrecisionF32)
	if err != nil {
		return nil, st, err
	}
	t3 := time.Now()

	f := &fleet{ds: ds, model: im, fp: m.Fingerprint()}
	var gen core.Generator = im
	if tr != nil {
		gen = &tracedGen{Generator: im, tr: tr}
	}
	for i := 0; i < replicas; i++ {
		srv := serve.New(serve.Options{
			Registry:    serve.NewStaticRegistry("gendt", gen),
			World:       serve.NewWorldFrom(ds),
			BatchWindow: batchWindow,
			MaxBatch:    serve.DefaultMaxBatch,
		})
		f.servers = append(f.servers, srv)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.wrap("serve", "lb", h)
		}
		url, err := f.listen(h, replicaAddrs[i])
		if err != nil {
			f.close()
			return nil, st, err
		}
		f.urls = append(f.urls, url)
	}
	f.bal, err = lb.New(lb.Options{Replicas: f.urls})
	if err != nil {
		f.close()
		return nil, st, err
	}
	f.bal.Start()
	var h http.Handler = f.bal.Handler()
	if tr != nil {
		h = tr.wrap("lb", "client", h)
	}
	if f.lbURL, err = f.listen(h, "127.0.0.1:0"); err != nil {
		f.close()
		return nil, st, err
	}
	if err := f.waitHealthy(10 * time.Second); err != nil {
		f.close()
		return nil, st, err
	}
	t4 := time.Now()
	st = setupTimes{World: t1.Sub(t0), Train: t2.Sub(t1), Freeze: t3.Sub(t2), Fleet: t4.Sub(t3)}
	return f, st, nil
}

// listen serves h on addr, or on a free loopback port when addr is
// taken, and returns its base URL.
func (f *fleet) listen(h http.Handler, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleet) waitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for _, base := range append([]string{f.lbURL}, f.urls...) {
		for {
			resp, err := hc.Get(base + serve.EndpointHealth)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy after %s", base, limit)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// close stops the listeners, the balancer's probes and the replicas'
// batchers, and waits for every serve goroutine to return.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- { // balancer first
		// On timeout Shutdown has still closed the listener, so Serve
		// returns; nothing is left to do with the error.
		_ = f.https[i].Shutdown(ctx)
	}
	if f.bal != nil {
		f.bal.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.wg.Wait()
}

// owner names the replica the balancer's ring routes a request for rt to.
func (f *fleet) owner(rt []serve.RoutePoint) string {
	return f.bal.Ring().Lookup(lb.RouteKey("", rt, ""))
}
