// Command gendt-serve runs the long-lived GenDT inference service: it
// loads one or more trained models into a hot-reloadable registry, builds
// the dataset world once, and serves virtual drive tests over HTTP.
//
// Endpoints:
//
//	POST /v1/generate   route (JSON points or CSV) -> KPI series (+envelope)
//	GET  /v1/models     registered models
//	GET  /healthz       liveness
//	GET  /debug/vars    request/latency/batching/runtime metrics (JSON)
//	POST /admin/reload  re-read every model file from disk
//
// SIGHUP also reloads the registry; SIGINT/SIGTERM drain in-flight
// requests before exiting.
//
// Usage:
//
//	gendt-serve -model gendt-model.json [-model name=path ...]
//	            [-addr :8080] [-dataset NAME] [-scale F] [-seed N]
//	            [-batch-window 2ms] [-batch-max 64]
//	            [-max-body 8388608] [-max-samples 64] [-workers N]
//	            [-timeout 30s] [-precision f64|f32]
//	            [-pprof-addr 127.0.0.1:6060]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gendt/internal/core"
	"gendt/internal/dataset"
	"gendt/internal/serve"
)

// modelFlags collects repeated -model flags ("path" or "name=path").
type modelFlags []serve.ModelSource

func (f *modelFlags) String() string {
	var parts []string
	for _, s := range *f {
		parts = append(parts, s.Name+"="+s.Path)
	}
	return strings.Join(parts, ",")
}

func (f *modelFlags) Set(v string) error {
	name, path, found := strings.Cut(v, "=")
	if !found {
		path = v
		name = "default"
	}
	if name == "" || path == "" {
		return fmt.Errorf("want name=path or path, got %q", v)
	}
	*f = append(*f, serve.ModelSource{Name: name, Path: path})
	return nil
}

func main() {
	var models modelFlags
	flag.Var(&models, "model", "trained model to serve, as path or name=path (repeatable)")
	addr := flag.String("addr", ":8080", "listen address")
	which := flag.String("dataset", "A", "registered scenario name (A, B, NR5G, Tunnel, Suburb, ...); must match training")
	scale := flag.Float64("scale", 0.05, "dataset scale (must match training for the same world)")
	seed := flag.Int64("seed", 1, "dataset seed (must match training for the same world)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "micro-batching window; 0 coalesces only queued requests")
	batchMax := flag.Int("batch-max", serve.DefaultMaxBatch, "max generation jobs per coalesced batch")
	timeout := flag.Duration("timeout", serve.DefaultTimeout, "per-request generation timeout")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBody, "max request body bytes")
	maxSamples := flag.Int("max-samples", serve.DefaultMaxSamples, "max samples per request")
	workers := flag.Int("workers", 0, "generation fan-out width override (0 = per-model setting)")
	precision := flag.String("precision", "", "serving backend for every model: f64 (live float64) or f32 (frozen inference kernels); empty honours each model file's own preference")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (e.g. 127.0.0.1:6060); empty disables profiling")
	flag.Parse()

	logger := log.New(os.Stderr, "gendt-serve: ", log.LstdFlags)
	if len(models) == 0 {
		logger.Fatal("at least one -model is required")
	}
	if *precision != "" {
		prec, err := core.ParsePrecision(*precision)
		if err != nil {
			logger.Fatal(err)
		}
		for i := range models {
			models[i].Precision = prec
		}
	}

	reg, err := serve.NewRegistry(models, *workers)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("loaded %d model(s): %s", len(reg.Names()), strings.Join(reg.Names(), ", "))

	logger.Printf("building dataset %s world (scale=%g seed=%d)...", *which, *scale, *seed)
	world, err := serve.NewWorld(*which, dataset.Spec{Seed: *seed, Scale: *scale})
	if err != nil {
		logger.Fatal(err)
	}

	srv := serve.New(serve.Options{
		Registry:    reg,
		World:       world,
		BatchWindow: *batchWindow,
		MaxBatch:    *batchMax,
		Timeout:     *timeout,
		MaxBody:     *maxBody,
		MaxSamples:  *maxSamples,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Profiling stays off the serving mux and off by default: pprof
	// exposes heap and goroutine internals, so it only ever binds the
	// explicitly requested (typically loopback) address.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			psrv := &http.Server{
				Addr:              *pprofAddr,
				Handler:           pmux,
				ReadHeaderTimeout: 10 * time.Second,
			}
			logger.Printf("pprof on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof: %v", err)
			}
		}()
	}

	// SIGHUP hot-reloads every model file; a failed file keeps its old
	// model in service.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			statuses, failures := srv.Reload()
			for _, st := range statuses {
				if st.Error != "" {
					logger.Printf("reload %s: %s", st.Name, st.Error)
				}
			}
			logger.Printf("reload: %d model(s), %d failure(s)", len(statuses), failures)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Print("shutting down: draining in-flight requests")
		// Flip into draining first: new requests get 503 + Retry-After
		// and /healthz fails, so balancers route away while in-flight
		// work finishes under Shutdown.
		srv.StartDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}()

	logger.Printf("serving on %s (batch window %s, max batch %d)", *addr, *batchWindow, *batchMax)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	srv.Close() // drain batchers after the listener stops accepting
	logger.Print("bye")
}
