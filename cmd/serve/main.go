// Command serve runs the inference-as-a-service HTTP server: it loads a
// trained weights checkpoint once and answers testability queries over
// JSON until terminated (see docs/SERVING.md and docs/API.md).
//
// Usage:
//
//	serve -model model.gob [-addr :8080] [-max-concurrent 4]
//	      [-max-queue 64] [-timeout 30s] [-cache 32]
//	      [-drain-timeout 30s] [-access-log PATH] [-slow-ms 1000]
//	      [-sample 16] [-f32]
//	serve -demo             # untrained paper-architecture model
//
// -model takes a weights checkpoint (core.SaveCheckpoint), such as the
// cascade `gcntest train` writes. -f32 compiles designs through the
// model's float32 inference path (scores within ~1e-4 of float64; edit
// deltas always run exact float64). On SIGINT/SIGTERM the server flips
// /healthz to "draining", stops accepting connections, and waits up to
// -drain-timeout for in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	model := fs.String("model", "", "weights checkpoint (core.SaveCheckpoint, e.g. gcntest train output)")
	demo := fs.Bool("demo", false, "serve an untrained paper-architecture model (smoke tests, curl demos)")
	maxConcurrent := fs.Int("max-concurrent", 4, "requests doing work simultaneously")
	maxQueue := fs.Int("max-queue", 64, "requests allowed to wait for a slot before shedding")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	cacheEntries := fs.Int("cache", 32, "compiled-design LRU capacity (negative disables)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	accessLog := fs.String("access-log", "", `structured JSON access-log destination ("-" for stdout, empty disables)`)
	slowMs := fs.Int("slow-ms", 1000, "slow-request threshold in ms; slow requests always log with phase breakdowns (0 disables)")
	sample := fs.Int("sample", 16, "access-log sampling: log one in N fast requests (1 logs all)")
	f32 := fs.Bool("f32", false, "score submitted designs with float32 inference (~1e-4 divergence; deltas stay float64)")
	version := fs.Bool("version", false, "print the build's git revision and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("serve", revision())
		return nil
	}

	var pred core.IncrementalPredictor
	var info string
	switch {
	case *model != "":
		p, err := core.LoadCheckpointFile(*model)
		if err != nil {
			return err
		}
		pred, info = p, describe(p, *model)
	case *demo:
		pred = core.MustNewModel(core.DefaultConfig())
		info = "demo (untrained, default architecture)"
		log.Println("WARNING: -demo serves an UNTRAINED model; scores are meaningless")
	default:
		return errors.New("one of -model or -demo is required")
	}

	// Live /metrics, /snapshot and /debug/requests are part of the
	// service contract, so instrumentation is always on.
	obs.Enable()

	var logDst io.Writer
	switch *accessLog {
	case "":
	case "-":
		logDst = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		defer f.Close()
		logDst = f
	}

	srv, err := serve.New(serve.Options{
		Predictor:       pred,
		ModelInfo:       info,
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		DefaultTimeout:  *timeout,
		CacheEntries:    *cacheEntries,
		AccessLog:       logDst,
		AccessLogSample: *sample,
		SlowRequest:     time.Duration(*slowMs) * time.Millisecond,
		Float32Scoring:  *f32,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving %s on %s", info, *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: advertise draining on /healthz, then let Shutdown
	// finish in-flight requests within the grace period.
	log.Printf("signal received; draining (up to %s)", *drainTimeout)
	srv.StartDraining()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Println("drained cleanly")
	return nil
}

// describe summarizes a loaded predictor for /healthz.
func describe(p core.IncrementalPredictor, path string) string {
	switch m := p.(type) {
	case *core.Model:
		return fmt.Sprintf("model %s (%d params)", path, m.NumParams())
	case *core.MultiStage:
		total := 0
		for _, s := range m.Stages {
			total += s.NumParams()
		}
		return fmt.Sprintf("multistage %s (%d stages, %d params)", path, len(m.Stages), total)
	default:
		return path
	}
}

// revision is the -version payload: `git describe --always --dirty`
// when the binary runs inside the repository, "unknown" otherwise.
func revision() string {
	if r := obs.GitDescribe(); r != "" {
		return r
	}
	return "unknown"
}
