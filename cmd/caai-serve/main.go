// Command caai-serve runs CAAI as a resident identification service: it
// loads one or more trained models once (or trains one in-process) and
// answers identification requests over HTTP until interrupted.
//
// Usage:
//
//	caai-serve -model caai-model.json                      # serve a saved model
//	caai-serve -model prod=a.json -model canary=b.json     # several named models
//	caai-serve -train 12 -addr :9090                       # train in-process, then serve
//
// Endpoints: POST /v1/identify (synchronous), POST /v1/batch plus
// GET /v1/jobs/{id} (asynchronous), POST /v1/pcap (upload a packet
// capture; per-flow identifications land in the async job payload),
// POST /v1/models/reload (hot-swap retrained model files without
// downtime), GET /v1/models, GET /v1/traces plus GET /v1/traces/{id}
// (tail-sampled request traces from the flight recorder; tune with
// -trace-sample and -trace-slow), GET /healthz, GET /metrics. See the
// README's "Serving identifications", "Identifying from packet
// captures" and "Observability" sections for curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	caai "repro"
	"repro/internal/eval"
	"repro/internal/service"
)

// loadEvalSummary resolves -eval: a file loads that trajectory point, a
// directory loads only the newest ACCURACY_<n>.json of its history (old
// or stale points are neither parsed nor able to block startup).
func loadEvalSummary(path string) (eval.Summary, error) {
	info, err := os.Stat(path)
	if err != nil {
		return eval.Summary{}, err
	}
	p := eval.Point{}
	if info.IsDir() {
		p, err = eval.LatestPoint(path)
	} else {
		p, err = eval.ReadPoint(path)
	}
	if err != nil {
		return eval.Summary{}, err
	}
	return p.Summary, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caai-serve:", err)
		os.Exit(1)
	}
}

// modelList collects repeated -model flags ("[name=]path").
type modelList []string

func (m *modelList) String() string { return strings.Join(*m, ", ") }

func (m *modelList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty -model value")
	}
	*m = append(*m, v)
	return nil
}

// splitModelFlag parses one -model value. A bare path names the model
// after its file base (sans extension).
func splitModelFlag(v string) (name, path string, err error) {
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, path = v[:i], v[i+1:]
		if name == "" || path == "" {
			return "", "", fmt.Errorf("-model %q: want [name=]path", v)
		}
		return name, path, nil
	}
	base := filepath.Base(v)
	return strings.TrimSuffix(base, filepath.Ext(base)), v, nil
}

// run is the testable body of the command: it serves until ctx is
// cancelled (then shuts down gracefully) or the listener fails.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("caai-serve", flag.ContinueOnError)
	// Parse errors surface once, via the returned error; only an explicit
	// -h prints usage, on the success stream.
	fs.SetOutput(io.Discard)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	var models modelList
	fs.Var(&models, "model", "model file saved by caai-train -save, as [name=]path; repeatable, first is the default model")
	train := fs.Int("train", 0, "without -model: train an in-process random forest with this many conditions per (algorithm, wmax) pair")
	trees := fs.Int("trees", 0, "forest size for -train (0 = paper's 80)")
	seed := fs.Int64("seed", 2011, "random seed for -train")
	cache := fs.Int("cache", 0, "LRU result cache entries (0 = default 4096, negative disables)")
	queue := fs.Int("queue", 0, "bounded async job queue length (0 = default 64)")
	workers := fs.Int("workers", 0, "concurrent batch executors (0 = 1)")
	parallelism := fs.Int("parallelism", 0, "engine pool width per running batch, and concurrent /v1/identify probes (0 = all CPUs)")
	maxBatch := fs.Int("max-batch", 0, "max jobs per POST /v1/batch (0 = default 10000)")
	retain := fs.Int("retain", 0, "finished async jobs kept pollable before eviction (0 = default 256)")
	evalPath := fs.String("eval", "", "ACCURACY_<n>.json file or history directory; the latest point's summary is exposed on GET /metrics")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof profiling handlers at /debug/pprof/ (opt-in: exposes goroutine and heap internals)")
	logRequests := fs.Bool("log-requests", false, "log every request (method, route, status, duration, request ID) as structured slog lines on stderr")
	traceSample := fs.Int("trace-sample", service.DefaultTraceSampleN, "tail-sampling rate for normal traffic: keep 1 in N traces (1 keeps all, negative keeps none); error/unsure/slow traces are always kept")
	traceSlow := fs.Duration("trace-slow", service.DefaultTraceSlow, "requests at least this slow are always trace-retained regardless of sampling")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.Usage()
			return nil // a help request is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if len(models) > 0 && *train > 0 {
		return fmt.Errorf("-model and -train are mutually exclusive: -train only applies when no saved model is given")
	}
	// Validate every -model flag (including name collisions, which would
	// otherwise silently hot-swap one model over another) before loading.
	type namedModel struct{ name, path string }
	var toLoad []namedModel
	seen := map[string]string{}
	for _, v := range models {
		name, path, err := splitModelFlag(v)
		if err != nil {
			return err
		}
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("-model name %q used for both %s and %s: give one an explicit name=path", name, prev, path)
		}
		seen[name] = path
		toLoad = append(toLoad, namedModel{name, path})
	}
	// Resolve -eval before the (potentially minutes-long) model loading and
	// training: a typoed path should fail immediately.
	var evalSummary *eval.Summary
	if *evalPath != "" {
		sum, err := loadEvalSummary(*evalPath)
		if err != nil {
			return fmt.Errorf("-eval: %w", err)
		}
		evalSummary = &sum
	}

	reg := service.NewRegistry()
	for _, nm := range toLoad {
		m, err := reg.Load(nm.name, nm.path)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "caai-serve: loaded %s model %q from %s\n", m.Backend, m.Name, nm.path)
	}
	if reg.Len() == 0 {
		if *train <= 0 {
			return fmt.Errorf("no models: pass -model path (see caai-train -save) or -train N to train in-process")
		}
		fmt.Fprintf(stdout, "caai-serve: training random forest (%d conditions per pair)...\n", *train)
		id, err := caai.Train(caai.TrainingOptions{ConditionsPerPair: *train, Trees: *trees, Seed: *seed})
		if err != nil {
			return err
		}
		reg.Add("default", id.Classifier())
	}

	svcCfg := service.Config{
		CacheSize:    *cache,
		QueueSize:    *queue,
		Workers:      *workers,
		Parallelism:  *parallelism,
		MaxBatchJobs: *maxBatch,
		JobRetention: *retain,
		TraceSampleN: *traceSample,
		TraceSlow:    *traceSlow,
	}
	if *logRequests {
		svcCfg.AccessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	svc := service.New(reg, svcCfg)
	defer svc.Close()

	if evalSummary != nil {
		svc.SetEvalSummary(*evalSummary)
		fmt.Fprintf(stdout, "caai-serve: serving eval summary %q (overall accuracy %.1f%%) on /metrics\n",
			evalSummary.Label, evalSummary.OverallAccuracy*100)
	}

	handler := svc.Handler()
	if *pprofOn {
		// The API handler keeps the root; pprof mounts beside it on an
		// explicit mux (not http.DefaultServeMux, which third-party imports
		// can pollute).
		root := http.NewServeMux()
		root.Handle("/", handler)
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = root
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(stdout, "caai-serve: listening on http://%s (models: %s)\n", ln.Addr(), strings.Join(reg.Names(), ", "))
	if *pprofOn {
		fmt.Fprintf(stdout, "caai-serve: pprof enabled at http://%s/debug/pprof/\n", ln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errc // Serve has returned ErrServerClosed
		fmt.Fprintln(stdout, "caai-serve: shut down")
		return nil
	case err := <-errc:
		return err
	}
}
