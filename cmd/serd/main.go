// Command serd runs the soft-error analysis service: a long-running
// HTTP/JSON server exposing the paper's ASERTA analysis and SERTOPT
// optimization over a shared characterized cell library (one
// characterization per gate class, shared across all requests) with a
// bounded worker pool and FIFO job queue.
//
// Usage:
//
//	serd [-addr :8080] [-coarse] [-workers N] [-queue N]
//	     [-libcache lib.json] [-journal DIR] [-artifact-dir DIR]
//	     [-sens-mem-budget BYTES]
//	     [-job-timeout 15m] [-max-attempts 3]
//	     [-shard-name NAME] [-register ROUTER-URL [-advertise URL]]
//	     [-log-level info] [-log-format text] [-pprof ADDR]
//	serd -route "name=url,name=url" [-addr :8080] [-health-interval 2s]
//
// Endpoints: POST /v1/analyze, POST /v1/optimize, POST /v1/batch,
// GET /v1/jobs/{id}, GET /healthz, GET /readyz, GET /metrics (JSON, or
// Prometheus text with ?format=prometheus), GET /debug/requests. See
// docs/api.md for the full HTTP API reference and docs/operations.md
// for durability/recovery semantics, multi-node topologies and the
// observability endpoints.
//
// Logs are structured (log/slog) on stderr: human-readable text by
// default, one JSON object per line with -log-format json; -log-level
// debug includes a per-request trace line keyed by X-Request-ID.
// -pprof ADDR serves net/http/pprof on its own listener, so profiling
// is reachable in production without exposing it on the service port.
//
// With -journal, accepted async jobs are persisted to an append-only,
// fsync'd log; a restart on the same directory re-enqueues jobs that
// were queued or running and serves finished results under their
// original IDs.
//
// With -artifact-dir, every compiled circuit is also persisted as a
// versioned, checksummed on-disk artifact keyed by content hash; a
// restart on the same directory serves the first request for any
// previously-seen netlist from disk without recompiling. Corrupt
// artifacts are detected, removed and recompiled. -sens-mem-budget
// bounds the transient memory of one sensitization analysis and sizes
// the fault groups of the sequential fault chase; larger jobs run in
// chunks or groups with bit-identical results.
//
// With -route, the process runs as a multi-node coordinator instead of
// an analysis shard: it speaks the same wire protocol but
// consistent-hash-routes every request to the shard whose compiled-
// circuit cache already holds it (see internal/router). Shards may be
// listed statically in the flag, registered dynamically via POST
// /v1/shards, or self-register by running with -register pointing at
// the router.
//
// Shutdown: the first SIGINT/SIGTERM drains gracefully (running jobs
// finish and persist; queued jobs stay journaled for the next start;
// a self-registered shard deregisters from its router); a second
// signal forces immediate exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/journal"
	"repro/internal/logicsim"
	"repro/internal/router"
	"repro/internal/serd"
	"repro/serclient"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		coarse      = flag.Bool("coarse", false, "use the coarse characterization grid (faster cold starts)")
		workers     = flag.Int("workers", 0, "concurrent jobs (0 = one per CPU)")
		queue       = flag.Int("queue", 64, "FIFO queue depth before submissions are shed with 429")
		maxGates    = flag.Int("max-gates", 50000, "largest accepted circuit")
		maxVectors  = flag.Int("max-vectors", 200000, "largest accepted vector count")
		maxCycles   = flag.Int("max-cycles", 1024, "largest accepted sequential cycle horizon")
		maxFrames   = flag.Int("max-seq-frames", 65536, "largest accepted cycles x flops work budget")
		libcache    = flag.String("libcache", "", "JSON library cache (loaded if present, saved on shutdown)")
		ckktCache   = flag.Int64("compiled-cache-gates", 500000, "compiled-circuit cache budget (total gate records; 0 = default)")
		artifactDir = flag.String("artifact-dir", "", "persistent compiled-circuit artifact directory (empty = compile from scratch after every restart)")
		sensBudget  = flag.Int64("sens-mem-budget", 0, "transient-memory budget in bytes for sensitization and the sequential fault chase (0 = default 2 GiB; oversized sensitization runs chunked, the chase in fault groups)")
		journalDir  = flag.String("journal", "", "durable job journal directory (empty = async jobs are lost on restart)")
		jobTimeout  = flag.Duration("job-timeout", 15*time.Minute, "async job deadline across all attempts (negative = none)")
		maxAttempts = flag.Int("max-attempts", 3, "execution attempts per async job before it fails terminally")
		keepJobs    = flag.Int("keep-jobs", 1024, "finished jobs retained for polling (also the journal's terminal retention)")

		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")

		shardName      = flag.String("shard-name", "", "label for this shard in /metrics and for -register")
		register       = flag.String("register", "", "router URL to periodically self-register this shard with")
		advertise      = flag.String("advertise", "", "URL advertised to the router with -register (default http://<resolved listen addr>)")
		routeSpec      = flag.String("route", "", `run as a router over comma-separated "name=url" shards (may be empty: shards then join via POST /v1/shards or -register)`)
		healthInterval = flag.Duration("health-interval", 2*time.Second, "router: shard /readyz probe period; shard: -register re-announce period")
	)
	flag.Parse()
	if err := setupLogging(*logLevel, *logFormat); err != nil {
		fmt.Fprintf(os.Stderr, "serd: %v\n", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}
	routerMode := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "route" {
			routerMode = true
		}
	})
	if routerMode {
		runRouter(*addr, *routeSpec, *healthInterval)
		return
	}

	if *sensBudget > 0 {
		logicsim.DefaultSensBudgetBytes = *sensBudget
		slog.Info("sensitization memory budget set", "bytes", *sensBudget)
	}

	level := ser.DefaultCharacterization
	if *coarse {
		level = ser.CoarseCharacterization
	}
	sys := ser.NewSystem(level)
	if *libcache != "" {
		if _, err := os.Stat(*libcache); err == nil {
			if err := sys.LoadLibrary(*libcache); err != nil {
				fatalf("load library cache: %v", err)
			}
			slog.Info("loaded library cache", "path", *libcache)
		}
	}

	var jnl *journal.Journal
	if *journalDir != "" {
		var err error
		jnl, err = journal.Open(*journalDir, *keepJobs)
		if err != nil {
			fatalf("open journal: %v", err)
		}
		if pending := len(jnl.Pending()); pending > 0 {
			slog.Info("journal holds pending jobs; recovering", "dir", *journalDir, "jobs", pending)
		}
	}

	srv := serd.New(serd.Config{
		System:             sys,
		Workers:            *workers,
		QueueDepth:         *queue,
		MaxGates:           *maxGates,
		MaxVectors:         *maxVectors,
		MaxCycles:          *maxCycles,
		MaxSeqFrames:       *maxFrames,
		KeepJobs:           *keepJobs,
		CompiledCacheGates: *ckktCache,
		ArtifactDir:        *artifactDir,
		Journal:            jnl,
		JobTimeout:         *jobTimeout,
		MaxAttempts:        *maxAttempts,
		ShardName:          *shardName,
	})
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(slog.Default().Handler(), slog.LevelWarn),
	}

	// Explicit listen (rather than ListenAndServe) so the resolved
	// address — a concrete port when -addr asks for :0 — is logged
	// before serving; integration harnesses parse this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}

	stopRegister := func() {}
	if *register != "" {
		stopRegister = selfRegister(*register, *shardName, *advertise, ln.Addr().String(), *healthInterval)
	}

	// Graceful shutdown on the first SIGINT/SIGTERM: stop accepting,
	// finish running jobs (journaling their results), leave queued jobs
	// journaled for the next start, persist the library cache. A second
	// signal forces exit without draining.
	done := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		slog.Info("shutting down (signal again to force exit)")
		go func() {
			<-sig
			slog.Warn("forced exit")
			os.Exit(1)
		}()
		stopRegister()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			slog.Error("http shutdown failed", "err", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			slog.Error("drain failed", "err", err)
		}
		close(done)
	}()

	// One formatted message, address followed by a space: integration
	// harnesses cut this line on "listening on " to find the port.
	slog.Info(fmt.Sprintf("listening on %s (workers=%d queue=%d)", ln.Addr(), *workers, *queue))
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	<-done
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			slog.Error("close journal failed", "err", err)
		}
	}
	if *libcache != "" {
		if err := sys.SaveLibrary(*libcache); err != nil {
			slog.Error("save library cache failed", "err", err)
		} else {
			slog.Info("saved library cache", "path", *libcache)
		}
	}
}

// setupLogging installs the process-wide slog default: leveled, text
// or JSON, on stderr (matching the previous stdlib-log behavior, so
// harnesses reading stderr keep working).
func setupLogging(levelName, format string) error {
	var level slog.Level
	switch strings.ToLower(levelName) {
	case "debug":
		level = slog.LevelDebug
	case "", "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", levelName)
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// fatalf logs at error level and exits — the slog equivalent of
// log.Fatalf.
func fatalf(format string, args ...any) {
	slog.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

// servePprof serves net/http/pprof on its own listener, so profiling
// endpoints never share the service port (and can be firewalled
// separately). Registration is explicit — importing net/http/pprof
// for side effects would silently expose the handlers on
// http.DefaultServeMux.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		slog.Error("pprof listen failed", "addr", addr, "err", err)
		return
	}
	slog.Info("pprof listening", "addr", ln.Addr().String())
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Error("pprof server failed", "err", err)
	}
}

// runRouter serves the multi-node coordinator: same wire protocol,
// no local analysis engine — every request is consistent-hash-routed
// to a registered shard (see internal/router).
func runRouter(addr, spec string, healthInterval time.Duration) {
	rt := router.New(router.Config{HealthInterval: healthInterval})
	defer rt.Close()
	shards := 0
	if spec != "" {
		for _, pair := range strings.Split(spec, ",") {
			name, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fatalf("bad -route entry %q (want name=url)", pair)
			}
			if err := rt.AddShard(name, url); err != nil {
				fatalf("register shard %q: %v", name, err)
			}
			shards++
		}
	}
	hs := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(slog.Default().Handler(), slog.LevelWarn),
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("%v", err)
	}
	done := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		slog.Info("shutting down (signal again to force exit)")
		go func() {
			<-sig
			slog.Warn("forced exit")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			slog.Error("http shutdown failed", "err", err)
		}
		close(done)
	}()
	slog.Info(fmt.Sprintf("listening on %s (router, shards=%d)", ln.Addr(), shards))
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	<-done
}

// selfRegister announces this shard to a router now and on every
// interval tick — re-announcing is idempotent and heals a restarted
// router, whose shard registry is in-memory. The returned stop
// function halts the loop and deregisters (best effort), so a drained
// shard stops receiving new work immediately.
func selfRegister(routerURL, name, advertiseURL, listenAddr string, interval time.Duration) (stop func()) {
	if advertiseURL == "" {
		advertiseURL = "http://" + reachableAddr(listenAddr)
	}
	if name == "" {
		name = strings.TrimPrefix(advertiseURL, "http://")
	}
	cl := serclient.NewWithOptions(routerURL, serclient.Options{Timeout: 5 * time.Second})
	announce := func(ctx context.Context) error {
		_, err := cl.RegisterShard(ctx, serclient.ShardRegisterRequest{Name: name, URL: advertiseURL})
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := announce(ctx); err != nil {
		slog.Warn("register with router failed; will keep retrying", "router", routerURL, "err", err)
	} else {
		slog.Info("registered with router", "shard", name, "advertise", advertiseURL, "router", routerURL)
	}
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		healthy := true
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			if err := announce(ctx); err != nil {
				if healthy && ctx.Err() == nil {
					slog.Warn("re-register with router failed", "router", routerURL, "err", err)
				}
				healthy = false
			} else {
				healthy = true
			}
		}
	}()
	return func() {
		cancel()
		<-loopDone
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer dcancel()
		if err := cl.DeregisterShard(dctx, name); err != nil {
			slog.Warn("deregister from router failed", "router", routerURL, "err", err)
		}
	}
}

// reachableAddr rewrites a wildcard listen address ("[::]:8080",
// "0.0.0.0:8080") into one a router on the same host can dial.
func reachableAddr(listenAddr string) string {
	host, port, err := net.SplitHostPort(listenAddr)
	if err != nil {
		return listenAddr
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}
