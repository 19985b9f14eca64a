// Command cascade-server is the experiment-serving daemon: a long-running
// HTTP JSON service over the experiments.Registry with a bounded job
// queue, a content-addressed result cache, and live metrics.
//
// Usage:
//
//	cascade-server [-addr :8080] [-workers N] [-queue N] [-cache dir]
//	               [-quarantine-ttl 24h] [-drain 30s] [-job-timeout 15m]
//	               [-coordinator URL] [-advertise URL] [-name NAME]
//	               [-prefix-cache-mb N]
//	               [-faults "site:p=0.05;..."] [-fault-seed N]
//
// API (see internal/server for details):
//
//	GET  /v1/experiments       experiment discovery (names, descriptions, defaults)
//	POST /v1/jobs              submit {"experiment": "fig2", "params": {"scale": 0.1}}
//	GET  /v1/jobs/{id}         job status + result; ?wait=10s blocks until done
//	GET  /v1/jobs/{id}/repro   deterministic repro bundle of a failed job
//	POST /v1/points            execute one sweep point (the fabric's work unit)
//	GET  /metrics              live counters/gauges, one "name value" per line
//
// With -coordinator the daemon enlists as a worker in a distributed
// sweep fabric (see internal/fabric and cascade-coordinator): it
// registers under -name at the -advertise URL and heartbeats until
// shutdown, receiving sharded sweep points on POST /v1/points, one
// point per request. Both -advertise and -name default to the bound
// listen address. The first registration is made before the
// "listening on" line is printed, so the line means serving and, if
// the coordinator answered, enlisted; a coordinator that is down does
// not stop start-up (the failure is logged and retried with backoff).
// The worker computes each sweep's shared prefix once, parks it in its
// prefix cache, and runs every point of the prefix group off it —
// byte-identical results, less repeated warmup. Shipped
// points and local jobs share that cache: one bounded LRU
// (-prefix-cache-mb) that lives as long as the daemon, so work reuses
// the prefixes and memoized PARMVR calls of the work before it.
// -warm-prefixes is accepted and does nothing: shipped points always
// take that path, and the flag stays only so existing command lines
// (the end-to-end benchmark's fleet among them) keep starting.
//
// Identical jobs are answered from the cache without re-simulating, and
// concurrent identical submissions coalesce into one run. With -cache
// the store persists across restarts and is shared with
// `cascade-sim -cache` sweeps.
//
// SIGINT/SIGTERM triggers graceful shutdown: submissions are rejected,
// queued and running jobs drain within the -drain budget, then in-flight
// sweeps are cancelled through the experiment layer's context plumbing.
//
// The -faults flag (development/testing only) arms the deterministic
// fault-injection layer of DESIGN.md §10 so the daemon's degradation
// paths can be exercised live: e.g.
//
//	cascade-server -faults "exp.panic:p=0.1;cache.write:n=3"
//
// panics one run in ten and fails the third disk write. Probabilistic
// sites replay from -fault-seed. Valid sites are those of
// server.FaultSites(); the daemon refuses to start on an unknown one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/server"
)

// serverOptions carries the parsed command line into run.
type serverOptions struct {
	addr          string
	workers       int
	queueDepth    int
	cacheDir      string
	quarantine    time.Duration
	drain         time.Duration
	jobTimeout    time.Duration
	coordinator   string
	prefixCacheMB int
	advertise     string
	workerName    string
	faultsSpec    string
	faultSeed     int64
	onListen      func(net.Addr) // test hook: reports the bound address
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers     = flag.Int("workers", experiments.DefaultJobWorkers(), "concurrent experiment jobs")
		queue       = flag.Int("queue", 64, "bounded job-queue depth")
		cacheDir    = flag.String("cache", "", "result cache directory (empty: in-memory only)")
		quarantine  = flag.Duration("quarantine-ttl", server.DefaultQuarantineTTL, "age past which quarantined .corrupt cache files are purged at startup (negative disables)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		jobTimeout  = flag.Duration("job-timeout", server.DefaultJobTimeout, "default per-job execution deadline (0 disables)")
		coordinator = flag.String("coordinator", "", "enlist as a fabric worker with this coordinator URL")
		_           = flag.Bool("warm-prefixes", false, "no-op: shipped points always reuse built sweep prefixes")
		prefixMB    = flag.Int("prefix-cache-mb", 0, "prefix cache ceiling in MiB, prefixes and their memoized calls (0: default)")
		advertise   = flag.String("advertise", "", "URL the coordinator dispatches to (default: the bound listen address)")
		workerName  = flag.String("name", "", "worker name within the fleet (default: the bound listen address)")
		faultsSpec  = flag.String("faults", "", `fault-injection spec, e.g. "exp.panic:p=0.1;cache.write:n=3" (dev/testing)`)
		faultSeed   = flag.Int64("fault-seed", 1, "PRNG seed for probabilistic -faults triggers")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := serverOptions{
		addr:          *addr,
		workers:       *workers,
		queueDepth:    *queue,
		cacheDir:      *cacheDir,
		quarantine:    *quarantine,
		drain:         *drain,
		jobTimeout:    *jobTimeout,
		coordinator:   *coordinator,
		prefixCacheMB: *prefixMB,
		advertise:     *advertise,
		workerName:    *workerName,
		faultsSpec:    *faultsSpec,
		faultSeed:     *faultSeed,
	}
	if err := run(ctx, os.Stderr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "cascade-server:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then drains gracefully. The log
// writer w receives startup and shutdown progress lines.
func run(ctx context.Context, w io.Writer, opts serverOptions) error {
	inj, err := faults.Parse(opts.faultsSpec, opts.faultSeed)
	if err != nil {
		return err
	}
	if armed := inj.Sites(); len(armed) > 0 {
		valid := make(map[string]bool)
		for _, site := range server.FaultSites() {
			valid[site] = true
		}
		for _, site := range armed {
			if !valid[site] {
				return fmt.Errorf("-faults: unknown site %q (valid: %s)",
					site, strings.Join(server.FaultSites(), ", "))
			}
		}
		fmt.Fprintf(w, "cascade-server: FAULT INJECTION ARMED (%s; seed %d)\n",
			strings.Join(armed, ", "), opts.faultSeed)
	}
	jobTimeout := opts.jobTimeout
	if jobTimeout == 0 {
		jobTimeout = -1 // flag 0 = "no deadline"; Config 0 = "use default"
	}
	s, err := server.New(server.Config{
		Workers:          opts.workers,
		QueueDepth:       opts.queueDepth,
		CacheDir:         opts.cacheDir,
		QuarantineTTL:    opts.quarantine,
		JobTimeout:       jobTimeout,
		Faults:           inj,
		FaultSpec:        opts.faultsSpec,
		FaultSeed:        opts.faultSeed,
		PrefixCacheBytes: int64(opts.prefixCacheMB) << 20,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	if opts.onListen != nil {
		opts.onListen(ln.Addr())
	}

	// A worker registers before it announces itself: the listening line
	// then means serving and, if the coordinator answered, enlisted, so
	// nothing waiting on the line has to poll the fleet. A failed attempt
	// does not hold start-up; the heartbeat loop retries with backoff.
	var enlist func()
	if opts.coordinator != "" {
		name, advertise := opts.workerName, opts.advertise
		if name == "" {
			name = ln.Addr().String()
		}
		if advertise == "" {
			advertise = "http://" + ln.Addr().String()
		}
		fmt.Fprintf(w, "cascade-server: enlisting with %s as %q (advertising %s, %d slots)\n",
			opts.coordinator, name, advertise, s.PointSlots())
		ecfg := fabric.EnlistConfig{
			Coordinator: opts.coordinator,
			Name:        name,
			Advertise:   advertise,
			Slots:       s.PointSlots(),
			OnError: func(err error) {
				fmt.Fprintf(w, "cascade-server: heartbeat: %v\n", err)
			},
		}
		epoch, err := fabric.Register(ctx, ecfg)
		enlist = func() { fabric.Heartbeat(ctx, ecfg, epoch, err) }
	}
	fmt.Fprintf(w, "cascade-server: listening on http://%s (%d workers, queue %d)\n",
		ln.Addr(), opts.workers, opts.queueDepth)
	if enlist != nil {
		go enlist()
	}

	hs := &http.Server{Handler: s.Handler()}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintf(w, "cascade-server: shutting down (drain budget %s)\n", opts.drain)
		dctx, cancel := context.WithTimeout(context.Background(), opts.drain)
		defer cancel()
		// Drain the job queue first so blocked ?wait= requests resolve,
		// then stop the HTTP listener.
		err := s.Shutdown(dctx)
		hs.Shutdown(dctx)
		drained <- err
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-drained; err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Fprintln(w, "cascade-server: drained cleanly")
	return nil
}
