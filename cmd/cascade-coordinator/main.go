// Command cascade-coordinator is the distributed sweep fabric's control
// plane: it accepts experiment jobs through the same versioned HTTP API
// cascade-server speaks, decomposes sweeps into point-level work units,
// hands them to enlisted cascade-server workers as their slots free up,
// and merges the returned points into results byte-identical to a
// single-node run.
//
// Usage:
//
//	cascade-coordinator [-addr :8081] [-cache dir] [-journal dir]
//	                    [-drain 30s] [-lease 2m] [-heartbeat-timeout 15s]
//	                    [-inflight N] [-attempts N]
//	                    [-quota N] [-quotas "tenant=N,..."]
//	                    [-faults "fabric.assign:n=1"] [-fault-seed N]
//
// API (see internal/fabric for details):
//
//	GET  /v1/experiments   experiment discovery
//	POST /v1/jobs          submit a job; X-Tenant header keys quota admission
//	GET  /v1/jobs/{id}     status + result; ?wait=10s blocks; with
//	                       "Accept: application/x-ndjson" streams progress frames
//	POST /v1/workers       worker enlistment / heartbeat {"name": ..., "url": ..., "slots": N}
//	GET  /v1/workers       fleet membership, with slots and busy per worker
//	GET  /v1/cache/{key}   shared result-index probe
//	GET  /metrics          fleet counters, one "name value" per line
//
// Start workers with `cascade-server -coordinator URL`; they enlist and
// heartbeat on their own, advertising their -workers bound as slots: the
// coordinator never has more of a worker's leases in flight. A worker
// is listed alive by the time it prints its own "listening on" line. A lease is
// one point in one POST /v1/points RPC, handed to whichever worker frees
// a slot first, and bounded by -lease. A worker
// that goes silent past -heartbeat-timeout is declared dead and its
// in-flight points are retried on the survivors. Pointing -cache at the same directory as
// the workers' caches turns disk into a fleet-wide shared result store.
//
// -journal points at a directory for the write-ahead journal that makes
// the coordinator durable: a restarted coordinator replays the log,
// re-adopts jobs that were in flight when it died, fences stale leases
// behind a bumped epoch, and re-dispatches only the genuinely
// unfinished remainder (DESIGN.md §13). A fresh journal directory costs
// start-up one file sync and one directory sync; only a journal with
// records is compacted. Empty disables durability.
//
// The -faults flag (development/testing only) arms the coordinator's
// deterministic injection sites (fabric.FaultSites) so dispatch-failure
// recovery can be exercised live.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
)

// coordinatorOptions carries the parsed command line into run.
type coordinatorOptions struct {
	addr             string
	cacheDir         string
	journalDir       string
	drain            time.Duration
	lease            time.Duration
	heartbeatTimeout time.Duration
	maxInflight      int
	maxAttempts      int
	defaultQuota     int
	quotasSpec       string
	faultsSpec       string
	faultSeed        int64
	onListen         func(net.Addr) // test hook: reports the bound address
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8081", "listen address")
		cacheDir   = flag.String("cache", "", "result cache directory (empty: in-memory only)")
		journalDir = flag.String("journal", "", "write-ahead journal directory for crash recovery (empty: not durable)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		lease      = flag.Duration("lease", 2*time.Minute, "point-dispatch lease (per-RPC deadline)")
		hbTimeout  = flag.Duration("heartbeat-timeout", 15*time.Second, "silence after which a worker is declared dead")
		inflight   = flag.Int("inflight", 16, "worker slots one job may hold at once (concurrent point leases per job)")
		attempts   = flag.Int("attempts", 8, "workers tried per point before the job fails")
		quota      = flag.Int("quota", 0, "default per-tenant in-flight job quota (0: unlimited)")
		quotasSpec = flag.String("quotas", "", `per-tenant quota overrides, e.g. "alice=2,bob=8"`)
		faultsSpec = flag.String("faults", "", `fault-injection spec, e.g. "fabric.assign:n=1" (dev/testing)`)
		faultSeed  = flag.Int64("fault-seed", 1, "PRNG seed for probabilistic -faults triggers")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := coordinatorOptions{
		addr:             *addr,
		cacheDir:         *cacheDir,
		journalDir:       *journalDir,
		drain:            *drain,
		lease:            *lease,
		heartbeatTimeout: *hbTimeout,
		maxInflight:      *inflight,
		maxAttempts:      *attempts,
		defaultQuota:     *quota,
		quotasSpec:       *quotasSpec,
		faultsSpec:       *faultsSpec,
		faultSeed:        *faultSeed,
	}
	if err := run(ctx, os.Stderr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "cascade-coordinator:", err)
		os.Exit(1)
	}
}

// parseQuotas parses "tenant=N,tenant2=M" into the per-tenant override
// map. An empty spec means no overrides.
func parseQuotas(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		tenant, raw, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("-quotas: bad entry %q (want tenant=N)", part)
		}
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-quotas: bad quota in %q", part)
		}
		out[tenant] = n
	}
	return out, nil
}

// run serves until ctx is cancelled, then drains gracefully.
func run(ctx context.Context, w io.Writer, opts coordinatorOptions) error {
	inj, err := faults.Parse(opts.faultsSpec, opts.faultSeed)
	if err != nil {
		return err
	}
	if armed := inj.Sites(); len(armed) > 0 {
		valid := make(map[string]bool)
		for _, site := range fabric.FaultSites() {
			valid[site] = true
		}
		for _, site := range armed {
			if !valid[site] {
				return fmt.Errorf("-faults: unknown site %q (valid: %s)",
					site, strings.Join(fabric.FaultSites(), ", "))
			}
		}
		fmt.Fprintf(w, "cascade-coordinator: FAULT INJECTION ARMED (%s; seed %d)\n",
			strings.Join(armed, ", "), opts.faultSeed)
	}
	quotas, err := parseQuotas(opts.quotasSpec)
	if err != nil {
		return err
	}
	c, err := fabric.New(fabric.Config{
		CacheDir:         opts.cacheDir,
		JournalDir:       opts.journalDir,
		Faults:           inj,
		FaultSpec:        opts.faultsSpec,
		FaultSeed:        opts.faultSeed,
		LeaseTimeout:     opts.lease,
		HeartbeatTimeout: opts.heartbeatTimeout,
		MaxInflight:      opts.maxInflight,
		MaxPointAttempts: opts.maxAttempts,
		DefaultQuota:     opts.defaultQuota,
		Quotas:           quotas,
	})
	if err != nil {
		return err
	}
	if opts.journalDir != "" {
		fmt.Fprintf(w, "cascade-coordinator: journal at %s (epoch %d)\n", opts.journalDir, c.Epoch())
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	if opts.onListen != nil {
		opts.onListen(ln.Addr())
	}
	fmt.Fprintf(w, "cascade-coordinator: listening on http://%s (lease %s, heartbeat timeout %s)\n",
		ln.Addr(), opts.lease, opts.heartbeatTimeout)

	hs := &http.Server{Handler: c.Handler()}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintf(w, "cascade-coordinator: shutting down (drain budget %s)\n", opts.drain)
		dctx, cancel := context.WithTimeout(context.Background(), opts.drain)
		defer cancel()
		err := c.Shutdown(dctx)
		hs.Shutdown(dctx)
		drained <- err
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-drained; err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Fprintln(w, "cascade-coordinator: drained cleanly")
	return nil
}
