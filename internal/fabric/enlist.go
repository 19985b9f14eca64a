package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/server"
)

// Enlist is the worker side of fleet membership: a cascade-server that
// wants sweep shards announces itself to the coordinator and then keeps
// heartbeating so the coordinator's reaper knows it is alive. The same
// POST /v1/workers request serves as both registration and heartbeat —
// there is no separate liveness protocol to get out of sync with
// membership.
//
// The loop is built to survive the coordinator, not just talk to it:
// heartbeat failures back off exponentially with jitter (so a restarted
// coordinator is not stampeded by its whole fleet reconnecting on the
// same tick), and every successful heartbeat carries the coordinator's
// fencing epoch back. An epoch change means the coordinator died and
// recovered from its journal — the worker is already re-enlisted by the
// very heartbeat that noticed, and OnEpochChange lets it resync any
// local assumptions (in-flight leases from the old epoch will be fenced
// on the coordinator side, never double-counted).

// DefaultHeartbeatInterval is how often an enlisted worker re-announces
// itself. It must be comfortably under the coordinator's
// HeartbeatTimeout (default 15s) so one dropped request does not get a
// healthy worker declared dead.
const DefaultHeartbeatInterval = 3 * time.Second

// maxBackoffIntervals caps the heartbeat retry delay, as a multiple of
// the heartbeat interval. Deep backoff would outlive the coordinator's
// HeartbeatTimeout and get a healthy worker reaped for politeness.
const maxBackoffIntervals = 4

// EnlistConfig configures a worker's membership loop.
type EnlistConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8081".
	Coordinator string
	// Name uniquely identifies this worker within the fleet.
	Name string
	// Advertise is the URL the coordinator should dispatch points to —
	// this worker's own listen address as reachable from the coordinator.
	Advertise string
	// Slots is how many points this worker runs at once (a cascade-server
	// advertises its point-admission bound, -workers). The coordinator
	// never holds more of this worker's leases in flight. Zero means 1.
	Slots int
	// Interval between heartbeats. Zero means DefaultHeartbeatInterval.
	Interval time.Duration
	// Client used for heartbeat requests. Nil means a client with a
	// timeout of Interval (a heartbeat slower than the next one is due
	// is as good as lost).
	Client *http.Client
	// OnError, if non-nil, observes heartbeat failures. The loop keeps
	// retrying regardless: coordinator restarts are expected, and
	// re-registration after one is exactly how the fleet heals.
	OnError func(error)
	// OnEpochChange, if non-nil, observes coordinator epoch bumps: the
	// coordinator restarted and recovered between two successful
	// heartbeats. By the time it fires the worker is already re-enlisted
	// under the new epoch; the hook exists for logging and for dropping
	// any state keyed to the dead incarnation.
	OnEpochChange func(prev, next uint64)
}

// Enlist registers with the coordinator and heartbeats until ctx is
// cancelled. The first registration is attempted immediately and its
// error returned if ctx dies before any attempt succeeds; after that
// the loop only ever exits with ctx.Err().
func Enlist(ctx context.Context, cfg EnlistConfig) error {
	if cfg.Coordinator == "" || cfg.Name == "" || cfg.Advertise == "" {
		return fmt.Errorf("fabric: enlist needs coordinator, name and advertise URLs")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHeartbeatInterval
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Interval}
	}

	body, err := json.Marshal(workerRequest{Name: cfg.Name, URL: cfg.Advertise, Slots: cfg.Slots})
	if err != nil {
		return fmt.Errorf("fabric: marshal enlist request: %w", err)
	}
	beat := func() (uint64, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			cfg.Coordinator+"/v1/workers", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.VersionHeader, server.APIVersion)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var wr workersResponse
		derr := json.NewDecoder(resp.Body).Decode(&wr)
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("fabric: coordinator rejected heartbeat: %s", resp.Status)
		}
		if derr != nil {
			return 0, fmt.Errorf("fabric: bad heartbeat response: %w", derr)
		}
		return wr.Epoch, nil
	}

	sleep := func(d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}

	var lastEpoch uint64
	enlisted := false
	delay := cfg.Interval
	for {
		epoch, err := beat()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if cfg.OnError != nil {
				cfg.OnError(err)
			}
			// Jittered exponential backoff: the retry lands somewhere in
			// [delay/2, delay), so a fleet that lost its coordinator
			// together does not come back in lockstep.
			d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
			if delay *= 2; delay > maxBackoffIntervals*cfg.Interval {
				delay = maxBackoffIntervals * cfg.Interval
			}
			if serr := sleep(d); serr != nil {
				return serr
			}
			continue
		}
		delay = cfg.Interval
		if enlisted && epoch != lastEpoch && cfg.OnEpochChange != nil {
			cfg.OnEpochChange(lastEpoch, epoch)
		}
		lastEpoch, enlisted = epoch, true
		if serr := sleep(cfg.Interval); serr != nil {
			return serr
		}
	}
}
