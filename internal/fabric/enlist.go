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
//
// A worker makes its first attempt (Register) before it announces
// itself, so its "listening on" line means it is serving and, if the
// coordinator answered, already enlisted; Heartbeat carries on from that
// attempt's outcome. Enlist is the two in one call.

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
// cancelled: Register, then Heartbeat. It returns an error at once only
// for an incomplete config; otherwise it exits with ctx.Err().
func Enlist(ctx context.Context, cfg EnlistConfig) error {
	e, err := newEnlister(cfg)
	if err != nil {
		return err
	}
	epoch, err := e.register(ctx)
	return e.heartbeat(ctx, epoch, err)
}

// Register makes one registration attempt: the POST /v1/workers that
// enlists the worker, or keeps it enlisted, and returns the
// coordinator's fencing epoch. A failure is returned and, as on every
// attempt, reported to OnError. A worker calls it before it announces
// itself, so that by then it is enlisted if the coordinator answered.
// The attempt is bounded by the client's timeout (one Interval by
// default); a coordinator that refuses connections fails it at once.
func Register(ctx context.Context, cfg EnlistConfig) (uint64, error) {
	e, err := newEnlister(cfg)
	if err != nil {
		return 0, err
	}
	return e.register(ctx)
}

// Heartbeat keeps a worker enlisted after its first registration
// attempt, whose outcome (Register's epoch and error) it takes: the next
// attempt comes one Interval after a success, or after the jittered
// backoff after a failure. It runs until ctx is cancelled and returns
// ctx.Err().
func Heartbeat(ctx context.Context, cfg EnlistConfig, epoch uint64, first error) error {
	e, err := newEnlister(cfg)
	if err != nil {
		return err
	}
	return e.heartbeat(ctx, epoch, first)
}

// enlister is a validated EnlistConfig with its client and request body.
type enlister struct {
	cfg    EnlistConfig
	client *http.Client
	body   []byte
}

func newEnlister(cfg EnlistConfig) (*enlister, error) {
	if cfg.Coordinator == "" || cfg.Name == "" || cfg.Advertise == "" {
		return nil, fmt.Errorf("fabric: enlist needs coordinator, name and advertise URLs")
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
		return nil, fmt.Errorf("fabric: marshal enlist request: %w", err)
	}
	return &enlister{cfg: cfg, client: client, body: body}, nil
}

// register makes one attempt and reports its failure to OnError unless
// ctx is done.
func (e *enlister) register(ctx context.Context) (uint64, error) {
	epoch, err := e.post(ctx)
	if err != nil && ctx.Err() == nil && e.cfg.OnError != nil {
		e.cfg.OnError(err)
	}
	return epoch, err
}

func (e *enlister) post(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		e.cfg.Coordinator+"/v1/workers", bytes.NewReader(e.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.VersionHeader, server.APIVersion)
	resp, err := e.client.Do(req)
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

// heartbeat is the loop after the first attempt, whose outcome it takes.
func (e *enlister) heartbeat(ctx context.Context, epoch uint64, err error) error {
	interval := e.cfg.Interval
	lastEpoch, enlisted := epoch, err == nil
	delay := interval
	for {
		d := interval
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Jittered exponential backoff: the retry lands somewhere in
			// [delay/2, delay), so a fleet that lost its coordinator
			// together does not come back in lockstep.
			d = delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
			if delay *= 2; delay > maxBackoffIntervals*interval {
				delay = maxBackoffIntervals * interval
			}
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		if epoch, err = e.register(ctx); err != nil {
			continue
		}
		delay = interval
		if enlisted && epoch != lastEpoch && e.cfg.OnEpochChange != nil {
			e.cfg.OnEpochChange(lastEpoch, epoch)
		}
		lastEpoch, enlisted = epoch, true
	}
}
