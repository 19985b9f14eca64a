package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/server"
)

// The coordinator's HTTP API is the job core's (server.JobCore.Handler):
// the same job routes, envelope and version check a server has, so a
// client (or the cascade CLI) pointed at a coordinator instead of a
// server needs zero changes:
//
//	GET  /v1/experiments        registry metadata
//	POST /v1/jobs               submit; X-Tenant names the quota tenant
//	GET  /v1/jobs               list submitted jobs
//	GET  /v1/jobs/{id}          one job; ?wait blocks, ndjson streams progress
//	GET  /v1/jobs/{id}/repro    a failed job's repro bundle
//	GET  /metrics               flat "name value" metric exposition
//	GET  /healthz               ok, idle (no live worker), degraded or draining
//
// On top of it ride the fleet endpoints, behind the same version check:
//
//	POST /v1/workers          enlist / heartbeat {"name": "...", "url": "...", "slots": N}
//	GET  /v1/workers          fleet membership, with each worker's slots and busy count
//	GET  /v1/cache/{key}      shared result-index probe (raw bytes or 404)

// TenantHeader names the request header carrying the tenant identity
// that quota admission is keyed by. Absent means the anonymous tenant.
const TenantHeader = server.TenantHeader

// workerRequest is the POST /v1/workers body. Slots is how many points
// the worker runs at once; absent or 0 (an older worker) means 1, and a
// negative count is refused.
type workerRequest struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Slots int    `json:"slots,omitempty"`
}

// workersResponse is the fleet-membership wire shape. Epoch is the
// coordinator incarnation's fencing epoch: it bumps exactly once per
// restart, so an enlisted worker observing a change knows its
// coordinator died and healed, and that any leases it still holds from
// the previous epoch will be fenced, not double-counted.
type workersResponse struct {
	Version string      `json:"api_version"`
	Epoch   uint64      `json:"epoch"`
	Workers []workerRec `json:"workers"`
}

func (c *Coordinator) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req workerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		server.WriteEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Slots == 0 {
		req.Slots = 1
	}
	if err := c.RegisterSlots(req.Name, req.URL, req.Slots); err != nil {
		server.WriteEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusOK, workersResponse{Version: server.APIVersion, Epoch: c.epoch, Workers: c.Workers()})
}

func (c *Coordinator) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, workersResponse{Version: server.APIVersion, Epoch: c.epoch, Workers: c.Workers()})
}

// handleCacheProbe answers the shared result-index protocol: raw cached
// bytes for a content address, or 404. Workers (and sibling fleets) can
// probe before simulating; the response is the exact canonical bytes,
// so a prober can serve them directly.
func (c *Coordinator) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	val, ok := c.cache.Get(key)
	if !ok {
		server.WriteEnvelopeError(w, http.StatusNotFound, server.CodeNotFound, fmt.Sprintf("no cached result for %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(val)
}
