package coord

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"repro/internal/store"
)

// Wire protocol of the coordinator (served by Handler, spoken by Client),
// mounted beside the object-store protocol on the same mux so one URL
// serves both scheduling and results. Every scheduling call is scoped to
// a campaign by ID in the path:
//
//	GET  /v1/coord/campaigns                      → 200 []CampaignInfo
//	POST /v1/coord/campaigns   {command,shards}   → 200 submitResponse
//	                                                (idempotent by spec)
//	POST /v1/coord/gc          {keep,dry_run}     → 200 GCResult
//	POST /v1/coord/<id>/lease      {worker}                → 200 leaseResponse
//	POST /v1/coord/<id>/heartbeat  {worker,lease_id,shard} → 200, 409 lease lost
//	POST /v1/coord/<id>/release    {worker,lease_id,shard} → 200 (idempotent)
//	POST /v1/coord/<id>/complete   {worker,lease_id,shard,
//	                                artifact: <shard JSON>} → 200 {state:
//	                                                         ok|done,
//	                                                         all_terminal},
//	                                                         400 bad artifact
//	POST /v1/coord/<id>/fail       {worker,lease_id,shard,
//	                                error,excerpt}          → 200 {state: ok,
//	                                                         quarantined,
//	                                                         campaign_failed,
//	                                                         all_terminal},
//	                                                         409 lease lost
//	GET  /v1/coord/<id>/status                             → 200 Status
//
// An unknown campaign ID answers 404 — a worker skips it and re-lists
// (GC may have retired the campaign under it). Every request carries the
// client's engine version in X-Flit-Engine and is fenced against the
// coordinator's by store.Fence — the per-request fence the object
// protocol applies, echoing the coordinator's engine on every answer —
// because a worker built from a different engine would compute artifacts
// that are not interchangeable. 409 is the one coordination-specific
// status: the lease named in the request is no longer the shard's current
// one, and the worker must abandon the shard.
const coordPathPrefix = "/v1/coord/"

// StatusLeaseLost is the HTTP rendering of ErrLeaseLost.
const StatusLeaseLost = http.StatusConflict

// leaseRequest is the body of every campaign-scoped mutating call;
// complete additionally carries the shard artifact verbatim, fail the
// structured failure report.
type leaseRequest struct {
	Worker   string          `json:"worker"`
	LeaseID  string          `json:"lease_id,omitempty"`
	Shard    int             `json:"shard"`
	Artifact json.RawMessage `json:"artifact,omitempty"`
	Error    string          `json:"error,omitempty"`
	Excerpt  string          `json:"excerpt,omitempty"`
}

// leaseResponse answers a lease, complete, or fail call: State is
// "granted" (Grant fields are set), "wait", "ok", "done", or "failed"
// (the campaign is terminally failed — the worker moves on exactly as
// for done). AllTerminal rides along so the worker that settles a
// coordinator's last campaign learns it without another poll; it counts
// failed campaigns too, so a fleet facing a poisoned tenancy stops
// instead of spinning — a `-exit-when-done` coordinator may stop
// accepting connections the moment the last shard reaches a terminal
// state.
type leaseResponse struct {
	State          string   `json:"state"`
	Shard          int      `json:"shard,omitempty"`
	Count          int      `json:"count,omitempty"`
	Command        []string `json:"command,omitempty"`
	LeaseID        string   `json:"lease_id,omitempty"`
	TTLMS          int64    `json:"ttl_ms,omitempty"`
	AllTerminal    bool     `json:"all_terminal,omitempty"`
	Quarantined    bool     `json:"quarantined,omitempty"`
	CampaignFailed bool     `json:"campaign_failed,omitempty"`
}

// submitRequest is the body of a campaign submission. The engine is
// implied by the fenced header; the spec is (command, shards), plus an
// optional per-campaign attempt budget (0 = coordinator default, not
// part of the campaign's identity).
type submitRequest struct {
	Command     []string `json:"command"`
	Shards      int      `json:"shards"`
	MaxAttempts int      `json:"max_attempts,omitempty"`
}

// submitResponse names the campaign a submission landed on. Created is
// false when the spec already named a held campaign — submission is
// idempotent.
type submitResponse struct {
	ID      string `json:"id"`
	Created bool   `json:"created"`
}

// gcRequest is the body of a server-side retirement pass.
type gcRequest struct {
	Keep   int  `json:"keep"`
	DryRun bool `json:"dry_run"`
}

// Handler serves the coordinator protocol for c. Mount it at the root of
// the same mux as store.Handler — the paths do not overlap.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(coordPathPrefix, func(w http.ResponseWriter, r *http.Request) {
		serveCoord(c, w, r)
	})
	return mux
}

func serveCoord(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	if !store.Fence(w, r, c.engine) {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, coordPathPrefix)
	switch rest {
	case "campaigns":
		serveCampaigns(c, w, r)
		return
	case "gc":
		serveGC(c, w, r)
		return
	}
	id, op, ok := strings.Cut(rest, "/")
	if !ok || id == "" {
		http.NotFound(w, r)
		return
	}
	if op == "status" {
		if r.Method != http.MethodGet {
			http.Error(w, "status wants GET", http.StatusMethodNotAllowed)
			return
		}
		st, err := c.Status(id)
		if err != nil {
			answer(w, err)
			return
		}
		writeJSON(w, st)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "coordinator calls want POST", http.StatusMethodNotAllowed)
		return
	}
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	switch op {
	case "lease":
		g, state, err := c.Lease(id, req.Worker)
		if err != nil {
			answer(w, err)
			return
		}
		resp := leaseResponse{State: "wait"}
		switch state {
		case Granted:
			resp = leaseResponse{State: "granted", Shard: g.Shard, Count: g.Count,
				Command: g.Command, LeaseID: g.LeaseID, TTLMS: g.TTL.Milliseconds()}
		case Done:
			resp.State = "done"
		case Failed:
			resp.State = "failed"
		}
		writeJSON(w, resp)
	case "heartbeat":
		answer(w, c.Heartbeat(id, req.Worker, req.LeaseID, req.Shard))
	case "release":
		answer(w, c.Release(id, req.Worker, req.LeaseID, req.Shard))
	case "complete":
		if len(req.Artifact) == 0 {
			http.Error(w, "coord: completion carries no artifact", http.StatusBadRequest)
			return
		}
		campaignDone, allTerminal, err := c.Complete(id, req.Worker, req.LeaseID, req.Shard, req.Artifact)
		if err != nil {
			answer(w, err)
			return
		}
		resp := leaseResponse{State: "ok", AllTerminal: allTerminal}
		if campaignDone {
			resp.State = "done"
		}
		writeJSON(w, resp)
	case "fail":
		quarantined, campaignFailed, allTerminal, err := c.Fail(id, req.Worker, req.LeaseID, req.Shard, req.Error, req.Excerpt)
		if err != nil {
			answer(w, err)
			return
		}
		writeJSON(w, leaseResponse{State: "ok", Quarantined: quarantined,
			CampaignFailed: campaignFailed, AllTerminal: allTerminal})
	default:
		http.NotFound(w, r)
	}
}

// serveCampaigns lists the tenancy (GET) or submits a campaign (POST).
func serveCampaigns(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, c.Campaigns())
	case http.MethodPost:
		var req submitRequest
		if !decodeBody(w, r, &req) {
			return
		}
		id, created, err := c.Submit(Spec{Engine: c.engine, Command: req.Command,
			Shards: req.Shards, MaxAttempts: req.MaxAttempts})
		if err != nil {
			answer(w, err)
			return
		}
		writeJSON(w, submitResponse{ID: id, Created: created})
	default:
		http.Error(w, "campaigns wants GET or POST", http.StatusMethodNotAllowed)
	}
}

// serveGC runs a server-side retirement pass.
func serveGC(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "gc wants POST", http.StatusMethodNotAllowed)
		return
	}
	var req gcRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := c.GC(req.Keep, req.DryRun)
	if err != nil {
		answer(w, err)
		return
	}
	writeJSON(w, res)
}

// decodeBody reads a size-capped request body into v. On an unreadable,
// oversized or malformed body it answers 400 itself and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, store.DefaultMaxBody+1))
	if err != nil || int64(len(body)) > store.DefaultMaxBody {
		http.Error(w, "coord: unreadable or oversized request body", http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "coord: malformed request body", http.StatusBadRequest)
		return false
	}
	return true
}

// answer maps a coordinator-method error to its HTTP status: lease loss is
// the worker's 409 signal to abandon the shard; an unknown campaign is
// 404 (GC may have retired it — the worker re-lists); a validation
// failure is the client's fault (400); anything else is the server's (500).
func answer(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusOK)
	case errors.Is(err, ErrLeaseLost):
		http.Error(w, err.Error(), StatusLeaseLost)
	case errors.Is(err, ErrNoCampaign):
		http.Error(w, err.Error(), http.StatusNotFound)
	case IsBadRequest(err):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(data)
}
