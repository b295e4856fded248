package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/store"
)

// Client speaks the coordinator protocol over a store.Conn, under the
// same transport discipline as store.Remote — bounded retries with
// backoff and jitter on 5xx/timeouts/connection errors, a per-operation
// deadline — because a worker mid-campaign sees exactly the network a
// remote store client does. Unlike the store client it does NOT fail
// open: scheduling calls are cheap and their answers change what the
// worker does next, so an exhausted retry budget surfaces as an error the
// worker loop backs off on, not as a silent miss. Every method takes a
// context: the retry loop's deadline is clipped to it, so a draining
// worker's cancellation interrupts an in-flight backoff instead of riding
// it out.
type Client struct {
	conn *store.Conn
}

// NewClient returns a coordinator client for the service at baseURL,
// fenced to the given engine version. opts may be nil; zero fields take
// the store transport defaults.
func NewClient(baseURL, engine string, opts *store.RemoteOptions) (*Client, error) {
	conn, err := store.Dial(baseURL, engine, opts)
	if err != nil {
		return nil, fmt.Errorf("coord: coordinator %w", err)
	}
	return &Client{conn: conn}, nil
}

// Retries reports how many requests the client re-sent.
func (cl *Client) Retries() int64 { return cl.conn.Retries() }

// do runs one coordinator operation under the retry loop and classifies
// the terminal answer. When out is non-nil a 200 body must decode into it
// — a 200 whose body does not parse is a damaged response (truncation,
// bit rot), which the Conn retries like a transport failure.
func (cl *Client) do(ctx context.Context, method, op string, body []byte, out any) error {
	var check func([]byte) error
	if out != nil {
		check = func(b []byte) error {
			if err := json.Unmarshal(b, out); err != nil {
				return fmt.Errorf("malformed response: %w", err)
			}
			return nil
		}
	}
	res, exhausted := cl.conn.Do(ctx, method, coordPathPrefix+op, body, check)
	if exhausted {
		if res.Err != nil {
			if res.Status != 0 {
				return fmt.Errorf("coord: %s: retries exhausted (last status %d): %w", op, res.Status, res.Err)
			}
			return fmt.Errorf("coord: %s: retries exhausted: %w", op, res.Err)
		}
		return fmt.Errorf("coord: %s: retries exhausted (last status %d)", op, res.Status)
	}
	return classify(op, res)
}

// call POSTs one campaign-scoped coordinator operation.
func (cl *Client) call(ctx context.Context, campaign, op string, req leaseRequest, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("coord: encoding %s request: %w", op, err)
	}
	return cl.do(ctx, http.MethodPost, campaign+"/"+op, body, out)
}

// classify turns a terminal non-2xx attempt into the caller-facing error.
func classify(op string, res store.Attempt) error {
	switch res.Status {
	case http.StatusOK:
		return nil
	case StatusLeaseLost:
		return ErrLeaseLost
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s)", ErrNoCampaign, op)
	case store.StatusEngineMismatch:
		return fmt.Errorf("coord: %s: coordinator runs a different engine: %s", op, strings.TrimSpace(string(res.Body)))
	default:
		return fmt.Errorf("coord: %s: status %d: %s", op, res.Status, strings.TrimSpace(string(res.Body)))
	}
}

// Campaigns lists the coordinator's tenancy in submission order.
func (cl *Client) Campaigns(ctx context.Context) ([]CampaignInfo, error) {
	var infos []CampaignInfo
	if err := cl.do(ctx, http.MethodGet, "campaigns", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Submit registers a campaign (idempotently: re-submitting a spec the
// coordinator already holds names the existing campaign, created=false).
// maxAttempts is the per-shard attempt budget; 0 takes the coordinator's
// default, and it is not part of the campaign's identity — resubmitting
// with a different budget names the existing campaign under its original
// one.
func (cl *Client) Submit(ctx context.Context, command []string, shards, maxAttempts int) (id string, created bool, err error) {
	body, err := json.Marshal(submitRequest{Command: command, Shards: shards, MaxAttempts: maxAttempts})
	if err != nil {
		return "", false, fmt.Errorf("coord: encoding submit request: %w", err)
	}
	var sr submitResponse
	if err := cl.do(ctx, http.MethodPost, "campaigns", body, &sr); err != nil {
		return "", false, err
	}
	return sr.ID, sr.Created, nil
}

// GC asks the coordinator to retire superseded completed campaign
// generations, keeping the newest keep per command.
func (cl *Client) GC(ctx context.Context, keep int, dryRun bool) (GCResult, error) {
	body, err := json.Marshal(gcRequest{Keep: keep, DryRun: dryRun})
	if err != nil {
		return GCResult{}, fmt.Errorf("coord: encoding gc request: %w", err)
	}
	var res GCResult
	if err := cl.do(ctx, http.MethodPost, "gc", body, &res); err != nil {
		return GCResult{}, err
	}
	return res, nil
}

// Lease asks for a shard of the campaign. The returned state is Granted
// (the Grant is valid), Wait (poll again after a beat, or try another
// campaign), Done (campaign complete), or Failed (campaign terminally
// failed — move on exactly as for Done).
func (cl *Client) Lease(ctx context.Context, campaign, worker string) (Grant, LeaseState, error) {
	var lr leaseResponse
	if err := cl.call(ctx, campaign, "lease", leaseRequest{Worker: worker}, &lr); err != nil {
		return Grant{}, Wait, err
	}
	switch lr.State {
	case "granted":
		return Grant{Shard: lr.Shard, Count: lr.Count, Command: lr.Command,
			LeaseID: lr.LeaseID, TTL: time.Duration(lr.TTLMS) * time.Millisecond}, Granted, nil
	case "done":
		return Grant{}, Done, nil
	case "failed":
		return Grant{}, Failed, nil
	case "wait":
		return Grant{}, Wait, nil
	default:
		return Grant{}, Wait, fmt.Errorf("coord: lease: unknown state %q", lr.State)
	}
}

// Heartbeat extends a lease; ErrLeaseLost means the shard is no longer
// this worker's and the run should be abandoned.
func (cl *Client) Heartbeat(ctx context.Context, campaign, worker, leaseID string, shard int) error {
	return cl.call(ctx, campaign, "heartbeat", leaseRequest{Worker: worker, LeaseID: leaseID, Shard: shard}, nil)
}

// Release hands a leased shard back (the drain path). Idempotent.
func (cl *Client) Release(ctx context.Context, campaign, worker, leaseID string, shard int) error {
	return cl.call(ctx, campaign, "release", leaseRequest{Worker: worker, LeaseID: leaseID, Shard: shard}, nil)
}

// Complete uploads a finished shard artifact. The lease need not still be
// live — deterministic artifacts make late and duplicate completions
// safe. campaignDone reports whether this completion finished the
// campaign, allTerminal whether every campaign the coordinator holds is
// complete or terminally failed — which matters under -exit-when-done:
// the coordinator may be gone before the worker's next poll could say so.
func (cl *Client) Complete(ctx context.Context, campaign, worker, leaseID string, shard int, artifact []byte) (campaignDone, allTerminal bool, err error) {
	var lr leaseResponse
	err = cl.call(ctx, campaign, "complete", leaseRequest{Worker: worker, LeaseID: leaseID,
		Shard: shard, Artifact: json.RawMessage(artifact)}, &lr)
	if err != nil {
		return false, false, err
	}
	return lr.State == "done", lr.AllTerminal, nil
}

// Fail reports a structured shard failure: the lease is released, the
// attempt is consumed, and the report (error text plus a truncated
// stderr/panic excerpt) is recorded against the shard. quarantined
// reports whether this failure exhausted the shard's attempt budget,
// campaignFailed whether the campaign is now terminally failed, and
// allTerminal whether every campaign the coordinator holds is complete
// or failed — the fleet-wide drain signal. ErrLeaseLost means the shard
// was already re-leased; the report is dropped and the worker just moves
// on.
func (cl *Client) Fail(ctx context.Context, campaign, worker, leaseID string, shard int, errText, excerpt string) (quarantined, campaignFailed, allTerminal bool, err error) {
	var lr leaseResponse
	err = cl.call(ctx, campaign, "fail", leaseRequest{Worker: worker, LeaseID: leaseID,
		Shard: shard, Error: errText, Excerpt: excerpt}, &lr)
	if err != nil {
		return false, false, false, err
	}
	return lr.Quarantined, lr.CampaignFailed, lr.AllTerminal, nil
}

// Status fetches one campaign's snapshot.
func (cl *Client) Status(ctx context.Context, campaign string) (Status, error) {
	var st Status
	err := cl.do(ctx, http.MethodGet, campaign+"/status", nil, &st)
	return st, err
}
