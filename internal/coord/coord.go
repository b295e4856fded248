// Package coord is the campaign coordinator ("flitd"): the service that
// turns the shard/merge protocol from a hand-orchestrated workflow into a
// self-healing distributed one. A coordinator owns a *set* of campaigns
// over one shared artifact/store namespace — the natural deployment for
// FLiT-style studies, which are many small deterministic sweeps rather
// than one monolith. Each campaign is a recorded CLI command, an engine
// version, and an N-way sharding of the command's deterministic job
// space, keyed by a campaign ID derived from exactly those three
// coordinates; the coordinator hands out time-bounded *leases* on
// (campaign, shard) pairs to workers. Workers heartbeat to keep a lease
// alive, run their shard with the ordinary experiments drivers, and
// report the exported artifact back; the coordinator re-leases shards
// whose heartbeats stop (worker crash, stall, network partition), accepts
// duplicate completions idempotently (artifacts for the same shard are
// deterministic and self-validating, so last-writer-wins is safe), and
// journals every durable state change through the store's atomic-write
// helper so a coordinator restart recovers every campaign's leases and
// completions from disk. When a campaign's partition completes it runs
// `flit merge`'s complete-partition and engine-fence validation
// server-side, so a campaign is only reported done when the artifact set
// provably replays byte-identical.
//
// Multi-tenancy leans on the same robustness invariant as everything
// since PR 2/6/7: every shard artifact is a pure, self-describing
// function of (engine version, command, shard coordinates), and store
// keys are injective over the same coordinates. Two campaigns sharing
// one coordinator and one object store therefore cannot trade results —
// the shared-store safety story already made concurrent campaigns sound;
// this package gives them a scheduler. Scheduling state is mutated only
// by scheduling calls: Lease reclaims expired leases, Status and
// Campaigns are pure reads (an operator polling status during a
// heartbeat gap must never strand the worker that the heartbeat revival
// path was designed to save).
package coord

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/flit"
	"repro/internal/store"
)

// JournalVersion is the on-disk format version of the coordinator
// journal, and the only one recovery reads. Version 3 is the multi-tenant
// snapshot with failure containment (per-shard attempt counts, failure
// reports, quarantine); versions 1 and 2 are refused.
const JournalVersion = 3

// journalName is the journal file at the root of a coordinator directory.
const journalName = "coord.json"

// artifactsDir holds the completed shard artifacts, one subdirectory per
// campaign ID, one file per shard index.
const artifactsDir = "artifacts"

// ErrLeaseLost is the terminal answer to a heartbeat, release, or
// completion whose lease is no longer the shard's current one: the
// coordinator expired it and may already have promised the shard to
// another worker. A worker receiving it abandons the shard cleanly — the
// run results it computed are already in the shared store, so the new
// owner's run replays them as warm hits.
var ErrLeaseLost = errors.New("coord: lease lost (expired or superseded)")

// ErrNoCampaign answers any campaign-scoped call naming an ID the
// coordinator does not hold — never submitted, or retired by GC. The
// HTTP layer renders it 404; a worker skips the campaign and re-lists.
var ErrNoCampaign = errors.New("coord: no such campaign")

// badRequest marks an error caused by the caller's input (a malformed or
// mismatched artifact, out-of-range shard coordinates), so the HTTP layer
// can answer 400 instead of blaming the server.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// IsBadRequest reports whether err is the caller's fault.
func IsBadRequest(err error) bool {
	var b badRequest
	return errors.As(err, &b)
}

// Spec describes one campaign: the canonical recorded command (the same
// []string shard artifacts record for `flit merge`), the engine version
// every participant must share, and the shard count. MaxAttempts is the
// campaign's shard attempt budget (0 takes the coordinator's default) —
// it is operational tuning, not identity, so it is deliberately NOT part
// of CampaignID: re-submitting a held spec with a different budget names
// the existing campaign and keeps its original budget.
type Spec struct {
	Engine      string   `json:"engine"`
	Command     []string `json:"command"`
	Shards      int      `json:"shards"`
	MaxAttempts int      `json:"max_attempts,omitempty"`
}

// CampaignID derives a campaign's identity from its spec: a short hex
// digest of (engine, command, shard count) with NUL separators, so the
// ID is injective over exactly the coordinates that make two shard
// artifacts interchangeable. The derivation is deterministic across
// processes — submitting the same spec twice names the same campaign
// (submission is idempotent).
func CampaignID(spec Spec) string {
	h := sha256.New()
	io.WriteString(h, spec.Engine)
	h.Write([]byte{0})
	for _, arg := range spec.Command {
		io.WriteString(h, arg)
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "%d", spec.Shards)
	return fmt.Sprintf("c%x", h.Sum(nil)[:8])
}

// Options tunes a coordinator. The zero value selects production-shaped
// defaults; tests shrink the TTL and inject a clock.
type Options struct {
	// LeaseTTL is how long a lease lives without a heartbeat (default 10s).
	// Each heartbeat extends the lease by a full TTL.
	LeaseTTL time.Duration
	// Engine is the engine version every campaign in this coordinator is
	// fenced to (default this build's flit.EngineVersion). A journal from
	// a different engine refuses to open — its artifacts are not
	// interchangeable with anything this build would schedule.
	Engine string
	// Now is the clock (default time.Now); tests inject a fake to drive
	// expiry deterministically.
	Now func() time.Time
	// MaxShardAttempts is the default per-shard attempt budget (default
	// 5): how many times a shard may be leased out — and come back failed,
	// crashed, or expired — before it is quarantined instead of re-leased.
	// A campaign's Spec.MaxAttempts overrides it per campaign.
	MaxShardAttempts int
}

// DefaultMaxShardAttempts is the attempt budget a zero Options selects.
const DefaultMaxShardAttempts = 5

func (o *Options) withDefaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Engine == "" {
		o.Engine = flit.EngineVersion
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.MaxShardAttempts <= 0 {
		o.MaxShardAttempts = DefaultMaxShardAttempts
	}
}

// Grant is one leased shard: everything a worker needs to run it and to
// keep the lease alive while doing so.
type Grant struct {
	Shard   int           `json:"shard"`
	Count   int           `json:"count"`
	Command []string      `json:"command"`
	LeaseID string        `json:"lease_id"`
	TTL     time.Duration `json:"-"`
}

// LeaseState classifies a lease request's outcome.
type LeaseState int

const (
	// Granted: the response carries a Grant.
	Granted LeaseState = iota
	// Wait: every remaining shard of the campaign is currently leased;
	// poll again (or try another campaign).
	Wait
	// Done: the campaign is complete; the worker moves to the next one.
	Done
	// Failed: the campaign is terminally failed — every shard not done is
	// quarantined, so there is nothing left to lease, ever. The worker
	// moves on exactly as for Done; the campaign's failure reports say why.
	Failed
)

// Failure-report bounds: a report is diagnostic, not an archive. The
// error line and excerpt are truncated on receipt, and each shard keeps
// only its most recent maxFailuresKept reports (the attempt counter is
// the authoritative total).
const (
	maxFailError    = 512
	maxFailExcerpt  = 2048
	maxFailuresKept = 8
)

// FailureReport is one worker-reported shard failure: who ran it, which
// attempt it was, the error, and a truncated excerpt of the evidence
// (stderr, a panic message and stack). Reports persist in the journal so
// a quarantined shard stays diagnosable across coordinator restarts.
type FailureReport struct {
	Worker  string `json:"worker"`
	Attempt int    `json:"attempt"`
	Error   string `json:"error"`
	Excerpt string `json:"excerpt,omitempty"`
	UnixMS  int64  `json:"unix_ms,omitempty"`
}

// truncate clamps a report's strings to their storage bounds.
func (f FailureReport) truncate() FailureReport {
	if len(f.Error) > maxFailError {
		f.Error = f.Error[:maxFailError] + "…"
	}
	if len(f.Excerpt) > maxFailExcerpt {
		// Keep the tail: panic stacks and stderr put the interesting part last.
		f.Excerpt = "…" + f.Excerpt[len(f.Excerpt)-maxFailExcerpt:]
	}
	return f
}

// shardState is one shard's scheduling state. At most one of done, an
// active lease, and quarantined holds at a time; a shard with none is
// available. attempts counts lease grants that were consumed — by a
// completion, a failure report, or an expiry; a voluntary release (the
// drain path hands back an untouched shard) refunds its grant.
type shardState struct {
	done        bool
	artifact    string // file name under the campaign's artifact dir, set when done
	leaseID     string
	worker      string
	expiry      time.Time
	attempts    int
	quarantined bool
	failures    []FailureReport
}

// recordFailure appends a report, keeping the newest maxFailuresKept.
func (s *shardState) recordFailure(f FailureReport) {
	s.failures = append(s.failures, f.truncate())
	if len(s.failures) > maxFailuresKept {
		s.failures = s.failures[len(s.failures)-maxFailuresKept:]
	}
}

// campaign is one tenancy: a spec, its per-shard lease table, its own
// lease-ID sequence and straggler counter, and its validation verdict.
type campaign struct {
	id          string
	spec        Spec
	shards      []shardState
	seq         int64 // lease-id counter, persisted so recovered IDs never collide
	releases    int64 // expired leases handed back to the pool (straggler metric)
	failReports int64 // failure reports recorded (includes synthesized expiry reports)
	finished    bool  // server-side merge validation has run
	valid       bool
	valErr      string
}

func (cp *campaign) doneCount() int {
	n := 0
	for i := range cp.shards {
		if cp.shards[i].done {
			n++
		}
	}
	return n
}

func (cp *campaign) complete() bool { return cp.doneCount() == len(cp.shards) }

// budget resolves the campaign's effective shard attempt budget.
func (cp *campaign) budget(coordinatorDefault int) int {
	if cp.spec.MaxAttempts > 0 {
		return cp.spec.MaxAttempts
	}
	return coordinatorDefault
}

// failed reports the terminal failure state: every shard is settled
// (done or quarantined), at least one by quarantine. A campaign with a
// live lease is not failed yet — that lease may still complete.
func (cp *campaign) failed() bool {
	quarantined := false
	for i := range cp.shards {
		s := &cp.shards[i]
		switch {
		case s.done:
		case s.quarantined:
			quarantined = true
		default:
			return false // available or leased: still schedulable
		}
	}
	return quarantined
}

// terminal reports whether the campaign can never change again under
// scheduling: complete or failed.
func (cp *campaign) terminal() bool { return cp.complete() || cp.failed() }

// quarantinedShards lists the quarantined shard indices in order.
func (cp *campaign) quarantinedShards() []int {
	var q []int
	for i := range cp.shards {
		if cp.shards[i].quarantined {
			q = append(q, i)
		}
	}
	return q
}

// failProblem renders why a failed campaign failed: the quarantined
// shard indices and each one's last recorded error — the message merge
// validation and the status views surface.
func (cp *campaign) failProblem() string {
	q := cp.quarantinedShards()
	if len(q) == 0 {
		return ""
	}
	parts := make([]string, 0, len(q))
	for _, i := range q {
		s := &cp.shards[i]
		last := "no failure report recorded"
		if n := len(s.failures); n > 0 {
			last = s.failures[n-1].Error
		}
		parts = append(parts, fmt.Sprintf("shard %d (%d attempts): %s", i, s.attempts, last))
	}
	return fmt.Sprintf("shards %v quarantined after exhausting their attempt budget — %s",
		q, strings.Join(parts, "; "))
}

// Coordinator is the multi-campaign state machine. All methods are safe
// for concurrent use; every mutation but a heartbeat is journaled (atomic
// temp+rename) before it is acknowledged, so an acknowledged submission,
// lease, or completion survives a coordinator crash. A heartbeat only
// moves a lease's deadline, which the journal does not record: recovery
// gives every journaled lease one fresh TTL instead.
type Coordinator struct {
	dir    string
	engine string
	opts   Options

	mu        sync.Mutex
	order     []string             // campaign IDs in submission order
	campaigns map[string]*campaign // keyed by CampaignID(spec)
	done      chan struct{}        // closed when every submitted campaign is complete
	doneFired bool
}

// New opens (creating or recovering) the coordinator rooted at dir. A
// fresh directory starts empty — campaigns arrive through Submit. A
// directory holding a journal resumes every campaign in it exactly:
// done shards stay done, acknowledged leases keep their IDs and get one
// fresh TTL. A journal from a different engine version, or in any format
// but JournalVersion, refuses to open.
func New(dir string, opts Options) (*Coordinator, error) {
	opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, artifactsDir), 0o755); err != nil {
		return nil, fmt.Errorf("coord: opening %s: %w", dir, err)
	}
	c := &Coordinator{dir: dir, engine: opts.Engine, opts: opts,
		campaigns: make(map[string]*campaign), done: make(chan struct{})}
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	switch {
	case os.IsNotExist(err):
		// A fresh directory is an empty tenancy, which is also what a
		// missing journal recovers as: the first Submit writes one.
	case err != nil:
		return nil, fmt.Errorf("coord: reading journal: %w", err)
	default:
		if err := c.recover(raw); err != nil {
			return nil, err
		}
	}
	for _, id := range c.order {
		if cp := c.campaigns[id]; cp.complete() {
			c.finishLocked(cp)
		}
	}
	// Deliberately no checkTerminalLocked here: a caller resuming a fully
	// completed journal usually submits fresh campaigns right after New,
	// and the done channel must not latch closed before those arrive.
	// Done() runs the check when the channel is first handed out.
	return c, nil
}

// Dir returns the coordinator's root directory.
func (c *Coordinator) Dir() string { return c.dir }

// Engine returns the engine version every campaign here is fenced to.
func (c *Coordinator) Engine() string { return c.engine }

// ArtifactDir returns the directory a campaign's completed shard
// artifacts land in.
func (c *Coordinator) ArtifactDir(campaign string) string {
	return filepath.Join(c.dir, artifactsDir, campaign)
}

// Done returns a channel closed once at least one campaign has been
// submitted and every submitted campaign has reached a terminal state —
// completed (with its server-side merge validation run) or failed (every
// remaining shard quarantined). Failed campaigns count deliberately: a
// `-exit-when-done` coordinator must drain on a dead tenancy, not spin
// on shards nobody can ever finish. It never re-opens: a campaign
// submitted after the channel closes does not re-arm it, so submissions
// should land before the last running campaign settles. The terminal
// check also runs here, so resuming a fully settled journal and then
// waiting on Done still fires — but only after any boot-time submissions
// have landed.
func (c *Coordinator) Done() <-chan struct{} {
	c.mu.Lock()
	c.checkTerminalLocked()
	c.mu.Unlock()
	return c.done
}

// Submit adds a campaign (idempotently) and returns its ID. The spec's
// engine defaults to the coordinator's and must match it; the command
// and shard count are required. Submitting a spec the coordinator
// already holds — same engine, command, and shard count, which is
// exactly what the ID hashes — returns the existing campaign with
// created=false, so a worker fleet's supervisor can re-submit on every
// start without double-scheduling anything.
func (c *Coordinator) Submit(spec Spec) (id string, created bool, err error) {
	if spec.Engine == "" {
		spec.Engine = c.engine
	}
	if spec.Engine != c.engine {
		return "", false, badRequest{fmt.Errorf("coord: campaign engine %q, coordinator is fenced to %q", spec.Engine, c.engine)}
	}
	if len(spec.Command) == 0 || spec.Shards < 1 {
		return "", false, badRequest{errors.New("coord: a campaign needs a command and a shard count >= 1")}
	}
	id = CampaignID(spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp, ok := c.campaigns[id]; ok {
		// The ID is a digest of the spec, so a held ID should mean an equal
		// spec; check anyway — scheduling against a colliding spec would
		// hand out leases for work nobody records.
		if cp.spec.Engine != spec.Engine || !slices.Equal(cp.spec.Command, spec.Command) || cp.spec.Shards != spec.Shards {
			return "", false, fmt.Errorf("coord: campaign ID collision: %s already names %q as %d shards", id, CommandString(cp.spec.Command), cp.spec.Shards)
		}
		return id, false, nil
	}
	cp := &campaign{id: id, spec: spec, shards: make([]shardState, spec.Shards)}
	if err := os.MkdirAll(c.ArtifactDir(id), 0o755); err != nil {
		return "", false, fmt.Errorf("coord: creating artifact dir for %s: %w", id, err)
	}
	c.campaigns[id] = cp
	c.order = append(c.order, id)
	if err := c.journalLocked(); err != nil {
		delete(c.campaigns, id)
		c.order = c.order[:len(c.order)-1]
		return "", false, err
	}
	c.checkTerminalLocked()
	return id, true, nil
}

// byID resolves a campaign ID under mu.
func (c *Coordinator) byID(campaign string) (*campaign, error) {
	cp, ok := c.campaigns[campaign]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoCampaign, campaign)
	}
	return cp, nil
}

// Lease hands out the lowest-indexed available shard of the campaign.
// Expired leases are swept first — and only here: Lease is the one call
// that reclaims, so a crashed or stalled worker's shard is re-leased the
// moment another worker asks for work, while read paths (Status,
// Campaigns) never disturb an expired-but-revivable lease. A grant
// consumes one unit of the shard's attempt budget; quarantined shards
// are never granted, and a campaign with nothing but quarantined shards
// left answers Failed — the worker's signal to move on for good.
func (c *Coordinator) Lease(campaign, worker string) (Grant, LeaseState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, err := c.byID(campaign)
	if err != nil {
		return Grant{}, Wait, err
	}
	changed := c.sweepLocked(cp)
	if changed {
		c.checkTerminalLocked()
	}
	if cp.terminal() {
		state := Done
		if cp.failed() {
			state = Failed
		}
		if changed {
			if err := c.journalLocked(); err != nil {
				return Grant{}, Wait, err
			}
		}
		return Grant{}, state, nil
	}
	for i := range cp.shards {
		s := &cp.shards[i]
		if s.done || s.quarantined || s.leaseID != "" {
			continue
		}
		cp.seq++
		s.attempts++
		s.leaseID = fmt.Sprintf("L%d", cp.seq)
		s.worker = worker
		s.expiry = c.opts.Now().Add(c.opts.LeaseTTL)
		if err := c.journalLocked(); err != nil {
			return Grant{}, Wait, err
		}
		return Grant{Shard: i, Count: cp.spec.Shards, Command: cp.spec.Command,
			LeaseID: s.leaseID, TTL: c.opts.LeaseTTL}, Granted, nil
	}
	if changed {
		if err := c.journalLocked(); err != nil {
			return Grant{}, Wait, err
		}
	}
	return Grant{}, Wait, nil
}

// Heartbeat extends a live lease by a full TTL. A heartbeat on a lease
// that is past its expiry but still the shard's recorded one *renews* it —
// the shard was not promised to anyone else, so renewal cannot double-
// schedule and saves the work already in flight (a coordinator that was
// briefly down, or an operator's status poll landing in a heartbeat gap,
// must not strand the worker). A lease that was superseded or completed
// answers ErrLeaseLost. The renewal stays in memory — no file I/O, so a
// heartbeat costs the same in any size of tenancy; a restart grants
// every journaled lease a fresh TTL in its place.
func (c *Coordinator) Heartbeat(campaign, worker, leaseID string, shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, err := c.byID(campaign)
	if err != nil {
		return err
	}
	s, err := shardByLease(cp, leaseID, shard)
	if err != nil {
		return err
	}
	s.worker = worker
	s.expiry = c.opts.Now().Add(c.opts.LeaseTTL)
	return nil
}

// Release voluntarily returns a leased shard to the pool (the worker is
// draining). Releasing a lease that is already gone is not an error —
// release is the cleanup path and must be idempotent. The grant's
// attempt is refunded: a drained worker hands its shard back untouched,
// and an untouched handback must never eat into the quarantine budget
// (failures and expiries are what count attempts consumed).
func (c *Coordinator) Release(campaign, worker, leaseID string, shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, err := c.byID(campaign)
	if err != nil {
		return err
	}
	s, err := shardByLease(cp, leaseID, shard)
	if err != nil {
		return nil // already expired, superseded, or completed: nothing to release
	}
	s.leaseID, s.worker, s.expiry = "", "", time.Time{}
	if s.attempts > 0 {
		s.attempts--
	}
	return c.journalLocked()
}

// Fail records a worker-reported shard failure: the runner errored or
// panicked. The lease must still be the shard's current one (a stale
// report answers ErrLeaseLost and is ignored — the shard belongs to
// someone else now); the report is recorded, the lease is released, and
// the shard returns to the pool — unless this attempt exhausted its
// budget, in which case it is quarantined: never leased again, its
// failure history preserved. A shard whose quarantine settles the last
// schedulable work of its campaign tips the campaign into the terminal
// Failed state.
//
// quarantined reports whether this failure quarantined the shard,
// campaignFailed whether it tipped the campaign terminal, and
// allTerminal whether every campaign the coordinator holds is now
// settled — the worker's signal to drain instead of polling a
// coordinator that `-exit-when-done` may already be shutting down.
func (c *Coordinator) Fail(campaign, worker, leaseID string, shard int, errText, excerpt string) (quarantined, campaignFailed, allTerminal bool, err error) {
	if strings.TrimSpace(errText) == "" {
		return false, false, false, badRequest{errors.New("coord: a failure report needs an error")}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, err := c.byID(campaign)
	if err != nil {
		return false, false, false, err
	}
	s, err := shardByLease(cp, leaseID, shard)
	if err != nil {
		return false, false, false, err
	}
	s.recordFailure(FailureReport{Worker: worker, Attempt: s.attempts,
		Error: errText, Excerpt: excerpt, UnixMS: c.opts.Now().UnixMilli()})
	cp.failReports++
	s.leaseID, s.worker, s.expiry = "", "", time.Time{}
	if s.attempts >= cp.budget(c.opts.MaxShardAttempts) {
		s.quarantined = true
	}
	if err := c.journalLocked(); err != nil {
		return false, false, false, err
	}
	c.checkTerminalLocked()
	return s.quarantined, cp.failed(), c.allTerminalLocked(), nil
}

// shardByLease resolves (leaseID, shard) to the shard state iff the lease
// is still the shard's current one.
func shardByLease(cp *campaign, leaseID string, shard int) (*shardState, error) {
	if shard < 0 || shard >= len(cp.shards) {
		return nil, badRequest{fmt.Errorf("coord: shard %d of a %d-shard campaign", shard, len(cp.shards))}
	}
	s := &cp.shards[shard]
	if s.done || leaseID == "" || s.leaseID != leaseID {
		return nil, ErrLeaseLost
	}
	return s, nil
}

// Complete records a finished shard: artifact is the worker's exported
// shard artifact, verbatim. The artifact must validate — engine fence,
// internal consistency, and shard coordinates matching the completed index
// — but the *lease* is deliberately not required to still be live:
// artifacts for the same shard are deterministic and self-validating, so a
// straggler completing after its lease was re-leased (or after another
// worker already completed the shard) is harmless, and accepting it makes
// duplicate completion a non-event instead of an error path. The bytes are
// stored as received (atomic write), so duplicate completions converge on
// identical files.
//
// campaignDone reports whether this completion finished the campaign,
// and allTerminal whether every campaign the coordinator holds is settled
// (complete or failed) — what a worker needs to know before polling a
// coordinator that `-exit-when-done` may already be shutting down. A
// completion is accepted even for a quarantined shard: a real validated
// artifact trumps failure history (the late straggler finally made it),
// so the shard is marked done and its quarantine lifted — though a
// campaign already latched terminal stays latched for Done().
func (c *Coordinator) Complete(campaign, worker, leaseID string, shard int, artifact []byte) (campaignDone, allTerminal bool, err error) {
	c.mu.Lock()
	cp, err := c.byID(campaign)
	if err != nil {
		c.mu.Unlock()
		return false, false, err
	}
	spec := cp.spec
	c.mu.Unlock()

	if shard < 0 || shard >= spec.Shards {
		return false, false, badRequest{fmt.Errorf("coord: completion for shard %d of a %d-shard campaign", shard, spec.Shards)}
	}
	a, err := flit.ReadArtifact(bytes.NewReader(artifact))
	if err != nil {
		return false, false, badRequest{fmt.Errorf("coord: completion artifact: %w", err)}
	}
	if err := a.Check(); err != nil {
		return false, false, badRequest{fmt.Errorf("coord: completion artifact: %w", err)}
	}
	if a.Engine != spec.Engine {
		return false, false, badRequest{fmt.Errorf("coord: completion artifact from engine %q, campaign is %q", a.Engine, spec.Engine)}
	}
	if !slices.Equal(a.Command, spec.Command) {
		return false, false, badRequest{fmt.Errorf("coord: completion artifact records command %q, campaign is %q", a.Command, spec.Command)}
	}
	count := a.Shard.Count
	if count < 1 {
		count = 1
	}
	if a.Shard.Index != shard || count != spec.Shards {
		return false, false, badRequest{fmt.Errorf("coord: completion for shard %d carries artifact of shard %s", shard, a.Shard)}
	}
	name := fmt.Sprintf("shard-%d.json", shard)
	if err := store.WriteFileAtomic(filepath.Join(c.ArtifactDir(campaign), name), artifact); err != nil {
		return false, false, fmt.Errorf("coord: storing shard artifact: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-resolve: the campaign may have been retired while the artifact
	// validated and hit disk. The stray file is harmless (the journal is
	// the source of truth) but the completion is no longer recordable.
	cp, err = c.byID(campaign)
	if err != nil {
		return false, false, err
	}
	s := &cp.shards[shard]
	s.done = true
	s.artifact = name
	s.quarantined = false
	s.leaseID, s.worker, s.expiry = "", "", time.Time{}
	if err := c.journalLocked(); err != nil {
		return false, false, err
	}
	if cp.complete() {
		c.finishLocked(cp)
	}
	c.checkTerminalLocked()
	return cp.complete(), c.allTerminalLocked(), nil
}

// sweepLocked expires the campaign's stale leases, returning shards to
// the pool. Reports whether anything changed (the caller journals).
// Called only from Lease — the read paths must never reclaim. An expiry
// consumes the grant's attempt (the worker crashed or stalled mid-run —
// that is exactly the kind of repeated loss the budget bounds), so a
// shard that keeps killing its workers quarantines just like one that
// keeps reporting failure; a synthesized report records each expiry the
// same way a worker-reported failure would be.
func (c *Coordinator) sweepLocked(cp *campaign) bool {
	now := c.opts.Now()
	changed := false
	for i := range cp.shards {
		s := &cp.shards[i]
		if s.done || s.leaseID == "" || now.Before(s.expiry) {
			continue
		}
		s.recordFailure(FailureReport{Worker: s.worker, Attempt: s.attempts,
			Error:  "lease expired without completion (worker crashed, stalled, or partitioned)",
			UnixMS: now.UnixMilli()})
		cp.failReports++
		s.leaseID, s.worker, s.expiry = "", "", time.Time{}
		if s.attempts >= cp.budget(c.opts.MaxShardAttempts) {
			s.quarantined = true
		}
		cp.releases++
		changed = true
	}
	return changed
}

// finishLocked runs the server-side merge validation over the campaign's
// completed artifact set. Validation failure does not un-complete the
// campaign — the shards are what they are — but it is recorded and
// surfaced by Status, so a caller never merges blind.
func (c *Coordinator) finishLocked(cp *campaign) {
	if cp.finished {
		return // already validated (recovery re-entry, duplicate completion)
	}
	cp.finished = true
	arts := make([]*flit.Artifact, 0, len(cp.shards))
	err := func() error {
		for i := range cp.shards {
			a, err := flit.ReadArtifactFile(filepath.Join(c.ArtifactDir(cp.id), cp.shards[i].artifact))
			if err != nil {
				return err
			}
			arts = append(arts, a)
		}
		return flit.ValidateShardSet(arts)
	}()
	if err != nil {
		cp.valid, cp.valErr = false, err.Error()
	} else {
		cp.valid, cp.valErr = true, ""
	}
}

// allTerminalLocked reports whether every submitted campaign is settled:
// complete or terminally failed. This is what drains workers and
// `-exit-when-done` coordinators: a failed campaign must never keep a
// fleet spinning.
func (c *Coordinator) allTerminalLocked() bool {
	if len(c.order) == 0 {
		return false
	}
	for _, id := range c.order {
		if !c.campaigns[id].terminal() {
			return false
		}
	}
	return true
}

// checkTerminalLocked closes the done channel the first time every
// campaign is terminal (complete or failed).
func (c *Coordinator) checkTerminalLocked() {
	if !c.doneFired && c.allTerminalLocked() {
		c.doneFired = true
		close(c.done)
	}
}

// LeaseInfo is one recorded lease, as Status reports it. ExpiresMS goes
// negative once the lease outlives its TTL without a heartbeat: the
// lease is expired but *not yet reclaimed* — the next Lease call will
// sweep it, and until then a late heartbeat revives it. Rendering the
// gap instead of acting on it is what keeps Status a pure read.
type LeaseInfo struct {
	Shard     int    `json:"shard"`
	Worker    string `json:"worker"`
	LeaseID   string `json:"lease_id"`
	ExpiresMS int64  `json:"expires_in_ms"`
}

// ShardFailure is one shard's failure report as the status views render
// it: the per-shard FailureReport plus the shard index.
type ShardFailure struct {
	Shard int `json:"shard"`
	FailureReport
}

// Status is a point-in-time snapshot of one campaign. State is
// "running", "complete", or "failed"; Attempts records every shard's
// consumed attempt count (index = shard), Quarantined the shards that
// exhausted their budget, and Failures the retained failure reports in
// shard order (each shard keeps its most recent few — Attempts is the
// authoritative total).
type Status struct {
	ID          string         `json:"id"`
	Engine      string         `json:"engine"`
	Command     []string       `json:"command"`
	Shards      int            `json:"shards"`
	Done        int            `json:"done"`
	Completed   []int          `json:"completed"`
	Leases      []LeaseInfo    `json:"leases,omitempty"`
	Releases    int64          `json:"releases"`
	State       string         `json:"state"`
	Complete    bool           `json:"complete"`
	Failed      bool           `json:"failed"`
	Validated   bool           `json:"validated"`
	Problem     string         `json:"problem,omitempty"`
	MaxAttempts int            `json:"max_attempts"`
	Attempts    []int          `json:"attempts"`
	Quarantined []int          `json:"quarantined,omitempty"`
	Failures    []ShardFailure `json:"failures,omitempty"`
}

// Status snapshots one campaign. It is a pure read: nothing is swept,
// nothing is journaled, and an expired-but-unreclaimed lease is reported
// with a negative ExpiresMS rather than released — so operators can poll
// as hard as they like during a heartbeat gap without stranding the
// worker whose next heartbeat would have revived the lease.
func (c *Coordinator) Status(campaign string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, err := c.byID(campaign)
	if err != nil {
		return Status{}, err
	}
	return c.statusLocked(cp), nil
}

func (c *Coordinator) statusLocked(cp *campaign) Status {
	ci := cp.info()
	st := Status{
		ID:          ci.ID,
		Engine:      cp.spec.Engine,
		Command:     ci.Command,
		Shards:      ci.Shards,
		Done:        ci.Done,
		Releases:    ci.Releases,
		Completed:   []int{},
		MaxAttempts: cp.budget(c.opts.MaxShardAttempts),
		Attempts:    make([]int, len(cp.shards)),
		State:       "running",
		Complete:    ci.Complete,
		Failed:      ci.Failed,
		Validated:   ci.Validated,
		Problem:     ci.Problem,
	}
	switch {
	case ci.Complete:
		st.State = "complete"
	case ci.Failed:
		st.State = "failed"
	}
	now := c.opts.Now()
	for i := range cp.shards {
		s := &cp.shards[i]
		st.Attempts[i] = s.attempts
		if s.quarantined {
			st.Quarantined = append(st.Quarantined, i)
		}
		for _, f := range s.failures {
			st.Failures = append(st.Failures, ShardFailure{Shard: i, FailureReport: f})
		}
		if s.done {
			st.Completed = append(st.Completed, i)
			continue
		}
		if s.leaseID != "" {
			st.Leases = append(st.Leases, LeaseInfo{Shard: i, Worker: s.worker,
				LeaseID: s.leaseID, ExpiresMS: s.expiry.Sub(now).Milliseconds()})
		}
	}
	return st
}

// CampaignInfo is one row of the fleet view: a campaign's identity and
// progress, without the per-lease detail (Status has that). Quarantined
// counts shards that exhausted their attempt budget; Failed marks the
// terminal all-remaining-shards-quarantined state, which a worker treats
// exactly like Complete — nothing left to lease here, ever.
type CampaignInfo struct {
	ID          string   `json:"id"`
	Command     []string `json:"command"`
	Shards      int      `json:"shards"`
	Done        int      `json:"done"`
	Leases      int      `json:"leases"`
	Releases    int64    `json:"releases"`
	Quarantined int      `json:"quarantined"`
	FailReports int64    `json:"fail_reports"`
	Complete    bool     `json:"complete"`
	Failed      bool     `json:"failed"`
	Validated   bool     `json:"validated"`
	Problem     string   `json:"problem,omitempty"`
}

// info derives the campaign's fleet-view row — its progress counts and
// its complete/failed verdict — the one place both status views get them.
func (cp *campaign) info() CampaignInfo {
	ci := CampaignInfo{ID: cp.id, Command: append([]string(nil), cp.spec.Command...),
		Shards: cp.spec.Shards, Releases: cp.releases, FailReports: cp.failReports}
	for i := range cp.shards {
		switch {
		case cp.shards[i].done:
			ci.Done++
		case cp.shards[i].leaseID != "":
			ci.Leases++
		}
		if cp.shards[i].quarantined {
			ci.Quarantined++
		}
	}
	switch {
	case ci.Done == ci.Shards:
		ci.Complete = true
		ci.Validated = cp.valid
		ci.Problem = cp.valErr
	case cp.failed():
		ci.Failed = true
		ci.Problem = cp.failProblem()
	}
	return ci
}

// Campaigns lists every campaign in submission order. Like Status it is
// a pure read — no sweep, no journal write.
func (c *Coordinator) Campaigns() []CampaignInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	infos := make([]CampaignInfo, 0, len(c.order))
	for _, id := range c.order {
		infos = append(infos, c.campaigns[id].info())
	}
	return infos
}

// Releases reports how many expired leases were returned to the pool
// across every campaign — the straggler-mitigation counter the
// coordinator smoke asserts on, and the counter the status-read
// regression test pins at zero.
func (c *Coordinator) Releases() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, cp := range c.campaigns {
		n += cp.releases
	}
	return n
}

// FailReports reports how many failure reports were recorded across
// every campaign (worker-reported failures plus synthesized expiry
// reports) — the containment counter the benchmark pins at zero on the
// healthy path.
func (c *Coordinator) FailReports() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, cp := range c.campaigns {
		n += cp.failReports
	}
	return n
}

// QuarantinedShards reports how many shards are quarantined across every
// campaign.
func (c *Coordinator) QuarantinedShards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cp := range c.campaigns {
		n += len(cp.quarantinedShards())
	}
	return n
}

// GCResult reports a retirement pass.
type GCResult struct {
	// Retired lists the campaign IDs removed, in submission order.
	Retired []string `json:"retired"`
	// Kept counts the campaigns still held after the pass.
	Kept int `json:"kept"`
}

// GC retires superseded artifact generations server-side — the
// coordinator-owned form of `flit gc`. Completed campaigns that share a
// command are generations of the same study (they necessarily differ in
// shard count, since equal specs are one campaign); for each command the
// newest keep completed generations survive, in submission order, and
// older ones are retired: removed from the journal first, then their
// artifact directories deleted. Running campaigns are never touched and
// never count toward keep. dryRun plans without changing anything. A keep
// below 1 would retire every completed generation and is refused as a bad
// request.
//
// Retirement rides the coordinator's ownership boundary deliberately: an
// operator pruning the shared namespace by hand could delete an artifact
// the journal still references, which recovery refuses; the coordinator
// journals the removal before any file dies, so a crash mid-GC recovers
// to a consistent tenancy either way.
func (c *Coordinator) GC(keep int, dryRun bool) (GCResult, error) {
	if keep < 1 {
		return GCResult{}, badRequest{fmt.Errorf("coord: gc keep %d, want at least 1", keep)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]int) // completed generations per command, counted newest-first
	retire := make(map[string]bool)
	for i := len(c.order) - 1; i >= 0; i-- {
		cp := c.campaigns[c.order[i]]
		if !cp.complete() {
			continue
		}
		key := strings.Join(cp.spec.Command, "\x00")
		seen[key]++
		if seen[key] > keep {
			retire[cp.id] = true
		}
	}
	res := GCResult{Retired: []string{}}
	for _, id := range c.order {
		if retire[id] {
			res.Retired = append(res.Retired, id)
		}
	}
	res.Kept = len(c.order) - len(res.Retired)
	if dryRun || len(res.Retired) == 0 {
		return res, nil
	}
	kept := c.order[:0]
	for _, id := range c.order {
		if retire[id] {
			delete(c.campaigns, id)
		} else {
			kept = append(kept, id)
		}
	}
	c.order = kept
	if err := c.journalLocked(); err != nil {
		return GCResult{}, err
	}
	for _, id := range res.Retired {
		if err := os.RemoveAll(c.ArtifactDir(id)); err != nil {
			// The tenancy is already consistent (journal written); orphaned
			// files are a disk-space problem, not a correctness one.
			return res, fmt.Errorf("coord: retiring artifacts of %s: %w", id, err)
		}
	}
	return res, nil
}

// CommandString renders a campaign command the way the CLI accepts it:
// arguments joined by spaces, each one that contains whitespace quoted, so
// a printed bisect campaign's -comp value pastes back as one argument.
func CommandString(command []string) string {
	parts := make([]string, len(command))
	for i, arg := range command {
		if strings.ContainsFunc(arg, unicode.IsSpace) {
			arg = strconv.Quote(arg)
		}
		parts[i] = arg
	}
	return strings.Join(parts, " ")
}
