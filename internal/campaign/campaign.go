// Package campaign is the multi-tenant campaign service behind
// cmd/campaignd: it accepts campaign submissions over HTTP/JSON (the same
// workload/ABI/scale/experiment selections cmd/experiments exposes as
// flags), schedules them across one shared simulation-worker fleet with
// per-tenant weighted round-robin fairness and bounded-queue backpressure,
// streams per-run progress, and serves warm results through the result
// store's in-memory admission cache. A campaign's rendered body is
// byte-identical to the equivalent cmd/experiments invocation — the service
// adds scheduling and transport, never formatting.
package campaign

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"cherisim/internal/attacks"
	"cherisim/internal/experiments"
	"cherisim/internal/resultstore"
	"cherisim/internal/soc"
)

// DefaultMaxScale bounds the per-submission workload scale a tenant can
// request; a runaway scale would monopolise the shared fleet.
const DefaultMaxScale = 8

// Spec is one campaign submission: which experiments to render and the
// session shape to render them under. The zero value of every optional
// field means the cmd/experiments default.
type Spec struct {
	// Tenant names the submitting tenant; queueing and fairness are
	// per-tenant. Empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Experiments lists experiment IDs (see experiments.Select); empty
	// selects the full -all set.
	Experiments []string `json:"experiments,omitempty"`
	// Scale is the workload scale factor (0 means 1; capped by the
	// service's MaxScale).
	Scale int `json:"scale,omitempty"`
	// Attacks restricts the security experiment's corpus (requires
	// selecting "security").
	Attacks []string `json:"attacks,omitempty"`
	// Topologies restricts the scale experiment's fabric sweep (requires
	// selecting "scale").
	Topologies []string `json:"topologies,omitempty"`
	// Cores overrides the scale experiment's core-count sweep (requires
	// selecting "scale").
	Cores []int `json:"cores,omitempty"`
}

// tenantRe bounds tenant names to a safe identifier set (they ride into
// queue maps, logs and response headers).
var tenantRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// validate normalises the spec in place and resolves its experiment
// selection, mirroring cmd/experiments' flag validation: every error here
// is a client error (HTTP 400), reported before anything is queued.
func (sp *Spec) validate(maxScale int) ([]*experiments.Experiment, error) {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if !tenantRe.MatchString(sp.Tenant) {
		return nil, fmt.Errorf("campaign: invalid tenant %q (want %s)", sp.Tenant, tenantRe)
	}
	if sp.Scale == 0 {
		sp.Scale = 1
	}
	if sp.Scale < 1 || sp.Scale > maxScale {
		return nil, fmt.Errorf("campaign: scale %d outside [1, %d]", sp.Scale, maxScale)
	}
	exps, err := experiments.Select(sp.Experiments)
	if err != nil {
		return nil, err
	}
	selected := func(id string) bool {
		for _, e := range exps {
			if e.ID == id {
				return true
			}
		}
		return false
	}
	if len(sp.Attacks) > 0 {
		if !selected("security") {
			return nil, fmt.Errorf("campaign: attacks only apply to the security experiment (select it)")
		}
		if _, err := attacks.Select(sp.Attacks); err != nil {
			return nil, err
		}
	}
	if len(sp.Topologies) > 0 || len(sp.Cores) > 0 {
		if !selected("scale") {
			return nil, fmt.Errorf("campaign: topologies/cores only apply to the scale experiment (select it)")
		}
	}
	for i, tp := range sp.Topologies {
		kind, err := soc.ParseTopologyKind(tp)
		if err != nil {
			return nil, err
		}
		sp.Topologies[i] = kind
	}
	for _, n := range sp.Cores {
		if n < 1 || n > soc.MaxCores {
			return nil, fmt.Errorf("campaign: core count %d outside [1, %d]", n, soc.MaxCores)
		}
	}
	return exps, nil
}

// State is a campaign's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	// StateDone means the campaign rendered; individual experiments may
	// still have failed (degraded mode, like cmd/experiments -all).
	StateDone State = "done"
)

// Event is one progress record of a campaign's event feed.
type Event struct {
	Seq  int       `json:"seq"`
	At   time.Time `json:"at"`
	Kind string    `json:"kind"` // queued | started | experiment | done
	// Experiment is the finished experiment's ID (kind "experiment").
	Experiment string `json:"experiment,omitempty"`
	// Err carries the experiment's failure (degraded mode), if any.
	Err string `json:"err,omitempty"`
}

// Campaign is one submitted campaign and its live state. All fields behind
// mu; the result body is immutable once done is closed.
type Campaign struct {
	ID   string
	Spec Spec

	exps []*experiments.Experiment

	mu     sync.Mutex
	state  State
	events []Event
	wake   chan struct{} // closed and replaced on every event append

	done    chan struct{} // closed on completion; fields below final after
	body    []byte
	failed  []experiments.RenderError
	sims    uint64
	derived uint64
	store   resultstore.Stats // store-traffic delta over the campaign's run
}

func newCampaign(id string, spec Spec, exps []*experiments.Experiment) *Campaign {
	c := &Campaign{
		ID:    id,
		Spec:  spec,
		exps:  exps,
		state: StateQueued,
		wake:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	c.event(Event{Kind: "queued"})
	return c
}

// event appends one progress record and wakes every feed watcher.
func (c *Campaign) event(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev.Seq = len(c.events) + 1
	ev.At = time.Now().UTC()
	c.events = append(c.events, ev)
	close(c.wake)
	c.wake = make(chan struct{})
}

// eventsSince returns the events after seq plus a channel that closes when
// more arrive — the feed endpoint's poll primitive.
func (c *Campaign) eventsSince(seq int) ([]Event, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events[seq:], c.wake
}

// State returns the campaign's current lifecycle phase.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

func (c *Campaign) setState(st State) {
	c.mu.Lock()
	c.state = st
	c.mu.Unlock()
}

// Done exposes the completion signal.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Result returns the rendered campaign body; false until done.
func (c *Campaign) Result() ([]byte, bool) {
	select {
	case <-c.done:
		return c.body, true
	default:
		return nil, false
	}
}

// Status is the JSON shape of GET /campaigns/{id}.
type Status struct {
	ID          string   `json:"id"`
	Tenant      string   `json:"tenant"`
	State       State    `json:"state"`
	Experiments []string `json:"experiments"`
	Scale       int      `json:"scale"`
	Events      int      `json:"events"`
	// Sims counts machine executions the campaign performed (0 for a fully
	// warm campaign served from the store).
	Sims uint64 `json:"sims"`
	// Derived counts runs the campaign served from a purecap execution's
	// PCC-free result instead of executing them (purecap-benchmark runs
	// and PCC-tracking ablation runs; see experiments.Session.Derived). 0
	// for a fully warm campaign: it reads those runs from the store.
	Derived uint64 `json:"derived"`
	// Store is the result-store traffic delta attributed to this campaign's
	// run (approximate when campaigns run concurrently — the counters are
	// fleet-wide).
	Store *resultstore.Stats `json:"store,omitempty"`
	// Failed lists experiments that failed in degraded mode, as "id: err".
	Failed []string `json:"failed,omitempty"`
}

// Status snapshots the campaign for the status endpoint.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	st := Status{
		ID:     c.ID,
		Tenant: c.Spec.Tenant,
		State:  c.state,
		Scale:  c.Spec.Scale,
		Events: len(c.events),
	}
	c.mu.Unlock()
	for _, e := range c.exps {
		st.Experiments = append(st.Experiments, e.ID)
	}
	select {
	case <-c.done:
		st.Sims = c.sims
		st.Derived = c.derived
		stats := c.store
		st.Store = &stats
		for _, f := range c.failed {
			st.Failed = append(st.Failed, fmt.Sprintf("%s: %v", f.ID, f.Err))
		}
	default:
	}
	return st
}

// ParseWeights parses a "tenant=weight,tenant=weight" fairness spec (the
// -weights flag of cmd/campaignd). Weights must be >= 1; unknown tenants
// simply pre-register their queue weight.
func ParseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for i, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("campaign: weights segment %d %q is not tenant=weight", i+1, part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("campaign: weight %q for tenant %s must be an integer >= 1", val, name)
		}
		out[name] = w
	}
	return out, nil
}
