package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"cherisim/internal/experiments"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
)

// Config shapes a Service.
type Config struct {
	// Store is the shared persistent result store (required for warm
	// serving; nil disables persistence).
	Store *resultstore.Store
	// Hub receives the fleet's telemetry; nil keeps the engine inert.
	Hub *telemetry.Hub
	// Workers sizes the shared simulation-worker fleet every campaign's
	// session draws from (<= 0 means 1).
	Workers int
	// Runners bounds how many campaigns execute concurrently (<= 0 means
	// 1). Even concurrent campaigns share the Workers fleet — runners bound
	// pipeline overlap, not simulation parallelism.
	Runners int
	// QueueDepth bounds each tenant's pending campaigns; a submission over
	// the bound is rejected with ErrQueueFull (HTTP 429). <= 0 means 8.
	QueueDepth int
	// Weights assigns per-tenant fairness weights (>= 1); tenants not
	// listed weigh 1.
	Weights map[string]int
	// MaxScale caps Spec.Scale (<= 0 means DefaultMaxScale).
	MaxScale int
}

// ErrQueueFull rejects a submission over the tenant's queue bound; Retry
// is the backpressure hint (seconds) the HTTP layer serves as Retry-After.
type ErrQueueFull struct {
	Tenant  string
	Pending int
	Retry   int
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("campaign: tenant %s queue full (%d pending); retry in ~%ds", e.Tenant, e.Pending, e.Retry)
}

// ErrClosed rejects submissions to a closed service.
var ErrClosed = errors.New("campaign: service is shutting down")

// tenantQueue is one tenant's FIFO of queued campaigns plus its weighted
// round-robin bookkeeping. Tenants stay registered once seen (the ring is
// bounded by tenant count, not campaign count).
type tenantQueue struct {
	name    string
	weight  int
	credit  int // dispatches left in the current round
	pending []*Campaign
}

// Service schedules submitted campaigns across one shared worker fleet.
type Service struct {
	cfg   Config
	fleet *experiments.Fleet

	mu        sync.Mutex
	closed    bool
	seq       int
	tenants   map[string]*tenantQueue
	ring      []*tenantQueue // round-robin order = first-submission order
	cur       int            // ring position the next dispatch scan starts at
	campaigns map[string]*Campaign
	order     []string // campaign IDs in submission order

	wake chan struct{} // nudges an idle runner after a submission
	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a service; Start launches its runners.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Runners <= 0 {
		cfg.Runners = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.MaxScale <= 0 {
		cfg.MaxScale = DefaultMaxScale
	}
	return &Service{
		cfg:       cfg,
		fleet:     experiments.NewFleet(cfg.Workers),
		tenants:   map[string]*tenantQueue{},
		campaigns: map[string]*Campaign{},
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
}

// Start launches the runner goroutines. Submissions before Start queue up
// (deterministically testable backpressure); submissions after Close fail.
func (s *Service) Start() {
	for i := 0; i < s.cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
}

// Close stops accepting submissions and waits for in-flight campaigns to
// finish. Queued-but-unstarted campaigns stay queued (their state never
// leaves "queued").
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
}

// Submit validates and enqueues one campaign, returning its record.
func (s *Service) Submit(spec Spec) (*Campaign, error) {
	exps, err := spec.validate(s.cfg.MaxScale)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	t := s.tenants[spec.Tenant]
	if t == nil {
		w := s.cfg.Weights[spec.Tenant]
		if w < 1 {
			w = 1
		}
		t = &tenantQueue{name: spec.Tenant, weight: w}
		s.tenants[spec.Tenant] = t
		s.ring = append(s.ring, t)
	}
	if len(t.pending) >= s.cfg.QueueDepth {
		return nil, &ErrQueueFull{
			Tenant:  spec.Tenant,
			Pending: len(t.pending),
			Retry:   1 + len(t.pending)/s.cfg.Workers,
		}
	}
	s.seq++
	c := newCampaign(fmt.Sprintf("c%d", s.seq), spec, exps)
	t.pending = append(t.pending, c)
	s.campaigns[c.ID] = c
	s.order = append(s.order, c.ID)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return c, nil
}

// Get returns a campaign by ID.
func (s *Service) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// List returns every campaign in submission order.
func (s *Service) List() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id])
	}
	return out
}

// next dispatches the next campaign under weighted round-robin deficit
// scheduling: each tenant spends up to `weight` dispatches per round before
// the pointer moves on, so a flood from one tenant interleaves with — never
// starves — the others, proportionally to their weights. Returns nil when
// every queue is empty. Callers must hold s.mu.
func (s *Service) next() *Campaign {
	for scanned := 0; scanned < len(s.ring); {
		t := s.ring[s.cur]
		if len(t.pending) == 0 {
			t.credit = 0
			s.cur = (s.cur + 1) % len(s.ring)
			scanned++
			continue
		}
		if t.credit == 0 {
			t.credit = t.weight // new round for this tenant
		}
		c := t.pending[0]
		t.pending = t.pending[1:]
		t.credit--
		if t.credit == 0 || len(t.pending) == 0 {
			t.credit = 0
			s.cur = (s.cur + 1) % len(s.ring)
		}
		return c
	}
	return nil
}

// runner is one campaign-execution loop.
func (s *Service) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		c := s.next()
		s.mu.Unlock()
		if c == nil {
			select {
			case <-s.wake:
				continue
			case <-s.stop:
				return
			}
		}
		s.run(c)
	}
}

// run executes one campaign on a fresh session over the shared fleet,
// store and hub. A fresh session per campaign keeps memory bounded and —
// crucially — routes every warm request through the store's admission
// cache instead of a process-lifetime singleflight map, so Sims and the
// store delta mean what they say.
func (s *Service) run(c *Campaign) {
	c.setState(StateRunning)
	c.event(Event{Kind: "started"})
	before := s.cfg.Store.Stats()

	sess := experiments.NewSession(c.Spec.Scale)
	sess.Store = s.cfg.Store
	sess.Telemetry = s.cfg.Hub
	sess.Attacks = c.Spec.Attacks
	sess.Topologies = c.Spec.Topologies
	sess.CoreCounts = c.Spec.Cores
	sess.SharePool(s.fleet)

	var body bytes.Buffer
	failed := experiments.RenderSelected(sess, &body, c.exps, func(e *experiments.Experiment, err error) {
		ev := Event{Kind: "experiment", Experiment: e.ID}
		if err != nil {
			ev.Err = err.Error()
		}
		c.event(ev)
	})
	sess.FinishTelemetry()

	after := s.cfg.Store.Stats()
	c.body = body.Bytes()
	c.failed = failed
	c.sims = sess.Executions()
	c.derived = sess.Derived()
	c.store = resultstore.Stats{
		Hits:        after.Hits - before.Hits,
		Misses:      after.Misses - before.Misses,
		Writes:      after.Writes - before.Writes,
		Corrupt:     after.Corrupt - before.Corrupt,
		MemHits:     after.MemHits - before.MemHits,
		Errors:      after.Errors - before.Errors,
		WriteErrors: after.WriteErrors - before.WriteErrors,
	}
	c.setState(StateDone)
	close(c.done)
	ev := Event{Kind: "done"}
	if len(failed) > 0 {
		ev.Err = fmt.Sprintf("%d of %d experiments failed", len(failed), len(c.exps))
	}
	c.event(ev)
}
