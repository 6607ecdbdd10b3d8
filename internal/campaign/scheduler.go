package campaign

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

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

// maxRetained bounds how many finished campaigns a service holds. Past
// it, the campaign that finished first is evicted: its ID answers 410
// Gone, and its sections are freed once no retained campaign holds them.
// Queued and running campaigns are never evicted. One benchmark window
// serves about 8,000 campaigns, far below the bound.
const maxRetained = 1 << 16

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
	finished  []*Campaign // retained finished campaigns, in finishing order
	retain    int         // finished campaigns held (maxRetained)
	// sections holds one immutable, exact-length copy of each distinct
	// rendered section, keyed by its SHA-256; every retained campaign
	// whose body holds those bytes points at it.
	sections map[[sha256.Size]byte]sharedSection

	// Retention gauges and campaign metrics (nil, and inert, without a
	// hub).
	retained, sectionCount, sectionBytes *telemetry.Gauge
	rejected                             *telemetry.Counter
	queueWait, runTime                   *telemetry.Histogram

	wake chan struct{} // nudges an idle runner after a submission
	stop chan struct{}
	wg   sync.WaitGroup
}

// sharedSection is one distinct rendered section and the number of
// retained campaign bodies that hold it.
type sharedSection struct {
	b    []byte
	refs int
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
	var m *telemetry.Registry
	if cfg.Hub != nil {
		m = cfg.Hub.Metrics
	}
	return &Service{
		cfg:          cfg,
		fleet:        experiments.NewFleet(cfg.Workers),
		tenants:      map[string]*tenantQueue{},
		campaigns:    map[string]*Campaign{},
		retain:       maxRetained,
		sections:     map[[sha256.Size]byte]sharedSection{},
		retained:     m.Gauge("campaigns_retained"),
		sectionCount: m.Gauge("campaign_sections"),
		sectionBytes: m.Gauge("campaign_section_bytes"),
		rejected:     m.Counter("campaign_rejected"),
		queueWait:    m.Histogram("campaign_queue_wait_ms", telemetry.ExpBuckets(0.25, 2, 18)),
		runTime:      m.Histogram("campaign_run_ms", telemetry.ExpBuckets(0.25, 2, 18)),
		wake:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
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
		s.rejected.Inc()
		return nil, &ErrQueueFull{
			Tenant:  spec.Tenant,
			Pending: len(t.pending),
			Retry:   1 + len(t.pending)/s.cfg.Workers,
		}
	}
	s.seq++
	spec.Tenant = t.name // one copy of the name per tenant, not per campaign
	c := newCampaign(s.seq, spec, exps)
	t.pending = append(t.pending, c)
	s.campaigns[c.ID] = c
	s.retained.Set(int64(len(s.campaigns)))
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return c, nil
}

// Get returns a retained campaign by ID.
func (s *Service) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// evicted reports whether id names a campaign this service issued and has
// since evicted (maxRetained).
func (s *Service) evicted(id string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "c"))
	s.mu.Lock()
	defer s.mu.Unlock()
	_, held := s.campaigns[id]
	return err == nil && !held && n >= 1 && n <= s.seq && id == "c"+strconv.Itoa(n)
}

// List returns every retained campaign in submission order.
func (s *Service) List() []*Campaign {
	s.mu.Lock()
	out := make([]*Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, c)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Campaign) int { return cmp.Compare(a.seq, b.seq) })
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
	started := c.event(Event{Kind: "started"})
	s.queueWait.Observe(ms(started.Sub(c.submitted())))
	before := s.cfg.Store.Stats()

	sess := experiments.NewSession(c.Spec.Scale)
	sess.Store = s.cfg.Store
	sess.Telemetry = s.cfg.Hub
	sess.Attacks = c.Spec.Attacks
	sess.Topologies = c.Spec.Topologies
	sess.CoreCounts = c.Spec.Cores
	sess.SharePool(s.fleet)

	body := make([][]byte, 0, len(c.exps))
	failed := experiments.RenderSections(sess, c.exps, func(e *experiments.Experiment, section []byte, err error) {
		ev := Event{Kind: "experiment", Experiment: e.ID}
		if err != nil {
			ev.Err = err.Error()
		} else {
			body = append(body, s.share(section))
		}
		c.event(ev)
	})
	sess.FinishTelemetry()

	after := s.cfg.Store.Stats()
	c.body = body
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
	s.retire(c)
	close(c.done)
	ev := Event{Kind: "done"}
	if len(failed) > 0 {
		ev.Err = fmt.Sprintf("%d of %d experiments failed", len(failed), len(c.exps))
	}
	s.runTime.Observe(ms(c.finish(ev).Sub(started)))
}

// ms converts d to the campaign histograms' unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns the service's one copy of a rendered section. When no
// retained campaign holds these bytes it adopts section itself, which
// RenderSections allocates at exactly its length. Shared sections are
// never written: a campaign's body is final once done closes, and
// handleResult only reads it.
func (s *Service) share(section []byte) []byte {
	sum := sha256.Sum256(section)
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.sections[sum]
	switch {
	case ok && !bytes.Equal(sh.b, section):
		return section // a SHA-256 collision keeps its own bytes
	case !ok:
		sh.b = section
		s.sectionCount.Set(int64(len(s.sections) + 1))
		s.sectionBytes.Add(int64(len(section)))
	}
	sh.refs++
	s.sections[sum] = sh
	return sh.b
}

// retire adds a finished campaign to the retained set and evicts the
// campaigns that finished first beyond the retention bound. It runs before
// the campaign's done channel closes, so a caller woken by Done sees the
// evictions its campaign caused.
func (s *Service) retire(c *Campaign) {
	var evicted []*Campaign
	s.mu.Lock()
	s.finished = append(s.finished, c)
	for len(s.finished) > s.retain {
		old := s.finished[0]
		s.finished[0] = nil
		s.finished = s.finished[1:]
		delete(s.campaigns, old.ID)
		evicted = append(evicted, old)
	}
	s.retained.Set(int64(len(s.campaigns)))
	s.mu.Unlock()
	for _, old := range evicted {
		for _, section := range old.body {
			s.release(section)
		}
	}
}

// release drops one evicted body's hold on a shared section, freeing it
// when no retained campaign holds it.
func (s *Service) release(section []byte) {
	sum := sha256.Sum256(section)
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.sections[sum]
	if !ok || &sh.b[0] != &section[0] {
		return // a collision's private copy
	}
	if sh.refs--; sh.refs > 0 {
		s.sections[sum] = sh
		return
	}
	delete(s.sections, sum)
	s.sectionCount.Set(int64(len(s.sections)))
	s.sectionBytes.Add(-int64(len(section)))
}
