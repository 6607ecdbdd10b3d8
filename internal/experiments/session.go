// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): each experiment is a named runner that executes the
// needed (workload, ABI) combinations on the simulated Morello platform,
// derives the paper's metrics, and renders the same rows/series the paper
// reports, annotated with the paper's values where it states them.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/cache"
	"cherisim/internal/check"
	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/metrics"
	"cherisim/internal/pmu"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
	"cherisim/internal/topdown"
	"cherisim/internal/workloads"
)

// RunData is the retained outcome of one simulated machine — a Run, a
// RunKernel or one core of a CoRun — decoded from its stored result
// (decodeCore). Attempts, Injected and Witness are set by Run only.
type RunData struct {
	Counters pmu.Counters
	Metrics  metrics.Metrics
	Topdown  topdown.Breakdown
	Heap     alloc.Stats
	Err      error
	// Revocations lists the revocation sweeps of a machine that ran with
	// TemporalSafety (nil otherwise).
	Revocations []core.RevocationStats
	// Attempts counts executions of this pair: 1 for an undisturbed run,
	// more when transient injected faults were retried. Counters and
	// Injected describe the final attempt.
	Attempts int
	// Uops is the number of classified µops the final attempt executed
	// (covers the prefix up to the fault for failed runs).
	Uops uint64
	// Injected lists the fault injections performed during the final
	// attempt (nil when the session runs without chaos).
	Injected []faultinject.Event
	// Witness is the corruption witness of an attack-corpus run: the
	// workload's Canary hook re-derives the seeded checksum over the
	// canary region the kernel planted (nil for workloads without one).
	// See internal/attacks.
	Witness *workloads.CanaryReport
}

// Pair names one (workload, ABI) measurement of the campaign grid.
type Pair struct {
	Workload *workloads.Workload
	ABI      abi.ABI
}

// Session caches workload runs so experiments that share measurements
// (e.g. Figure 1 and Table 3) execute each (workload, ABI) pair once, the
// way the paper reuses one measurement campaign across its analyses.
//
// Every simulation — a grid run, a profiled run, a custom kernel or a
// co-run — goes through one primitive (do): it joins an execution of the
// same store key already in flight on the session's fleet, serves the key
// from the result store, or executes it on bounded worker slots, then
// persists and observes the result. Each execution builds private
// machines, so parallel runs are deterministic and their results are
// independent of scheduling order. The session is safe for concurrent use.
type Session struct {
	// Scale multiplies every workload's iteration counts.
	Scale int
	// Configure, when set, adjusts the machine configuration before a run
	// (used by ablation experiments).
	Configure func(*core.Config)
	// Jobs caps the number of concurrently executing workloads. Values
	// <= 0 default to GOMAXPROCS; the effective pool size is
	// min(GOMAXPROCS, Jobs). Set it before the first Run/Prefetch call.
	Jobs int

	// Chaos, when non-nil, attaches a deterministic fault injector to
	// every run. Each (workload, ABI, attempt) cell derives its own seed
	// from Chaos.Seed, so campaign results are order-independent and
	// reproducible. See internal/faultinject.
	Chaos *faultinject.Config
	// ChaosSeed is the campaign seed the resilience experiment sweeps
	// with; it applies even when Chaos is nil (0 means 1).
	ChaosSeed uint64
	// DeadlineUops, when > 0, bounds every run's executed µops: the
	// watchdog aborts a run crossing the budget with a *core.DeadlineError
	// instead of letting a runaway workload stall the campaign.
	DeadlineUops uint64
	// Retries bounds the deterministic re-execution of runs that failed
	// with a transient injected fault (core.IsTransient). Fatal capability
	// violations, deadlines and panics are never retried.
	Retries int

	// Attacks, when non-empty, restricts the security experiment to the
	// named attack-corpus entries (see internal/attacks). Other
	// experiments ignore it.
	Attacks []string

	// Topologies, when non-empty, restricts the scale experiment to the
	// named fabric topologies ("mesh", "ring"). Other experiments ignore
	// it.
	Topologies []string
	// CoreCounts, when non-empty, overrides the scale experiment's
	// core-count sweep. Other experiments ignore it.
	CoreCounts []int

	// Check, when true, runs every measurement under the lockstep
	// reference-model harness: each machine's caches and TLBs get a naive
	// shadow model diffed after every operation, and every bounds
	// compression is re-derived in big-integer arithmetic (see
	// internal/check). Divergences never abort a run — they are collected
	// and reported via CheckReport, and counted on the check_divergences
	// telemetry counter. Set it before the first Run/Prefetch call.
	Check bool

	// Store, when non-nil, is the persistent result cache: every
	// simulation consults it before executing (unless Check is set —
	// checked runs must execute) and persists every finished result, so a
	// warm campaign resumes from disk. The nil store is inert. Set it
	// before the first Run/Prefetch call. See internal/resultstore.
	Store *resultstore.Store

	// Telemetry, when non-nil, receives spans, metrics and logs for every
	// simulation: a campaign-root span with per-worker run/attempt spans
	// under it, injected faults as instant events, and the engine's
	// counter/gauge/histogram set (see internal/telemetry). Nil (the
	// default) keeps the engine inert: the hot path costs one pointer test,
	// allocates nothing, and rendered output is byte-identical. Set it
	// before the first Run/Prefetch call.
	Telemetry *telemetry.Hub

	mu       sync.Mutex
	memo     map[memoKey]*memoCell
	fleet    *Fleet
	obs      *runObserver
	checkCol *check.Collector
	execs    *atomic.Uint64 // machine executions, not store hits; shared with derived sessions
	derived  *atomic.Uint64 // runs served from a source's PCC-free result (derive.go); shared likewise
	pccFree  *sync.Map      // source store key → its PCC-free result (derive.go); shared likewise
	fps      *sync.Map      // core.Config → its resultstore.ConfigFingerprint (configFingerprint); shared likewise
}

// NewSession creates a measurement session at the given workload scale.
func NewSession(scale int) *Session {
	if scale < 1 {
		scale = 1
	}
	return &Session{
		Scale:   scale,
		memo:    make(map[memoKey]*memoCell),
		execs:   new(atomic.Uint64),
		derived: new(atomic.Uint64),
		pccFree: new(sync.Map),
		fps:     new(sync.Map),
	}
}

// derive returns a sub-session for an experiment that re-measures under a
// modified configuration or supervision (ablations, the resilience sweep,
// the attack corpus). It inherits the scale, the Configure hook and the
// supervision settings, and shares the fleet, store, telemetry, checker,
// execution and derivation counters, the table of PCC-free results and the
// fingerprint memo, so its runs are bounded, deduplicated, persisted,
// observed, checked, counted and derived exactly like the parent's.
// Callers override only what differs.
func (s *Session) derive() *Session {
	sub := NewSession(s.Scale)
	sub.Configure = s.Configure
	sub.Chaos = s.Chaos
	sub.ChaosSeed = s.ChaosSeed
	sub.DeadlineUops = s.DeadlineUops
	sub.Retries = s.Retries
	sub.Store = s.Store
	sub.Telemetry = s.Telemetry
	sub.Check = s.Check
	sub.checkCol = s.checkCollector()
	s.mu.Lock()
	sub.fleet = s.pool()
	sub.obs = s.obs // built by pool() when telemetry is on
	s.mu.Unlock()
	sub.execs = s.execs
	sub.derived = s.derived
	sub.pccFree = s.pccFree
	sub.fps = s.fps
	return sub
}

// Fleet is a pool of simulation-worker slots plus the table of store keys
// executing on it. Every session attached to one fleet (SharePool) draws
// from its slots and joins its in-flight executions, so concurrent
// sessions — the campaign service runs each submission on its own session
// over one shared fleet — compete for workers instead of multiplying them,
// and execute each key once between them.
type Fleet struct {
	slots  chan int   // worker-ID pool: receiving acquires a slot + identity
	gather sync.Mutex // serialises multi-slot acquisition (see acquire)

	mu     sync.Mutex
	flight map[flightKey]*flight
}

// flightKey identifies one execution on a fleet: the full store key, plus
// the lockstep collector observing it (nil when unchecked), so a checked
// session never joins an execution its checker did not shadow.
type flightKey struct {
	key   resultstore.Key
	check *check.Collector
}

// flight is one execution in progress: the caller that claimed the key
// owns it and closes done; every later caller blocks on done and shares
// the outcome.
type flight struct {
	done  chan struct{}
	entry *resultstore.Entry
	err   error
}

// NewFleet builds a fleet of n worker slots (1 when n < 1).
func NewFleet(n int) *Fleet {
	if n < 1 {
		n = 1
	}
	f := &Fleet{slots: make(chan int, n), flight: make(map[flightKey]*flight)}
	for i := 0; i < n; i++ {
		f.slots <- i
	}
	return f
}

// size returns the fleet's worker-slot count.
func (f *Fleet) size() int { return cap(f.slots) }

// claim returns the flight for k and whether the caller owns it: a key
// already executing is joined, anything else is claimed by the caller,
// who must finish it.
func (f *Fleet) claim(k flightKey) (*flight, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.flight[k]; ok {
		return c, false
	}
	c := &flight{done: make(chan struct{})}
	f.flight[k] = c
	return c, true
}

// finish retires k and wakes its joiners. The owner persists the result
// before finishing, so a later request for k is served by the store.
func (f *Fleet) finish(k flightKey, c *flight) {
	f.mu.Lock()
	delete(f.flight, k)
	f.mu.Unlock()
	close(c.done)
}

// acquire takes n worker slots (1 <= n <= size) and returns their IDs. A
// multi-slot request gathers its slots under one lock, so two of them can
// never each hold part of the fleet while waiting for the rest. Holding
// the lock across the receives is safe: no slot holder ever waits for it,
// and a single-slot request, never waiting for a second slot, skips it.
func (f *Fleet) acquire(n int) []int {
	if n > 1 {
		f.gather.Lock()
		defer f.gather.Unlock()
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = <-f.slots
	}
	return ids
}

// release returns acquired slots to the fleet.
func (f *Fleet) release(ids []int) {
	for _, id := range ids {
		f.slots <- id
	}
}

// pool returns the session's fleet, building a private one of
// min(GOMAXPROCS, Jobs) slots on first use. Callers must hold s.mu.
func (s *Session) pool() *Fleet {
	if s.fleet == nil {
		n := s.Jobs
		if g := runtime.GOMAXPROCS(0); n <= 0 || n > g {
			n = g
		}
		s.fleet = NewFleet(n)
	}
	if obs := s.observer(); obs != nil {
		obs.poolWorkers.Set(int64(s.fleet.size()))
	}
	return s.fleet
}

// SharePool attaches a pre-built fleet (NewFleet) to the session in place
// of its private pool. Must be called before the first simulation; a nil
// fleet is ignored.
func (s *Session) SharePool(f *Fleet) {
	if f == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fleet = f
}

// Executions returns how many machine executions the session and the
// sub-sessions derived from it have performed. Store-served results,
// executions joined from another session and runs derived from a purecap
// execution (Derived) do not count, so a warm campaign over a populated
// store reports 0.
func (s *Session) Executions() uint64 { return s.execs.Load() }

// Derived returns how many runs the session and the sub-sessions derived
// from it served from a purecap execution's PCC-free result instead of
// executing them (see derive.go). A warm campaign reports 0: its purecap
// runs come from the store, and so do the runs derived from them.
func (s *Session) Derived() uint64 { return s.derived.Load() }

// observer returns the session's telemetry observer, building it on first
// use; nil when telemetry is disabled. Callers must hold s.mu.
func (s *Session) observer() *runObserver {
	if s.obs == nil && s.Telemetry.Enabled() {
		s.obs = newRunObserver(s.Telemetry)
	}
	return s.obs
}

// campaignObserver exposes the session's observer to campaign-level
// instrumentation (RenderAll's experiment spans); nil when telemetry is
// off.
func (s *Session) campaignObserver() *runObserver {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observer()
}

// checkCollector returns the session's lockstep collector, building it on
// first use; nil when checking is off.
func (s *Session) checkCollector() *check.Collector {
	if !s.Check {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.checkCol == nil {
		s.checkCol = check.NewCollector(s.Telemetry)
		s.checkCol.EnableBounds()
	}
	return s.checkCol
}

// machineSetup returns the per-machine hook the session installs on the
// machines of kernels and co-runs; nil when lockstep checking is off.
func (s *Session) machineSetup() func(*core.Machine) {
	col := s.checkCollector()
	if col == nil {
		return nil
	}
	return func(m *core.Machine) { col.AttachMachine(m) }
}

// sliceSetup returns the per-slice hook the session installs on topology
// co-runs — the lockstep checker shadows every LLC slice (safe under the
// parallel weave: each slice's checker is only driven by the goroutine
// merging that slice, and the collector is concurrency-safe). Nil when
// checking is off.
func (s *Session) sliceSetup() func(int, *cache.Cache) {
	col := s.checkCollector()
	if col == nil {
		return nil
	}
	return func(slice int, c *cache.Cache) { check.AttachCache(col, c) }
}

// CheckReport summarizes the lockstep checker's results so far. The zero
// Report when checking is off.
func (s *Session) CheckReport() check.Report {
	s.mu.Lock()
	col := s.checkCol
	s.mu.Unlock()
	if col == nil {
		return check.Report{}
	}
	return col.Report()
}

// CloseCheck detaches the session's collector from the process-global
// bounds observer. Call it when the campaign is done and the report has
// been read; idempotent and a no-op when checking is off.
func (s *Session) CloseCheck() {
	s.mu.Lock()
	col := s.checkCol
	s.mu.Unlock()
	if col != nil {
		col.Close()
	}
}

// FinishTelemetry ends the session's campaign-root span so every span is
// published to the collector before a trace export. Idempotent; a no-op
// without telemetry.
func (s *Session) FinishTelemetry() {
	s.mu.Lock()
	obs := s.obs
	s.mu.Unlock()
	obs.finish()
}

// do is the one path from a store key to a result that has been executed,
// persisted and observed. In order, it joins an execution of the same key
// already in flight on the fleet; otherwise serves the key from the store,
// before taking any slot; otherwise acquires `slots` worker slots (capped
// at the fleet's size), runs exec, saves its entry, closes the run span
// with the runs_*, run_wall_ms and pool_occupancy metrics and releases the
// slots — in that order, so pool_occupancy never counts more slots than
// the fleet has. exec receives the run span so supervised callers can hang
// attempt spans beneath it, and the number of slots it holds so a
// multi-core execution can bound its parallelism by them. An exec error
// reaches every caller of the key and is never persisted.
func (s *Session) do(key resultstore.Key, slots int, exec func(run *telemetry.Span, slots int) (*resultstore.Entry, error)) (*resultstore.Entry, error) {
	s.mu.Lock()
	fleet := s.pool()
	obs := s.obs // built by pool() when telemetry is on
	s.mu.Unlock()

	fk := flightKey{key: key, check: s.checkCollector()}
	c, owner := fleet.claim(fk)
	if !owner {
		obs.sfHit()
		<-c.done
		return c.entry, c.err
	}
	if e, ok := s.load(key, obs); ok {
		c.entry = e
		fleet.finish(fk, c)
		return e, nil
	}

	slots = max(1, min(slots, fleet.size()))
	ids := fleet.acquire(slots)
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	run := obs.runStart(key, slots, ids[0])
	c.entry, c.err = exec(run, slots)
	if c.err == nil {
		s.save(c.entry, obs)
	}
	if obs != nil {
		obs.runEnd(run, c.entry, c.err, slots, time.Since(t0))
	}
	fleet.release(ids)
	fleet.finish(fk, c)
	return c.entry, c.err
}

// memoCell is one per-session result cell: the first caller of a key
// resolves it and closes done; every later caller waits on done and shares
// the result, so a repeated Run costs one map lookup and allocates nothing.
type memoCell struct {
	done chan struct{}
	run  *RunData
	prof *core.AttributionProfile
	err  error
}

// memoKey identifies one memo cell: a (workload, ABI) run or, with
// profile set, its attribution-profiled sibling. A composite struct key
// instead of a concatenated string keeps the cached-run hot path
// allocation-free (the guard BenchmarkSessionTelemetryOff pins this).
type memoKey struct {
	workload string
	abi      abi.ABI
	profile  bool
}

// memoized returns the session's cell for k, resolving it on first use.
func (s *Session) memoized(k memoKey, resolve func(*memoCell)) *memoCell {
	s.mu.Lock()
	if c, ok := s.memo[k]; ok {
		obs := s.obs
		s.mu.Unlock()
		obs.sfHit()
		<-c.done
		return c
	}
	c := &memoCell{done: make(chan struct{})}
	s.memo[k] = c
	s.mu.Unlock()
	resolve(c)
	close(c.done)
	return c
}

// Run returns the (cached) outcome of executing workload w under ABI a.
// Concurrent calls for the same pair share one execution; calls for
// different pairs proceed in parallel up to the worker-pool bound. A run
// that differs from a purecap run only by the PCC-bounds stall term is
// derived from that run's execution instead (derive.go).
func (s *Session) Run(w *workloads.Workload, a abi.ABI) *RunData {
	return s.memoized(memoKey{workload: w.Name, abi: a}, func(c *memoCell) {
		cfg := s.effectiveConfig(a)
		key := s.runStoreKey(w, a, cfg)
		e, _ := s.resolve(key, w, cfg, false, func(run *telemetry.Span, _ int) (*resultstore.Entry, error) {
			return s.execute(key, w, a, cfg, run), nil
		})
		c.run = runDataFromEntry(e)
	}).run
}

// execute performs one supervised workload run: up to 1+Retries attempts
// on fresh machines, retrying only transient injected faults. The retry
// schedule is deterministic — attempt k of a pair always draws the same
// fault schedule, independent of pool scheduling (and of whether telemetry
// observes it).
func (s *Session) execute(key resultstore.Key, w *workloads.Workload, a abi.ABI, cfg core.Config, run *telemetry.Span) *resultstore.Entry {
	obs := s.campaignObserver()
	for attempt := 0; ; attempt++ {
		att := obs.attemptStart(run, attempt)
		e, err := s.executeOnce(key, w, a, cfg, attempt, obs, att)
		retry := err != nil && attempt < s.Retries && core.IsTransient(err)
		obs.attemptEnd(att, e, err, retry)
		if !retry {
			return e
		}
	}
}

// executeOnce performs one attempt on a fresh machine and returns its
// entry together with the live run error. Its machine leaves per-function
// attribution off: nothing reads a measured run's profile. A source
// execution (derive.go) carries its PCC-free result.
func (s *Session) executeOnce(key resultstore.Key, w *workloads.Workload, a abi.ABI, cfg core.Config, attempt int, obs *runObserver, att *telemetry.Span) (*resultstore.Entry, error) {
	s.execs.Add(1)
	inj, setup := s.attemptSetup(w, a, attempt, obs, att)
	m, err := workloads.ExecuteHooked(w, cfg, s.Scale, setup)
	e := &resultstore.Entry{Key: key, Attempts: attempt + 1}
	if inj != nil {
		e.Injected = inj.Events()
	}
	if w.Canary != nil {
		wr := w.Canary(m)
		e.Witness = &wr
	}
	fillCoreResult(&e.CoreResult, m, err)
	if s.isPCCSource(w, cfg) {
		e.PCCFree = pccFreeResult(e, m)
	}
	return e, err
}

// attemptSetup builds one attempt's machine hook: when the session is
// supervised, the deterministic fault injector (under chaos) and the
// quantum hook that drives it and the watchdog; when checking is on, the
// lockstep checker's shadows. Nil when neither applies. The measured path
// (executeOnce) and the profiled path (profileOnce) share it, so both
// observe the same fault schedule for the same (workload, ABI, attempt)
// cell.
func (s *Session) attemptSetup(w *workloads.Workload, a abi.ABI, attempt int, obs *runObserver, att *telemetry.Span) (*faultinject.Injector, func(*core.Machine)) {
	var inj *faultinject.Injector
	if s.Chaos != nil {
		c := *s.Chaos
		c.Seed = faultinject.RunSeed(c.Seed, w.Name, a.String(), attempt)
		c.Observe = obs.injectObserver(att, c.Seed)
		inj = faultinject.New(c)
	}
	var setup func(*core.Machine)
	if deadline := s.DeadlineUops; inj != nil || deadline > 0 {
		setup = func(m *core.Machine) {
			quantum := uint64(faultinject.DefaultQuantum)
			if inj != nil {
				quantum = inj.Quantum()
			}
			var executed uint64
			m.SetQuantum(quantum, func() {
				executed += quantum
				if deadline > 0 && executed >= deadline {
					panic(&core.DeadlineError{Uops: executed, Budget: deadline})
				}
				if inj != nil {
					inj.Step(m)
				}
			})
		}
	}
	if col := s.checkCollector(); col != nil {
		inner := setup
		setup = func(m *core.Machine) {
			col.AttachMachine(m)
			if inner != nil {
				inner(m)
			}
		}
	}
	return inj, setup
}

// fanOut runs fn(i) for every i < n concurrently, waits for all of them,
// and returns the error of the lowest i that failed: the error a serial
// loop stopping at its first failure would return. It adds no bound of
// its own: every simulation fn issues takes its worker slots through
// Session.do, so the fleet bounds how many execute at once. Callers
// collect results into an index-addressed slice, so what they render does
// not depend on scheduling order.
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range errs {
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Prefetch fans the given pairs out across the fleet (fanOut) and blocks
// until every one is cached. Duplicate pairs collapse onto one execution,
// so prefetching the union of several experiments' needs is cheap.
// Because each run is deterministic and isolated, a render after Prefetch
// is byte-identical to the same render on a serial session.
func (s *Session) Prefetch(pairs []Pair) {
	uniq := make([]Pair, 0, len(pairs))
	seen := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		if p.Workload == nil {
			continue
		}
		key := p.Workload.Name + "/" + p.ABI.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		uniq = append(uniq, p)
	}
	fanOut(len(uniq), func(i int) error {
		s.Run(uniq[i].Workload, uniq[i].ABI)
		return nil
	})
}

// RunAll executes the full measurement campaign — every runnable workload
// under every ABI — across the worker pool.
func (s *Session) RunAll() {
	s.Prefetch(CampaignGrid())
}

// CampaignGrid returns the paper's full measurement grid: the 20 runnable
// workloads crossed with the three ABIs.
func CampaignGrid() []Pair {
	return pairsOf(workloads.All(), abi.All()...)
}

// pairsOf crosses a workload set with a list of ABIs.
func pairsOf(ws []*workloads.Workload, abis ...abi.ABI) []Pair {
	out := make([]Pair, 0, len(ws)*len(abis))
	for _, w := range ws {
		for _, a := range abis {
			out = append(out, Pair{Workload: w, ABI: a})
		}
	}
	return out
}

// namedPairs is pairsOf with a name lookup; unknown names are skipped
// (prefetching is best-effort — rendering reports the real error).
func namedPairs(names []string, abis ...abi.ABI) []Pair {
	var ws []*workloads.Workload
	for _, n := range names {
		if w, err := workloads.ByName(n); err == nil {
			ws = append(ws, w)
		}
	}
	return pairsOf(ws, abis...)
}

// RunByName is Run with a workload name lookup.
func (s *Session) RunByName(name string, a abi.ABI) (*RunData, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return s.Run(w, a), nil
}

// Seconds returns the simulated execution time for (w, a) in seconds, or
// 0 when the run faulted (so downstream ratios stay NaN-free).
func (s *Session) Seconds(w *workloads.Workload, a abi.ABI) float64 {
	d := s.Run(w, a)
	if d.Err != nil {
		return 0
	}
	return d.Metrics.Seconds
}

// Overhead returns time(a)/time(hybrid) for workload w.
func (s *Session) Overhead(w *workloads.Workload, a abi.ABI) float64 {
	hy := s.Seconds(w, abi.Hybrid)
	if hy == 0 {
		return 0
	}
	return s.Seconds(w, a) / hy
}
