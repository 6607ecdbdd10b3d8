package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/core"
	"cherisim/internal/metrics"
	"cherisim/internal/pmu"
	"cherisim/internal/report"
	"cherisim/internal/resultstore"
	"cherisim/internal/soc"
	"cherisim/internal/telemetry"
	"cherisim/internal/topdown"
	"cherisim/internal/workloads"
)

// This file wires the persistent result store (internal/resultstore)
// through the session engine: every simulation is addressed by a store
// key, executed through Session.do and persisted as one entry, and the
// public simulation methods are thin adapters that build a key and an
// exec closure and decode the entry. MetricSnapshot feeds the
// golden-baseline gate. The lockstep checker (-check) deliberately
// bypasses store lookups — its purpose is re-executing under shadow
// models, which a served entry would skip — while fresh results are still
// persisted for later unchecked campaigns.

// storeEnabled reports whether lookups may be served from the store.
func (s *Session) storeEnabled() bool { return s.Store != nil && !s.Check }

// effectiveConfig is the machine configuration a session run under ABI a
// actually uses (DefaultConfig shaped by the session's Configure hook).
func (s *Session) effectiveConfig(a abi.ABI) core.Config {
	cfg := core.DefaultConfig(a)
	if s.Configure != nil {
		s.Configure(&cfg)
	}
	return cfg
}

// supervisorFingerprint canonically encodes the session supervision that
// shapes run outcomes: the chaos schedule, the watchdog budget and the
// retry bound. An unsupervised session encodes to "".
func (s *Session) supervisorFingerprint() string {
	if s.Chaos == nil && s.DeadlineUops == 0 {
		return ""
	}
	var b strings.Builder
	if c := s.Chaos; c != nil {
		kinds := make([]string, len(c.Kinds))
		for i, k := range c.Kinds {
			kinds[i] = k.String()
		}
		sort.Strings(kinds)
		fmt.Fprintf(&b, "chaos=%d:%g:%d:%s", c.Seed, c.RatePerMUops, c.Quantum, strings.Join(kinds, ","))
	}
	fmt.Fprintf(&b, "|deadline=%d|retries=%d", s.DeadlineUops, s.Retries)
	return b.String()
}

// runStoreKey addresses one (workload, ABI) run of this session under its
// effective configuration cfg.
func (s *Session) runStoreKey(w *workloads.Workload, a abi.ABI, cfg core.Config) resultstore.Key {
	return resultstore.Key{
		Kind:       resultstore.KindRun,
		Name:       w.Name,
		ABI:        a.String(),
		Scale:      s.Scale,
		Config:     resultstore.ConfigFingerprint(cfg),
		Supervisor: s.supervisorFingerprint(),
		Model:      resultstore.ModelFingerprint(),
	}
}

// unitKey addresses a kernel or co-run: the caller's id, which must name
// every parameter that shapes its behaviour, plus the fingerprint of the
// machine configuration(s) it uses.
func (s *Session) unitKey(kind, id, config string) resultstore.Key {
	return resultstore.Key{
		Kind:   kind,
		Name:   id,
		Scale:  s.Scale,
		Config: config,
		Model:  resultstore.ModelFingerprint(),
	}
}

// load serves key from the store; false on a miss, on corruption or when
// lookups are disabled. Hit/miss telemetry rides the observer.
func (s *Session) load(key resultstore.Key, obs *runObserver) (*resultstore.Entry, bool) {
	if !s.storeEnabled() {
		return nil, false
	}
	e, ok := s.Store.Load(key)
	if !ok {
		obs.storeMiss()
		return nil, false
	}
	obs.storeHit()
	return e, true
}

// save persists a finished entry. Persistence is best-effort: a full disk
// must degrade the store to a cache miss on the next campaign, never fail
// the measurement that just completed — but the failure is counted
// (store_write_errors, Stats.WriteErrors, the stderr store summary), so a
// long-running service can see it is permanently cold instead of silently
// re-simulating every campaign.
func (s *Session) save(e *resultstore.Entry, obs *runObserver) {
	if err := s.Store.Save(e); err != nil {
		obs.storeWriteError()
	}
}

// fillCoreResult populates one stored machine outcome.
func fillCoreResult(r *resultstore.CoreResult, c *pmu.Counters, heap alloc.Stats,
	uops uint64, err error, machine bool, revs []core.RevocationStats) {
	if machine {
		r.SetCounters(c)
		r.Heap = heap
		r.Uops = uops
		r.Revocations = revs
	}
	r.Error = resultstore.EncodeError(err)
}

// runDataFromEntry rebuilds a RunData, recomputing the derived metrics
// from the stored counters so a result can never disagree with the current
// formulas (a formula change bumps the model fingerprint anyway). Executed
// and store-served runs decode through the same path.
func runDataFromEntry(e *resultstore.Entry) *RunData {
	d := &RunData{
		Attempts: e.Attempts,
		Injected: e.Injected,
		Witness:  e.Witness,
		Err:      e.Error.Reconstruct(),
	}
	if c, ok := e.CountersFile(); ok {
		d.Counters = c
		d.Metrics = metrics.Compute(&c)
		d.Topdown = topdown.Analyze(&c)
		d.Heap = e.Heap
		d.Uops = e.Uops
	}
	return d
}

// KernelResult is the retained outcome of one custom-machine kernel run —
// what the sweep/compartment/revocation experiments consume from the
// machines they used to build by hand.
type KernelResult struct {
	Counters    pmu.Counters
	Metrics     metrics.Metrics
	Heap        alloc.Stats
	Uops        uint64
	Revocations []core.RevocationStats
}

// RunKernel executes body on a fresh machine under cfg on one worker slot:
// id must uniquely name the kernel including every parameter that shapes
// its behaviour (the key also folds in cfg, the session scale and the
// model fingerprint). Failed kernel runs are returned as errors and never
// stored — they abort their experiment, so there is no render path that
// needs a cached failure.
func (s *Session) RunKernel(id string, cfg core.Config, body func(*core.Machine)) (*KernelResult, error) {
	key := s.unitKey(resultstore.KindKernel, id, resultstore.ConfigFingerprint(cfg))
	e, err := s.do(key, 1, func(*telemetry.Span) (*resultstore.Entry, error) {
		s.execs.Add(1)
		m := core.NewMachine(cfg)
		if setup := s.machineSetup(); setup != nil {
			setup(m)
		}
		if err := m.Run(body); err != nil {
			return nil, err
		}
		e := &resultstore.Entry{Key: key}
		fillCoreResult(&e.CoreResult, &m.C, m.Heap.Stats(), m.Uops(), nil, true, m.Revocations())
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	r := &KernelResult{Heap: e.Heap, Uops: e.Uops, Revocations: e.Revocations}
	if c, ok := e.CountersFile(); ok {
		r.Counters = c
		r.Metrics = metrics.Compute(&c)
	}
	return r, nil
}

// Cycles returns the kernel's executed cycle count.
func (r *KernelResult) Cycles() uint64 { return r.Counters.Get(pmu.CPU_CYCLES) }

// CoRunCore is one core's outcome of a stored co-run.
type CoRunCore struct {
	Counters pmu.Counters
	Metrics  metrics.Metrics
	Heap     alloc.Stats
	Uops     uint64
	Err      error
}

// CoRun executes a shared-LLC co-run on the round-robin engine, which
// runs one core at a time and so takes one worker slot. id must uniquely
// name the co-run including its workload/parameter mix; the key also
// folds in every core's configuration, in order. Like Run, co-runs with
// failed cores are stored too: the unit is deterministic, so a warm
// campaign reproduces the same per-core errors without simulating. A
// spec-validation error (divergent LLC geometry) is returned before
// anything persists.
func (s *Session) CoRun(id string, specs []soc.CoreSpec) ([]CoRunCore, error) {
	key := s.unitKey(resultstore.KindCoRun, id, coRunConfigKey(specs))
	e, err := s.coRun(key, 1, specs, func() ([]soc.Result, *soc.FabricStats, error) {
		res, err := soc.RunObserved(specs, s.Telemetry)
		return res, nil, err
	})
	if err != nil {
		return nil, err
	}
	return coRunFromEntry(e), nil
}

// CoRunTopo executes a topology co-run (mesh/ring sliced-LLC fabric). Its
// cores run concurrently within every epoch, so it takes one worker slot
// per core, up to the whole fleet. Like CoRun, the whole co-run is one
// stored unit; the entry additionally carries the fabric's slice/link
// accounting, and the topology fingerprint is folded into the key so a
// fabric-parameter change re-runs instead of serving stale results.
func (s *Session) CoRunTopo(id string, topo soc.Topology, specs []soc.CoreSpec) ([]CoRunCore, *soc.FabricStats, error) {
	topo = topo.WithDefaults()
	key := s.unitKey(resultstore.KindScale, id, coRunConfigKey(specs)+"|"+topo.Fingerprint())
	e, err := s.coRun(key, len(specs), specs, func() ([]soc.Result, *soc.FabricStats, error) {
		res, err := soc.RunTopologyObserved(topo, specs, s.Telemetry, s.sliceSetup())
		if err != nil {
			return nil, nil, err
		}
		return res.Cores, res.Fabric, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return coRunFromEntry(e), e.Fabric, nil
}

// coRun executes one co-run engine invocation as a single stored unit on
// `slots` worker slots: per-core results are only meaningful together —
// they shaped each other through the shared cache.
func (s *Session) coRun(key resultstore.Key, slots int, specs []soc.CoreSpec,
	run func() ([]soc.Result, *soc.FabricStats, error)) (*resultstore.Entry, error) {
	return s.do(key, slots, func(*telemetry.Span) (*resultstore.Entry, error) {
		s.execs.Add(uint64(len(specs)))
		s.wrapMachineSetup(specs)
		res, fab, err := run()
		if err != nil {
			return nil, err
		}
		return coRunEntry(key, res, fab), nil
	})
}

// coRunConfigKey folds every core's configuration, in order, into one
// store-key component.
func coRunConfigKey(specs []soc.CoreSpec) string {
	cfgs := make([]string, len(specs))
	for i := range specs {
		cfgs[i] = resultstore.ConfigFingerprint(specs[i].Config)
	}
	return strings.Join(cfgs, "+")
}

// wrapMachineSetup prepends the session's machine hook (lockstep shadows)
// to every spec's Setup.
func (s *Session) wrapMachineSetup(specs []soc.CoreSpec) {
	setup := s.machineSetup()
	if setup == nil {
		return
	}
	for i := range specs {
		inner := specs[i].Setup
		specs[i].Setup = func(m *core.Machine) {
			setup(m)
			if inner != nil {
				inner(m)
			}
		}
	}
}

// coRunEntry builds the stored unit for a co-run's results.
func coRunEntry(key resultstore.Key, res []soc.Result, fab *soc.FabricStats) *resultstore.Entry {
	e := &resultstore.Entry{Key: key, Cores: make([]resultstore.CoreResult, len(res)), Fabric: fab}
	for i, r := range res {
		machine := r.Machine != nil
		var c *pmu.Counters
		var heap alloc.Stats
		var uops uint64
		if machine {
			c = &r.Machine.C
			heap = r.Machine.Heap.Stats()
			uops = r.Machine.Uops()
		} else {
			c = &pmu.Counters{}
		}
		fillCoreResult(&e.Cores[i], c, heap, uops, r.Err, machine, nil)
	}
	return e
}

// coRunFromEntry rebuilds the per-core results of a stored co-run.
func coRunFromEntry(e *resultstore.Entry) []CoRunCore {
	out := make([]CoRunCore, len(e.Cores))
	for i := range e.Cores {
		cr := &e.Cores[i]
		out[i].Err = cr.Error.Reconstruct()
		out[i].Heap = cr.Heap
		out[i].Uops = cr.Uops
		if c, ok := cr.CountersFile(); ok {
			out[i].Counters = c
			out[i].Metrics = metrics.Compute(&c)
		}
	}
	return out
}

// StoreStats returns the session store's traffic counters (zero without a
// store).
func (s *Session) StoreStats() resultstore.Stats { return s.Store.Stats() }

// MetricSnapshot runs the full campaign grid and returns the
// per-(workload, ABI) derived-metric vectors — the golden-baseline gate's
// input. Failed pairs are omitted; they surface through the baseline diff
// as missing pairs.
func (s *Session) MetricSnapshot() map[string]map[string]float64 {
	s.RunAll()
	out := make(map[string]map[string]float64)
	for _, p := range CampaignGrid() {
		d := s.Run(p.Workload, p.ABI)
		if d.Err != nil {
			continue
		}
		out[p.Workload.Name+"/"+p.ABI.String()] = report.MetricVector(&d.Metrics, &d.Topdown)
	}
	return out
}
