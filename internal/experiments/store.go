package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/metrics"
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
// retry bound. An unsupervised session encodes to "". Every run key
// carries it, so it is computed once, on first use: Chaos, DeadlineUops
// and Retries are set before the first run.
func (s *Session) supervisorFingerprint() string {
	s.supervisorOnce.Do(func() {
		if s.Chaos == nil && s.DeadlineUops == 0 {
			return
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
		s.supervisorFP = b.String()
	})
	return s.supervisorFP
}

// runStoreKey addresses one (workload, ABI) run of this session under its
// effective configuration cfg.
func (s *Session) runStoreKey(w *workloads.Workload, a abi.ABI, cfg core.Config) resultstore.Key {
	return resultstore.Key{
		Kind:       resultstore.KindRun,
		Name:       w.Name,
		ABI:        a.String(),
		Scale:      s.Scale,
		Config:     s.configFingerprint(cfg),
		Supervisor: s.supervisorFingerprint(),
		Model:      resultstore.ModelFingerprint(),
	}
}

// configFingerprint is resultstore.ConfigFingerprint memoized per session
// family: every store key needs it, it formats the whole configuration,
// and a campaign uses only a few distinct configurations. A warm campaign,
// which builds a key for every result it serves and simulates nothing,
// spent a sixth of its CPU recomputing it.
func (s *Session) configFingerprint(cfg core.Config) string {
	if fp, ok := s.fps.Load(cfg); ok {
		return fp.(string)
	}
	fp := resultstore.ConfigFingerprint(cfg)
	s.fps.Store(cfg, fp)
	return fp
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

// fillCoreResult populates one stored machine outcome. Revocation sweeps
// are recorded as the machine reports them: nil unless it ran with
// TemporalSafety.
func fillCoreResult(r *resultstore.CoreResult, m *core.Machine, err error) {
	r.SetCounters(&m.C)
	r.Heap = m.Heap.Stats()
	r.Uops = m.Uops()
	r.Revocations = m.Revocations()
	r.Error = resultstore.EncodeError(err)
}

// decodeCore is the one decoder of a stored machine outcome. It recomputes
// the derived metrics from the stored counters, so a result can never
// disagree with the current formulas (a formula change bumps the model
// fingerprint anyway). Executed and store-served results decode through
// it alike.
func decodeCore(r *resultstore.CoreResult) RunData {
	d := RunData{Err: r.Error.Reconstruct(), Revocations: r.Revocations}
	if c, ok := r.CountersFile(); ok {
		d.Counters = c
		d.Metrics = metrics.Compute(&c)
		d.Topdown = topdown.Analyze(&c)
		d.Heap = r.Heap
		d.Uops = r.Uops
	}
	return d
}

// runDataFromEntry decodes a run entry: its machine outcome plus the
// supervision fields.
func runDataFromEntry(e *resultstore.Entry) *RunData {
	d := decodeCore(&e.CoreResult)
	d.Attempts = e.Attempts
	d.Injected = e.Injected
	d.Witness = e.Witness
	return &d
}

// RunKernel executes body, a synthetic kernel built outside the workload
// registry, on a fresh machine under cfg on one worker slot: id must
// uniquely name the kernel including every parameter that shapes its
// behaviour (the key also folds in cfg, the session scale and the model
// fingerprint). Catalogue workloads go through Run instead. Failed kernel
// runs are returned as errors and never stored — they abort their
// experiment, so there is no render path that needs a cached failure.
func (s *Session) RunKernel(id string, cfg core.Config, body func(*core.Machine)) (*RunData, error) {
	key := s.unitKey(resultstore.KindKernel, id, s.configFingerprint(cfg))
	e, err := s.do(key, 1, func(*telemetry.Span, int) (*resultstore.Entry, error) {
		s.execs.Add(1)
		m := core.NewMachine(cfg)
		if setup := s.machineSetup(); setup != nil {
			setup(m)
		}
		if err := m.Run(body); err != nil {
			return nil, err
		}
		e := &resultstore.Entry{Key: key}
		fillCoreResult(&e.CoreResult, m, nil)
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	d := decodeCore(&e.CoreResult)
	return &d, nil
}

// CoRun executes a co-run of specs on the SoC fabric topo as one stored
// unit: per-core results are only meaningful together — they shaped each
// other through the shared slices. Its cores run concurrently within every
// epoch, so it takes one worker slot per core, up to the whole fleet, and
// never executes more cores at once than the slots it holds. id must
// uniquely name the co-run including its workload/parameter mix; the key
// also folds in every core's configuration, in order, and the topology
// fingerprint, so a fabric-parameter change re-runs instead of serving
// stale results. It returns one RunData per core, in spec order, and the
// fabric's slice/link accounting. Like Run, co-runs with failed cores are
// stored too: the unit is deterministic, so a warm campaign reproduces the
// same per-core errors without simulating. A spec-validation error (an
// invalid topology, a spec list that does not fill it, divergent LLC
// geometry) is returned before anything persists.
func (s *Session) CoRun(id string, topo soc.Topology, specs []soc.CoreSpec) ([]RunData, *soc.FabricStats, error) {
	topo = topo.WithDefaults()
	key := s.unitKey(resultstore.KindCoRun, id, s.coRunConfigKey(specs)+"|"+topo.Fingerprint())
	e, err := s.do(key, len(specs), func(_ *telemetry.Span, slots int) (*resultstore.Entry, error) {
		s.execs.Add(uint64(len(specs)))
		s.wrapMachineSetup(specs)
		res, err := soc.RunTopologyObserved(topo, specs, slots, s.Telemetry, s.sliceSetup())
		if err != nil {
			return nil, err
		}
		return coRunEntry(key, res), nil
	})
	if err != nil {
		return nil, nil, err
	}
	cores := make([]RunData, len(e.Cores))
	for i := range e.Cores {
		cores[i] = decodeCore(&e.Cores[i])
	}
	return cores, e.Fabric, nil
}

// coRunConfigKey folds every core's configuration, in order, into one
// store-key component.
func (s *Session) coRunConfigKey(specs []soc.CoreSpec) string {
	cfgs := make([]string, len(specs))
	for i := range specs {
		cfgs[i] = s.configFingerprint(specs[i].Config)
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
func coRunEntry(key resultstore.Key, res *soc.TopoResult) *resultstore.Entry {
	e := &resultstore.Entry{Key: key, Cores: make([]resultstore.CoreResult, len(res.Cores)), Fabric: res.Fabric}
	for i, r := range res.Cores {
		fillCoreResult(&e.Cores[i], r.Machine, r.Err)
	}
	return e
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
