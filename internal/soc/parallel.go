package soc

import (
	"fmt"
	"runtime"

	"cherisim/internal/cache"
	"cherisim/internal/core"
	"cherisim/internal/telemetry"
)

// TopoResult is the outcome of a topology co-run: per-core machine results
// plus the fabric's slice/link/core accounting.
type TopoResult struct {
	Cores  []Result
	Fabric *FabricStats
}

// RunTopology co-runs the specs on a topology-aware SoC fabric: cores
// execute one quantum per epoch concurrently across real OS threads (the
// bound phase), buffering their sliced-LLC traffic in per-core ports, and
// every epoch barrier weaves the buffered events into the slice caches in
// a fixed cross-core order and settles contention. Results are
// byte-identical for any GOMAXPROCS: the bound phase prices each access
// against state frozen at the last barrier plus the core's own epoch
// traffic, so no core ever observes another core's in-flight progress.
// Up to GOMAXPROCS cores execute at once.
func RunTopology(topo Topology, specs []CoreSpec) (*TopoResult, error) {
	return RunTopologyObserved(topo, specs, runtime.GOMAXPROCS(0), nil, nil)
}

// RunTopologyObserved is RunTopology with a worker bound, telemetry and an
// optional per-slice setup hook (the lockstep checker attaches slice
// shadows through it; it runs before any core executes). At most workers
// cores execute at any instant and at most workers goroutines weave the
// slices at a barrier (values below 1 mean 1); the bound changes how fast
// a co-run finishes, never its results. A nil hub and nil sliceSetup with
// workers = GOMAXPROCS are exactly RunTopology.
func RunTopologyObserved(topo Topology, specs []CoreSpec, workers int, hub *telemetry.Hub,
	sliceSetup func(slice int, c *cache.Cache)) (*TopoResult, error) {
	topo = topo.WithDefaults()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := validateTopoSpecs(topo, specs); err != nil {
		return nil, err
	}
	sliceCfg, err := topo.SliceCacheConfig(specs[0].Config.LLC)
	if err != nil {
		return nil, err
	}
	workers = max(1, workers)

	n := topo.Cores
	fab := newFabric(topo, sliceCfg, specs, workers)
	if sliceSetup != nil {
		for s, sl := range fab.slices {
			sliceSetup(s, sl.cache)
		}
	}

	var reg *telemetry.Registry
	var col *telemetry.Collector
	if hub.Enabled() {
		reg, col = hub.Metrics, hub.Spans
	}
	corun := hub.Start("topo-corun")
	corun.Attr("topology", topo.Kind)
	corun.Attr("cores", n)
	corun.Attr("slices", topo.Slices)
	reg.Counter("soc_topo_coruns").Inc()
	quanta := reg.Counter("soc_quanta_scheduled")
	coreSpans := make([]*telemetry.Span, n)
	for i := 0; i < n; i++ {
		coreSpans[i] = corun.Child(fmt.Sprintf("core-%d", i)).
			SetTrack(col.Track(fmt.Sprintf("soc-core-%d", i)))
	}

	results := make([]Result, n)
	machines := make([]*core.Machine, n)
	type coreState struct {
		resume chan struct{}
		yield  chan bool // true = finished
	}
	states := make([]*coreState, n)
	// running holds one token per executing core: a core takes a token
	// after every resume and returns it before every yield, so at most
	// workers cores execute at once however many the epoch released.
	running := make(chan struct{}, workers)

	for i, spec := range specs {
		st := &coreState{resume: make(chan struct{}), yield: make(chan bool)}
		states[i] = st
		m := core.NewMachine(spec.Config)
		m.ShareLLCPort(fab.ports[i], i)
		if spec.Setup != nil {
			spec.Setup(m)
		}
		m.SetQuantum(QuantumUops, func() {
			<-running
			st.yield <- false
			<-st.resume
			running <- struct{}{}
		})
		machines[i] = m
		results[i].Machine = m
		body := spec.Body
		go func(i int) {
			<-st.resume
			running <- struct{}{}
			// Containment: a panic escaping Machine.Run must still return
			// its token and yield, or the barrier deadlocks and one bad
			// core takes down the whole co-run.
			defer func() {
				if r := recover(); r != nil {
					results[i].Err = &core.PanicError{Value: r, Uops: m.Uops()}
				}
				<-running
				st.yield <- true
			}()
			results[i].Err = m.Run(body)
		}(i)
	}

	// Epoch loop: release every live core (bound phase, concurrent up to
	// the worker bound), wait for all of them at the barrier, weave, then
	// retire finished cores. A core that finished or panicked mid-epoch
	// still has its buffered events woven — they happened — but is no
	// longer charged contention (its counters are finalized).
	alive := make([]bool, n)
	chargeable := make([]bool, n)
	finishedNow := make([]int, 0, n)
	remaining := n
	for i := range alive {
		alive[i] = true
	}
	for remaining > 0 {
		for i := 0; i < n; i++ {
			if alive[i] {
				states[i].resume <- struct{}{}
				quanta.Inc()
			}
		}
		finishedNow = finishedNow[:0]
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			chargeable[i] = true
			if done := <-states[i].yield; done {
				finishedNow = append(finishedNow, i)
				chargeable[i] = false
			}
		}
		fab.weave(func(c int, cycles float64) {
			if chargeable[c] {
				machines[c].AddExternalStall(cycles)
				fab.ports[c].stats.StallCycles += cycles
			}
		})
		for _, i := range finishedNow {
			alive[i] = false
			chargeable[i] = false
			remaining--
			if sp := coreSpans[i]; sp != nil {
				sp.Attr("uops", results[i].Machine.Uops())
				if results[i].Err != nil {
					sp.Attr("err", results[i].Err.Error())
				}
				sp.End()
			}
		}
	}

	stats := fab.stats()
	corun.Attr("epochs", stats.Epochs)
	corun.End()
	publishFabricMetrics(reg, stats)
	return &TopoResult{Cores: results, Fabric: stats}, nil
}

// publishFabricMetrics surfaces the fabric's per-slice and per-link
// contention counters through the telemetry registry (visible on /metrics
// and in scraped snapshots). A nil registry is a no-op.
func publishFabricMetrics(reg *telemetry.Registry, st *FabricStats) {
	if reg == nil {
		return
	}
	reg.Counter("soc_epochs").Add(int64(st.Epochs))
	for i := range st.Slices {
		s := &st.Slices[i]
		reg.Counter(fmt.Sprintf("soc_slice_accesses.%03d", s.Slice)).Add(int64(s.Accesses))
		reg.Counter(fmt.Sprintf("soc_slice_contention_cycles.%03d", s.Slice)).Add(int64(s.ContentionCycles))
	}
	for i := range st.Links {
		l := &st.Links[i]
		if l.Traversals == 0 && l.ContentionCycles == 0 {
			continue
		}
		reg.Counter(fmt.Sprintf("soc_link_traversals.n%d-n%d", l.From, l.To)).Add(int64(l.Traversals))
		reg.Counter(fmt.Sprintf("soc_link_contention_cycles.n%d-n%d", l.From, l.To)).Add(int64(l.ContentionCycles))
	}
}
