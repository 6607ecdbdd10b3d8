package experiments

import (
	"errors"
	"fmt"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/metrics"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

// runObserver is the session's view of the telemetry hub: every handle the
// run hot path touches, resolved once, plus the campaign-root span the
// run/experiment hierarchy hangs off. A nil observer (telemetry disabled)
// makes every method an allocation-free no-op, so the supervised execute
// path calls them unconditionally.
type runObserver struct {
	hub      *telemetry.Hub
	campaign *telemetry.Span
	finished bool

	runsStarted   *telemetry.Counter
	runsDerived   *telemetry.Counter
	runsCompleted *telemetry.Counter
	runsFailed    *telemetry.Counter
	runsRetried   *telemetry.Counter
	runAttempts   *telemetry.Counter
	deadlines     *telemetry.Counter
	sfHits        *telemetry.Counter
	storeHits     *telemetry.Counter
	storeMisses   *telemetry.Counter
	storeWriteErr *telemetry.Counter
	profileRuns   *telemetry.Counter
	profileFns    *telemetry.Counter
	profileUops   *telemetry.Counter

	poolOccupancy *telemetry.Gauge
	poolWorkers   *telemetry.Gauge

	wallMs   *telemetry.Histogram
	simMs    *telemetry.Histogram
	runUops  *telemetry.Histogram
	injected []*telemetry.Counter                  // by faultinject.Kind
	surfaced map[core.FaultKind]*telemetry.Counter // manifested, by fault class
}

// newRunObserver resolves the engine's metric handles and opens the
// campaign-root span.
func newRunObserver(hub *telemetry.Hub) *runObserver {
	m := hub.Metrics
	o := &runObserver{
		hub:           hub,
		campaign:      hub.Start("campaign"),
		runsStarted:   m.Counter("runs_started"),
		runsDerived:   m.Counter("runs_derived"),
		runsCompleted: m.Counter("runs_completed"),
		runsFailed:    m.Counter("runs_failed"),
		runsRetried:   m.Counter("runs_retried"),
		runAttempts:   m.Counter("run_attempts"),
		deadlines:     m.Counter("deadline_aborts"),
		sfHits:        m.Counter("singleflight_hits"),
		storeHits:     m.Counter("store_hits"),
		storeMisses:   m.Counter("store_misses"),
		storeWriteErr: m.Counter("store_write_errors"),
		profileRuns:   m.Counter("profile_runs"),
		profileFns:    m.Counter("profile_functions"),
		profileUops:   m.Counter("profile_uops_attributed"),
		poolOccupancy: m.Gauge("pool_occupancy"),
		poolWorkers:   m.Gauge("pool_workers"),
		wallMs:        m.Histogram("run_wall_ms", telemetry.ExpBuckets(0.25, 2, 18)),
		simMs:         m.Histogram("run_sim_ms", telemetry.ExpBuckets(0.25, 2, 18)),
		runUops:       m.Histogram("run_uops", telemetry.ExpBuckets(1<<10, 4, 16)),
		surfaced:      map[core.FaultKind]*telemetry.Counter{},
	}
	for _, k := range faultinject.AllKinds() {
		o.injected = append(o.injected, m.Counter("faults_injected."+k.String()))
	}
	for k := core.KindUnknown; k <= core.KindSpurious; k++ {
		o.surfaced[k] = m.Counter("faults_manifested." + k.String())
	}
	return o
}

// sfHit counts a singleflight cache hit (a caller joining an in-flight or
// finished execution instead of starting its own).
func (o *runObserver) sfHit() {
	if o != nil {
		o.sfHits.Inc()
	}
}

// runDerived counts a run served from its source's PCC-free result: no
// execution, no worker slot and no run span (see derive.go).
func (o *runObserver) runDerived() {
	if o != nil {
		o.runsDerived.Inc()
	}
}

// storeHit counts a run served from the persistent result store.
func (o *runObserver) storeHit() {
	if o != nil {
		o.storeHits.Inc()
	}
}

// storeMiss counts a store lookup that fell through to simulation.
func (o *runObserver) storeMiss() {
	if o != nil {
		o.storeMisses.Inc()
	}
}

// storeWriteError counts a failed best-effort store persist — the store
// stays permanently cold for that key, which a long-running service wants
// surfaced rather than silently re-simulating every campaign.
func (o *runObserver) storeWriteError() {
	if o != nil {
		o.storeWriteErr.Inc()
	}
}

// profiled counts one attribution profile captured (live or store-served)
// and publishes it to the hub's /profiles store under workload/abi.
func (o *runObserver) profiled(w *workloads.Workload, a abi.ABI, p *core.AttributionProfile) {
	if o == nil {
		return
	}
	o.profileRuns.Inc()
	o.profileFns.Add(int64(len(p.Functions)))
	var uops uint64
	for _, f := range p.Functions {
		uops += f.Uops
	}
	o.profileUops.Add(int64(uops + p.Residual.Uops))
	o.hub.Profiles.Put(w.Name+"/"+a.String(), p)
}

// runStart opens the run span of one execution on the first acquired
// worker's track and counts its slots as occupied. Runs are named
// "run:workload/abi"; profiled runs, kernels and co-runs by their store
// kind and name. runs_started doubles as the fleet-wide singleflight miss
// count: every miss becomes exactly one execution.
func (o *runObserver) runStart(key resultstore.Key, slots, worker int) *telemetry.Span {
	if o == nil {
		return nil
	}
	o.runsStarted.Inc()
	o.poolOccupancy.Add(int64(slots))
	name := key.Kind + ":" + key.Name
	if key.ABI != "" {
		name += "/" + key.ABI
	}
	track := o.hub.Spans.Track(fmt.Sprintf("worker-%d", worker))
	run := o.campaign.Child(name).SetTrack(track).Attr("workload", key.Name)
	if key.ABI != "" {
		run.Attr("abi", key.ABI)
	}
	if slots > 1 {
		run.Attr("slots", slots)
	}
	return run.Attr("scale", key.Scale)
}

// attemptStart opens one attempt span under the run span.
func (o *runObserver) attemptStart(run *telemetry.Span, attempt int) *telemetry.Span {
	if o == nil {
		return nil
	}
	o.runAttempts.Inc()
	return run.Child(fmt.Sprintf("attempt:%d", attempt))
}

// injectObserver builds the faultinject.Config.Observe callback for one
// attempt: an instant event on the attempt's track plus the per-kind
// injected counter. Returns nil on a nil observer so chaos runs without
// telemetry carry no callback at all.
func (o *runObserver) injectObserver(att *telemetry.Span, seed uint64) func(faultinject.Event) {
	if o == nil {
		return nil
	}
	att.Attr("chaos_seed", seed)
	return func(ev faultinject.Event) {
		o.injected[ev.Kind].Inc()
		att.Instant("inject:"+ev.Kind.String(),
			telemetry.A("uop", ev.Uop), telemetry.A("addr", ev.Addr))
	}
}

// attemptEnd closes one attempt span with the outcome attributes and feeds
// the attempt-level counters (deadline aborts, manifested faults, retries).
func (o *runObserver) attemptEnd(att *telemetry.Span, e *resultstore.Entry, err error, willRetry bool) {
	if o == nil {
		return
	}
	att.Attr("uops", e.Uops).Attr("injected", len(e.Injected))
	if err != nil {
		att.Attr("err", err.Error())
		if f, ok := faultOf(err); ok {
			// A fault after injections is a manifestation: the corrupted
			// state (or delivered trap) surfaced as an architectural fault.
			if len(e.Injected) > 0 {
				o.surfaced[f.Kind].Inc()
			}
			att.Attr("fault_kind", f.Kind.String())
		}
		if isDeadline(err) {
			o.deadlines.Inc()
		}
	}
	if willRetry {
		o.runsRetried.Inc()
		att.Attr("retried", true)
	}
	att.End()
}

// runEnd closes the run span with final attributes, releases its slots
// from pool_occupancy and feeds the run-level counters and histograms. A
// run fails when exec returned an error or the stored outcome (any core of
// a co-run) carries one.
func (o *runObserver) runEnd(run *telemetry.Span, e *resultstore.Entry, err error, slots int, elapsed time.Duration) {
	if o == nil {
		return
	}
	o.poolOccupancy.Add(-int64(slots))
	o.wallMs.Observe(float64(elapsed.Nanoseconds()) / 1e6)
	var uops uint64
	var attempts int
	var failure string
	if err != nil {
		failure = err.Error()
	} else {
		uops, attempts = e.Uops, e.Attempts
		if e.Error != nil {
			failure = e.Error.Msg
		}
		for i := range e.Cores {
			uops += e.Cores[i].Uops
			if failure == "" && e.Cores[i].Error != nil {
				failure = e.Cores[i].Error.Msg
			}
		}
		run.Attr("attempts", attempts).Attr("injected", len(e.Injected))
	}
	run.Attr("uops", uops)
	if failure != "" {
		o.runsFailed.Inc()
		run.Attr("err", failure)
	} else {
		o.runsCompleted.Inc()
		if c, ok := e.CountersFile(); ok {
			simMs := metrics.Compute(&c).Seconds * 1e3
			o.simMs.Observe(simMs)
			run.Attr("sim_ms", simMs)
		}
	}
	o.runUops.Observe(float64(uops))
	run.End()
	o.hub.Logger().Debug("run finished", "attempts", attempts, "uops", uops, "err", failure)
}

// experimentSpan opens one experiment-render span under the campaign root.
func (o *runObserver) experimentSpan(e *Experiment) *telemetry.Span {
	if o == nil {
		return nil
	}
	return o.campaign.Child("experiment:"+e.ID).Attr("section", e.Section)
}

// experimentEnd closes an experiment span with its outcome.
func (o *runObserver) experimentEnd(sp *telemetry.Span, e *Experiment, err error) {
	if o == nil {
		return
	}
	if err != nil {
		o.hub.Metrics.Counter("experiments_failed").Inc()
		sp.Attr("err", err.Error())
		o.hub.Logger().Warn("experiment failed", "id", e.ID, "err", err)
	} else {
		o.hub.Metrics.Counter("experiments_rendered").Inc()
		o.hub.Logger().Info("experiment rendered", "id", e.ID)
	}
	sp.End()
}

// finish ends the campaign-root span (idempotent).
func (o *runObserver) finish() {
	if o == nil || o.finished {
		return
	}
	o.finished = true
	o.campaign.End()
}

// faultOf extracts the structured capability fault from a run error.
func faultOf(err error) (*core.Fault, bool) {
	var f *core.Fault
	ok := errors.As(err, &f)
	return f, ok
}

// isDeadline reports whether the run was aborted by the watchdog.
func isDeadline(err error) bool {
	var de *core.DeadlineError
	return errors.As(err, &de)
}
