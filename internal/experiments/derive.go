package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/pmu"
	"cherisim/internal/profile"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

// This file serves runs that differ from a purecap run only by the
// PCC-bounds stall term without executing them. Purecap-benchmark (§2.4:
// purecap with integer jumps under one global PCC) and purecap on a
// PCC-tracking predictor issue the same µops, heap layout and memory
// traffic as purecap; only core.Machine's pccStall accumulator differs,
// and it feeds nothing but the cycle counters and the AttrPCC profile
// category. So a purecap execution, the *source*, carries its PCC-free
// result (resultstore.Entry.PCCFree); every caller that receives it files
// it in its session family's table (Session.pccFree, keyed by the source's
// store key); and a qualifying request found there is saved under its own
// key as an ordinary store entry, bit-identical to what executing it would
// store. Under -check a qualifying request executes as usual and is
// compared with its derivation: one checked operation of component
// "derive", and a divergence on any difference.

// derivable reports whether the session may derive or serve derivations
// for workload w: w is from the catalogue (attack workloads carry a canary
// witness, and a workload built outside the registry may branch on the
// ABI) and no chaos schedule or watchdog shapes the run (the injector's
// seed mixes in the ABI).
func (s *Session) derivable(w *workloads.Workload) bool {
	return s.supervisorFingerprint() == "" && workloads.Catalogued(w)
}

// isPCCSource reports whether an execution of w under cfg is a source:
// purecap on the Morello predictor.
func (s *Session) isPCCSource(w *workloads.Workload, cfg core.Config) bool {
	return cfg.ABI == abi.Purecap && !cfg.TracksPCCBounds && s.derivable(w)
}

// pccSource reports whether a request for w under cfg qualifies for
// derivation — it runs purecap-benchmark, or purecap with TracksPCCBounds,
// on a derivable workload — and returns its source's configuration: cfg
// with ABI purecap and TracksPCCBounds off.
func (s *Session) pccSource(w *workloads.Workload, cfg core.Config) (core.Config, bool) {
	if !(cfg.ABI == abi.Benchmark || cfg.ABI == abi.Purecap && cfg.TracksPCCBounds) || !s.derivable(w) {
		return cfg, false
	}
	cfg.ABI, cfg.TracksPCCBounds = abi.Purecap, false
	return cfg, true
}

// sourceResult returns the PCC-free result a request for w under cfg (a
// ProfileRun when profiled) derives from; nil when the request does not
// qualify or no execution of its source reached the session family — the
// source was served from the store, or the session does not resolve it and
// nothing related did.
//
// A session without a Configure hook runs DefaultConfig(Purecap), which is
// the source itself, so it resolves the source first and either request
// order executes once. A session with a hook resolves nothing first:
// telling whether the hook maps purecap onto the source would call it for
// a run nobody asked for, and the hook is called once per run it
// configures. It derives from a source already filed — an ablation's
// sub-session from its parent's purecap runs.
func (s *Session) sourceResult(w *workloads.Workload, cfg core.Config, profiled bool) *resultstore.Entry {
	src, ok := s.pccSource(w, cfg)
	if !ok {
		return nil
	}
	runsSource := s.Configure == nil
	key := s.runStoreKey(w, abi.Purecap, src)
	if profiled {
		key = s.profileStoreKey(w, abi.Purecap, src)
		if runsSource {
			s.ProfileRun(w, abi.Purecap)
		}
	} else if runsSource {
		s.Run(w, abi.Purecap)
	}
	pf, _ := s.pccFree.Load(key)
	e, _ := pf.(*resultstore.Entry)
	return e
}

// resolve returns the entry for key, a request for w under cfg (a
// ProfileRun when profiled): derived from its source's PCC-free result
// when there is one, otherwise through do with exec, filing the executed
// entry's own PCC-free result if it carries one. Under -check a request
// with a source executes anyway and is compared with the derivation.
func (s *Session) resolve(key resultstore.Key, w *workloads.Workload, cfg core.Config, profiled bool, exec func(*telemetry.Span, int) (*resultstore.Entry, error)) (*resultstore.Entry, error) {
	pf := s.sourceResult(w, cfg, profiled)
	if pf != nil && !s.Check {
		return s.saveDerived(key, pf), nil
	}
	e, err := s.do(key, 1, exec)
	if err != nil {
		return nil, err
	}
	if e.PCCFree != nil {
		s.pccFree.Store(e.Key, e.PCCFree)
	}
	if pf != nil {
		s.checkDerived(e, pf)
	}
	return e, nil
}

// pccFreeResult builds the PCC-free result of a source execution e on
// machine m. ProfileRun promises that every profile it returns reconciles
// with its run's counters; a PCC-free profile that did not would leave e
// without a PCC-free result, so that its derivations execute instead.
func pccFreeResult(e *resultstore.Entry, m *core.Machine) *resultstore.Entry {
	pf := &resultstore.Entry{CoreResult: e.CoreResult, Attempts: e.Attempts}
	c := m.PCCFreeCounters()
	pf.SetCounters(&c)
	if e.Profile != nil {
		p := e.Profile.WithoutPCC()
		if profile.Reconcile(p, &c) != nil {
			return nil
		}
		pf.Profile = &p
	}
	return pf
}

// saveDerived serves a request for key from its source's PCC-free result
// pf: it persists the derived entry under key and counts it on Derived()
// and runs_derived. It takes no worker slot and opens no run span.
func (s *Session) saveDerived(key resultstore.Key, pf *resultstore.Entry) *resultstore.Entry {
	e := *pf
	e.Key = key
	obs := s.campaignObserver()
	s.save(&e, obs)
	s.derived.Add(1)
	obs.runDerived()
	return &e
}

// checkDerived is the derivation's oracle under -check: e is the executed
// result of a qualifying request and pf the PCC-free result of its source.
// The comparison is one checked operation of component "derive"; any
// difference is a divergence.
func (s *Session) checkDerived(e, pf *resultstore.Entry) {
	col := s.checkCollector()
	if col == nil {
		return
	}
	op := e.Key.Kind + ":" + e.Key.Name + "/" + e.Key.ABI
	col.Compare("derive", op, derivedMismatch(e, pf))
}

// derivedMismatch describes the first difference between an executed entry
// and the PCC-free result it was derived from ("" when the derived entry
// would be stored bit-identically): the first differing counter, else any
// other difference in the stored entry.
func derivedMismatch(e, pf *resultstore.Entry) string {
	ec, _ := e.CountersFile()
	dc, _ := pf.CountersFile()
	for i := range ec {
		if ec[i] != dc[i] {
			return fmt.Sprintf("%s: executed %d, derived %d", pmu.Event(i), ec[i], dc[i])
		}
	}
	d := *pf
	d.Key = e.Key
	exec, err1 := json.Marshal(e)
	der, err2 := json.Marshal(&d)
	if err1 != nil || err2 != nil || !bytes.Equal(exec, der) {
		return "stored entries differ"
	}
	return ""
}
