// Package check is the lockstep reference-model harness: it runs the
// deliberately naive models in internal/refmodel side by side with the
// optimized cache, TLB, heap owner index, simulated memory, and
// bounds-compression implementations and diffs them after every operation
// — outcome, stats deltas, LRU victim choice, write-back addresses, full
// per-set/per-entry state, owner lookups, and every value read back.
//
// The first divergence a checker sees is reported with a replayable tail
// of the operations that led to it; the checker then goes dead (a diverged
// shadow would only produce cascading noise). Checking is attached per
// component (AttachCache/AttachTLB/AttachHeap/AttachMemory, or
// AttachMachine for a whole core) and
// aggregated in a Collector, which also feeds the check_accesses and
// check_divergences telemetry counters.
package check

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"cherisim/internal/telemetry"
)

// traceDepth is how many trailing operations each checker retains for the
// replayable divergence trace.
const traceDepth = 64

// maxStoredDivergences caps how many full divergence reports a Collector
// keeps; the counter keeps counting past it.
const maxStoredDivergences = 16

// op kinds for the compact trace ring.
const (
	opCacheRead = iota
	opCacheWrite
	opCacheFlush
	opTLBLookup
	opTLBInsert
	opTLBFlush
	opHeapCommit
	opHeapFree
	opHeapTruncate
	opHeapOwner
	opMemRead
	opMemWrite
	opMemReadCap
	opMemWriteCap
	opMemTagAt
	opMemClearTag
)

// traceOp is one recorded operation, compact enough to push on the hot
// path and formatted only when a divergence is reported.
type traceOp struct {
	kind uint8
	a, b uint64
}

func (o traceOp) String() string {
	switch o.kind {
	case opCacheRead:
		return fmt.Sprintf("read %#x", o.a)
	case opCacheWrite:
		return fmt.Sprintf("write %#x", o.a)
	case opCacheFlush:
		return "invalidate-all"
	case opTLBLookup:
		return fmt.Sprintf("lookup vpn %#x", o.a)
	case opTLBInsert:
		return fmt.Sprintf("insert vpn %#x", o.a)
	case opTLBFlush:
		return "invalidate-all"
	case opHeapCommit:
		return fmt.Sprintf("commit base %#x size %#x", o.a, o.b)
	case opHeapFree:
		return fmt.Sprintf("free %#x", o.a)
	case opHeapTruncate:
		return fmt.Sprintf("truncate base %#x to %#x", o.a, o.b)
	case opHeapOwner:
		return fmt.Sprintf("owner %#x", o.a)
	case opMemRead:
		return fmt.Sprintf("read %#x size %d", o.a, o.b)
	case opMemWrite:
		return fmt.Sprintf("write %#x size %d", o.a, o.b)
	case opMemReadCap:
		return fmt.Sprintf("read-cap %#x", o.a)
	case opMemWriteCap:
		return fmt.Sprintf("write-cap %#x tag %d", o.a, o.b)
	case opMemTagAt:
		return fmt.Sprintf("tag-at %#x", o.a)
	case opMemClearTag:
		return fmt.Sprintf("clear-tag %#x", o.a)
	default:
		return fmt.Sprintf("op(%d) %#x", o.kind, o.a)
	}
}

// opRing is a fixed-size ring of the most recent operations.
type opRing struct {
	ops [traceDepth]traceOp
	n   uint64 // total operations pushed
}

func (r *opRing) push(o traceOp) {
	r.ops[r.n%traceDepth] = o
	r.n++
}

// snapshot returns the retained tail, oldest first.
func (r *opRing) snapshot() []string {
	count := r.n
	if count > traceDepth {
		count = traceDepth
	}
	out := make([]string, 0, count)
	for i := r.n - count; i < r.n; i++ {
		out = append(out, r.ops[i%traceDepth].String())
	}
	return out
}

// stream is the state every component checker shares: its collector, the
// trace of its recent operations, and whether it has died on a divergence.
type stream struct {
	name string
	col  *Collector
	ring opRing
	dead bool
}

// step records one checked operation; it reports false once the checker
// is dead, in which case the caller skips the comparison.
func (s *stream) step(o traceOp) bool {
	if s.dead {
		return false
	}
	s.col.operation()
	s.ring.push(o)
	return true
}

// Dead reports whether the checker has stopped after a divergence.
func (s *stream) Dead() bool { return s.dead }

// diverge reports the mismatch; the diverging operation is the one last
// pushed onto the trace ring.
func (s *stream) diverge(detail string) {
	s.dead = true
	s.col.record(&Divergence{
		Component: s.name,
		Step:      s.ring.n,
		Op:        s.ring.ops[(s.ring.n-1)%traceDepth].String(),
		Detail:    detail,
		Trace:     s.ring.snapshot(),
	})
}

// Divergence is one lockstep mismatch: the first operation on which a
// checked component and its reference model disagreed.
type Divergence struct {
	// Component names the checked unit ("L1D", "L2TLB", "bounds", ...).
	Component string
	// Step is the 1-based ordinal of the diverging operation within the
	// component's checked stream.
	Step uint64
	// Op describes the operation that diverged.
	Op string
	// Detail describes the first mismatching field (optimized vs reference).
	Detail string
	// Trace is the retained tail of operations ending with Op, oldest
	// first — replaying it against a fresh pair reproduces the divergence.
	Trace []string
}

func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s diverged at op %d (%s): %s", d.Component, d.Step, d.Op, d.Detail)
	if len(d.Trace) > 0 {
		fmt.Fprintf(&b, "\n  replay trace (last %d ops):", len(d.Trace))
		for _, t := range d.Trace {
			b.WriteString("\n    ")
			b.WriteString(t)
		}
	}
	return b.String()
}

// Collector aggregates lockstep results across every checker attached to
// it. It is safe for concurrent use by checkers on different machines.
type Collector struct {
	accesses    atomic.Uint64
	divergences atomic.Uint64
	cAccesses   *telemetry.Counter
	cDivs       *telemetry.Counter

	mu    sync.Mutex
	first []*Divergence
}

// NewCollector builds a collector. With a live telemetry hub the
// check_accesses and check_divergences counters are kept in step; a nil
// hub is fine.
func NewCollector(hub *telemetry.Hub) *Collector {
	var reg *telemetry.Registry
	if hub.Enabled() {
		reg = hub.Metrics
	}
	return &Collector{
		cAccesses: reg.Counter("check_accesses"),
		cDivs:     reg.Counter("check_divergences"),
	}
}

// operation records one checked operation.
func (c *Collector) operation() {
	c.accesses.Add(1)
	c.cAccesses.Inc()
}

// record registers a divergence, keeping the first maxStoredDivergences
// full reports.
func (c *Collector) record(d *Divergence) {
	c.divergences.Add(1)
	c.cDivs.Inc()
	c.mu.Lock()
	if len(c.first) < maxStoredDivergences {
		c.first = append(c.first, d)
	}
	c.mu.Unlock()
}

// Compare records one checked operation of a whole-result oracle, and a
// divergence of component on op when detail, the first mismatch found, is
// non-empty. Stream checkers step through a component's operations; this
// is for a result checked once, as a unit: the session compares each
// derived run with its execution through it.
func (c *Collector) Compare(component, op, detail string) {
	c.operation()
	if detail != "" {
		c.record(&Divergence{Component: component, Step: 1, Op: op, Detail: detail, Trace: []string{op}})
	}
}

// Report is a point-in-time summary of a collector's lockstep results.
type Report struct {
	// Accesses counts checked operations (cache accesses, TLB operations,
	// heap and memory operations, bounds compressions).
	Accesses uint64
	// Divergences counts operations on which optimized and reference
	// models disagreed.
	Divergences uint64
	// First holds the earliest divergence reports, capped.
	First []*Divergence
}

// Report summarizes everything the collector has seen so far.
func (c *Collector) Report() Report {
	c.mu.Lock()
	first := make([]*Divergence, len(c.first))
	copy(first, c.first)
	c.mu.Unlock()
	return Report{
		Accesses:    c.accesses.Load(),
		Divergences: c.divergences.Load(),
		First:       first,
	}
}
