package check

import (
	"fmt"
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/cache"
	"cherisim/internal/cap"
	"cherisim/internal/mem"
	"cherisim/internal/telemetry"
	"cherisim/internal/tlb"
)

// These white-box tests prove the harness detects divergence at all: each
// one desynchronizes the reference model behind the checker's back and
// asserts the next checked operation is reported. Without them, a checker
// that compares nothing would pass every lockstep test.

func TestCacheCheckerDetectsDesync(t *testing.T) {
	cfg := cache.Config{Name: "desync", SizeBytes: 512, LineSize: 64, Ways: 2}
	col := NewCollector(nil)
	c := cache.New(cfg)
	k := AttachCache(col, c)
	c.Access(0, true)
	// Skew the reference: an access the optimized cache never saw.
	k.ref.Access(64, false)
	c.Access(128, false)
	rep := col.Report()
	if rep.Divergences == 0 {
		t.Fatal("checker missed a desynchronized reference model")
	}
	if !k.Dead() {
		t.Fatal("checker still live after reporting a divergence")
	}
	d := rep.First[0]
	if d.Component != "desync" || d.Op == "" || len(d.Trace) == 0 {
		t.Fatalf("divergence report incomplete: %+v", d)
	}
	if !strings.Contains(d.String(), "replay trace") {
		t.Fatalf("report rendering lost the trace: %s", d.String())
	}
	// A dead checker must not keep reporting.
	before := col.Report().Divergences
	c.Access(192, false)
	if got := col.Report().Divergences; got != before {
		t.Fatalf("dead checker reported again: %d -> %d", before, got)
	}
}

func TestTLBCheckerDetectsDesync(t *testing.T) {
	cfg := tlb.Config{Name: "desync-tlb", Entries: 4, PageLog: 12}
	col := NewCollector(nil)
	tl := tlb.New(cfg)
	k := AttachTLB(col, tl)
	tl.Insert(1 << 12)
	k.ref.Insert(2)    // reference-only insert (the reference holds VPNs)
	tl.Lookup(2 << 12) // optimized misses, reference hits
	rep := col.Report()
	if rep.Divergences == 0 {
		t.Fatal("checker missed a desynchronized reference model")
	}
	if !k.Dead() {
		t.Fatal("checker still live after reporting a divergence")
	}
}

func TestHeapCheckerDetectsDesync(t *testing.T) {
	col := NewCollector(nil)
	h := alloc.New(abi.Purecap, 0x4000_0000, 1<<24)
	k := AttachHeap(col, h)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// Skew the reference: a commit the optimized heap never made.
	k.ref.Commit(p+1<<20, 64)
	q, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	if rep.Divergences == 0 {
		t.Fatal("checker missed a desynchronized reference model")
	}
	if !k.Dead() {
		t.Fatal("checker still live after reporting a divergence")
	}
	if d := rep.First[0]; d.Component != "heap" || !strings.HasPrefix(d.Op, fmt.Sprintf("commit base %#x size", q)) {
		t.Fatalf("divergence not reported on the next commit: %+v", d)
	}
	before := col.Report().Divergences
	h.Free(q)
	h.Owner(p)
	if got := col.Report().Divergences; got != before {
		t.Fatalf("dead checker reported again: %d -> %d", before, got)
	}
}

func TestMemoryCheckerDetectsDesync(t *testing.T) {
	col := NewCollector(nil)
	m := mem.New()
	k := AttachMemory(col, m)
	m.WriteUint(0x1000, 1, 8)
	// Skew the reference: a write the optimized memory never saw, on the
	// same page, so only the value read back can tell.
	k.ref.WriteUint(0x1008, 0xdead, 8)
	if v := m.ReadUint(0x1008, 8); v != 0 {
		t.Fatalf("optimized memory read %#x, want 0", v)
	}
	rep := col.Report()
	if rep.Divergences == 0 {
		t.Fatal("checker missed a desynchronized reference model")
	}
	if !k.Dead() {
		t.Fatal("checker still live after reporting a divergence")
	}
	if d := rep.First[0]; d.Component != "mem" || d.Op != "read 0x1008 size 8" {
		t.Fatalf("divergence not reported on the next read: %+v", d)
	}
	before := col.Report().Divergences
	m.WriteUint(0x9000, 2, 8)
	m.ReadUint(0x1008, 8)
	if got := col.Report().Divergences; got != before {
		t.Fatalf("dead checker reported again: %d -> %d", before, got)
	}
}

func TestBoundsVerifierDetectsMismatch(t *testing.T) {
	// A fabricated observation claiming a wrong decode must be rejected.
	o := cap.BoundsObservation{
		Op: cap.BoundsEncode, Base: 0x1000, Length: 0x100,
		DecBase: 0x1001, DecTop: 0x1100, Exact: true,
	}
	if VerifyBounds(o) == "" {
		t.Fatal("verifier accepted a wrong decoded base")
	}
	o2 := cap.BoundsObservation{Op: cap.BoundsCRRL, Length: 0x100, CRRL: 0x101, CRAM: ^uint64(0)}
	if VerifyBounds(o2) == "" {
		t.Fatal("verifier accepted a wrong CRRL")
	}
}

func TestCollectorTelemetryCounters(t *testing.T) {
	hub := telemetry.New()
	col := NewCollector(hub)
	cfg := cache.Config{Name: "tele", SizeBytes: 512, LineSize: 64, Ways: 2}
	c := cache.New(cfg)
	k := AttachCache(col, c)
	c.Access(0, false)
	c.Access(64, false)
	if got := hub.Metrics.Counter("check_accesses").Value(); got != 2 {
		t.Fatalf("check_accesses = %d, want 2", got)
	}
	k.ref.Access(128, false) // desync
	c.Access(256, false)
	if got := hub.Metrics.Counter("check_divergences").Value(); got != 1 {
		t.Fatalf("check_divergences = %d, want 1", got)
	}
}

func TestAttachSkipsShadowedUnits(t *testing.T) {
	cfg := cache.Config{Name: "shared", SizeBytes: 512, LineSize: 64, Ways: 2}
	col := NewCollector(nil)
	c := cache.New(cfg)
	if AttachCache(col, c) == nil {
		t.Fatal("first attach refused")
	}
	if AttachCache(col, c) != nil {
		t.Fatal("second attach did not skip a shadowed cache")
	}
	tcfg := tlb.Config{Name: "shared-tlb", Entries: 4, PageLog: 12}
	tl := tlb.New(tcfg)
	if AttachTLB(col, tl) == nil {
		t.Fatal("first TLB attach refused")
	}
	if AttachTLB(col, tl) != nil {
		t.Fatal("second attach did not skip a shadowed TLB")
	}
}

func TestTraceRingKeepsTail(t *testing.T) {
	var r opRing
	for i := 0; i < traceDepth*2; i++ {
		r.push(traceOp{kind: opCacheRead, a: uint64(i)})
	}
	snap := r.snapshot()
	if len(snap) != traceDepth {
		t.Fatalf("snapshot length %d, want %d", len(snap), traceDepth)
	}
	if snap[0] != (traceOp{kind: opCacheRead, a: traceDepth}).String() {
		t.Fatalf("oldest retained op wrong: %s", snap[0])
	}
	if snap[len(snap)-1] != (traceOp{kind: opCacheRead, a: traceDepth*2 - 1}).String() {
		t.Fatalf("newest retained op wrong: %s", snap[len(snap)-1])
	}
}
