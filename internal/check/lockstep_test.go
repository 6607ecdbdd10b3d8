package check_test

import (
	"math/rand"
	"testing"

	"cherisim/internal/cache"
	"cherisim/internal/cap"
	"cherisim/internal/check"
	"cherisim/internal/refmodel"
	"cherisim/internal/tlb"
)

// Small geometries so short scripts produce conflicts, evictions, and
// memo churn.
var (
	fuzzCacheCfg = cache.Config{Name: "fuzz-cache", SizeBytes: 512, LineSize: 64, Ways: 2}
	fuzzTLBCfg   = tlb.Config{Name: "fuzz-tlb", Entries: 4, PageLog: 12}
)

// cacheOp is one step of a deterministic differential script.
type cacheOp struct {
	flush bool
	addr  uint64
	write bool
}

// runCacheScript replays ops on a checked cache and returns the report.
func runCacheScript(t *testing.T, cfg cache.Config, ops []cacheOp) check.Report {
	t.Helper()
	col := check.NewCollector(nil)
	c := cache.New(cfg)
	if check.AttachCache(col, c) == nil {
		t.Fatal("AttachCache returned nil for a fresh cache")
	}
	for _, op := range ops {
		if op.flush {
			c.InvalidateAll()
		} else {
			c.Access(op.addr, op.write)
		}
	}
	return col.Report()
}

// TestCacheLockstepScripts drives the optimized cache through conflict,
// eviction, and flush patterns with the reference model in lockstep.
func TestCacheLockstepScripts(t *testing.T) {
	// Geometry: 4 sets x 2 ways, 64-byte lines. Set k is hit by addresses
	// k*64 + n*256.
	const (
		set0a = 0 * 64
		set0b = 4 * 64 // same set as set0a, different tag
		set0c = 8 * 64 // third tag in set 0: forces eviction
		set1a = 1 * 64
	)
	scripts := map[string][]cacheOp{
		"conflict-evict-clean": {
			{addr: set0a}, {addr: set0b}, {addr: set0c}, // evicts set0a (clean)
			{addr: set0a}, // evicts set0b
		},
		"dirty-eviction-writeback": {
			{addr: set0a, write: true}, {addr: set0b},
			{addr: set0c}, // evicts dirty set0a: write-back with its address
			{addr: set0b}, // hit refresh
			{addr: set0a, write: true},
		},
		"lru-refresh-changes-victim": {
			{addr: set0a}, {addr: set0b},
			{addr: set0a},                // refresh: set0b becomes LRU
			{addr: set0c, write: true},   // must evict set0b, not set0a
			{addr: set0a}, {addr: set0c}, // both still resident
		},
		"flush-with-dirty-lines": {
			{addr: set0a, write: true}, {addr: set1a, write: true}, {addr: set0b},
			{flush: true}, // two dirty write-backs
			{addr: set0a}, // cold again
			{flush: true}, // no dirty lines this time
		},
		"write-allocate-dirty-chain": {
			{addr: set0a, write: true}, {addr: set0b, write: true},
			{addr: set0c, write: true}, // evict dirty set0a
			{addr: set0a, write: true}, // evict dirty set0b
			{addr: set0b, write: true}, // evict dirty set0c
		},
	}
	for name, ops := range scripts {
		t.Run(name, func(t *testing.T) {
			rep := runCacheScript(t, fuzzCacheCfg, ops)
			if rep.Divergences != 0 {
				t.Fatalf("%d divergences: %v", rep.Divergences, rep.First[0])
			}
			if rep.Accesses != uint64(len(ops)) {
				t.Fatalf("checked %d operations, want %d", rep.Accesses, len(ops))
			}
		})
	}
}

// TestTLBLockstepScripts drives the optimized TLB (memo + hashed index) against
// the linear-scan reference through memo-eviction and refill patterns.
func TestTLBLockstepScripts(t *testing.T) {
	page := func(n uint64) uint64 { return n << 12 }
	type tlbOp struct {
		insert bool
		flush  bool
		addr   uint64
	}
	scripts := map[string][]tlbOp{
		"memo-eviction": {
			{insert: true, addr: page(1)},
			{addr: page(1)}, {addr: page(1)}, // memo fast path
			// Fill the 4-entry TLB so page 1 is evicted under the memo.
			{insert: true, addr: page(2)}, {insert: true, addr: page(3)},
			{insert: true, addr: page(4)}, {insert: true, addr: page(5)},
			{addr: page(1)}, // memo slot now holds another page: miss
			{addr: page(5)},
		},
		"duplicate-insert": {
			{insert: true, addr: page(7)},
			{insert: true, addr: page(7)}, // refresh in place, no second slot
			{addr: page(7)},
			{insert: true, addr: page(8)}, {insert: true, addr: page(9)},
			{insert: true, addr: page(10)}, {insert: true, addr: page(11)},
			{addr: page(7)}, // evicted by now; must miss, not corrupt
		},
		"flush-refill": {
			{insert: true, addr: page(1)}, {insert: true, addr: page(2)},
			{addr: page(1)},
			{flush: true},
			{addr: page(1)}, // cold
			{insert: true, addr: page(1)}, {addr: page(1)},
		},
		"lru-refresh-changes-victim": {
			{insert: true, addr: page(1)}, {insert: true, addr: page(2)},
			{insert: true, addr: page(3)}, {insert: true, addr: page(4)},
			{addr: page(1)},               // page 1 newest; page 2 is LRU
			{insert: true, addr: page(5)}, // must evict page 2
			{addr: page(1)}, {addr: page(2)}, {addr: page(5)},
		},
	}
	for name, ops := range scripts {
		t.Run(name, func(t *testing.T) {
			col := check.NewCollector(nil)
			tl := tlb.New(fuzzTLBCfg)
			if check.AttachTLB(col, tl) == nil {
				t.Fatal("AttachTLB returned nil for a fresh TLB")
			}
			for _, op := range ops {
				switch {
				case op.flush:
					tl.InvalidateAll()
				case op.insert:
					tl.Insert(op.addr)
				default:
					tl.Lookup(op.addr)
				}
			}
			if rep := col.Report(); rep.Divergences != 0 {
				t.Fatalf("%d divergences: %v", rep.Divergences, rep.First[0])
			}
		})
	}
}

// boundsObservations derives the encode and CRRL observations for one
// (base, length) pair from the public capability API: SetBounds for the
// decoded bounds, SetBoundsExact for the exact flag, and the CRRL/CRAM
// helpers. The caller must ensure base+length <= 2^64.
func boundsObservations(base, length uint64) []cap.BoundsObservation {
	c, err := cap.Root().SetBounds(base, length)
	if err != nil {
		panic("root SetBounds refused an in-contract region: " + err.Error())
	}
	_, exErr := cap.Root().SetBoundsExact(base, length)
	return []cap.BoundsObservation{
		{
			Op: cap.BoundsEncode, Base: base, Length: length,
			DecBase: c.Base(), DecTop: c.Top(), DecTopFull: c.TopIsFull(),
			Exact: exErr == nil,
		},
		{
			Op: cap.BoundsCRRL, Length: length,
			CRRL: cap.RepresentableLength(length),
			CRAM: cap.RepresentableAlignmentMask(length),
		},
	}
}

// clampLength caps length so base+length <= 2^64.
func clampLength(base, length uint64) uint64 {
	if base != 0 && length > -base {
		return -base
	}
	return length
}

// boundaryValues are the structured probes for the differential sweep:
// powers of two, mantissa-precision boundaries, and the 2^64 edge, each
// with small offsets.
func boundaryValues() []uint64 {
	var vals []uint64
	for _, v := range []uint64{
		0, 1, 2, 3,
		1 << (14 - 2), 1 << (14 - 1), 1 << 14, // mantissa-width boundaries
		1 << 20, 1 << 32, 1 << 45, 1 << 50, 1 << 56,
		1 << 62, 1 << 63,
		^uint64(0), // 2^64 - 1
	} {
		for _, d := range []uint64{0, 1, 2, 7, 64, 4096} {
			vals = append(vals, v-d, v+d)
		}
	}
	return vals
}

// TestBoundsDifferentialSweep compares the optimized compressor against the
// big-integer reference over every pair of boundary values plus a large
// random sample, via the public capability API.
func TestBoundsDifferentialSweep(t *testing.T) {
	vals := boundaryValues()
	checkPair := func(base, length uint64) {
		t.Helper()
		length = clampLength(base, length)
		for _, o := range boundsObservations(base, length) {
			if detail := check.VerifyBounds(o); detail != "" {
				t.Fatalf("base=%#x length=%#x: %s", base, length, detail)
			}
		}
	}
	for _, base := range vals {
		for _, length := range vals {
			checkPair(base, length)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		base := rng.Uint64()
		length := rng.Uint64() >> uint(rng.Intn(64))
		if i%3 == 0 {
			// Bias toward regions touching the top of the address space.
			base = -(length + uint64(rng.Intn(4096)))
		}
		checkPair(base, length)
	}
	// The reset/root capability itself.
	r := cap.Root()
	o := cap.BoundsObservation{
		Op: cap.BoundsEncode, FullSpace: true,
		DecBase: r.Base(), DecTop: r.Top(), DecTopFull: r.TopIsFull(), Exact: true,
	}
	if detail := check.VerifyBounds(o); detail != "" {
		t.Fatalf("root capability: %s", detail)
	}
}

// TestBoundsObserverDispatch exercises the installed-observer path end to
// end: with a collector tapped in, capability derivations feed the checker
// and are counted.
func TestBoundsObserverDispatch(t *testing.T) {
	col := check.NewCollector(nil)
	col.EnableBounds()
	defer col.Close()
	before := col.Report().Accesses
	cap.Root().SetBounds(0x1000, 0x2000)
	cap.RepresentableLength(0x12345)
	rep := col.Report()
	if rep.Accesses == before {
		t.Fatal("bounds observer did not reach the collector")
	}
	if rep.Divergences != 0 {
		t.Fatalf("unexpected divergence: %v", rep.First[0])
	}
}

// FuzzCacheLockstep feeds byte-script programs to an optimized cache with
// the reference model in lockstep. Any divergence in outcome, stats,
// victim choice, or write-back address fails the run.
func FuzzCacheLockstep(f *testing.F) {
	f.Add([]byte{0x00, 0x40, 0x80, 0xC0, 0x01, 0x11})
	f.Add([]byte{0x10, 0x10, 0x10, 0xFF, 0x20})
	f.Fuzz(func(t *testing.T, script []byte) {
		col := check.NewCollector(nil)
		c := cache.New(fuzzCacheCfg)
		check.AttachCache(col, c)
		for i, b := range script {
			switch {
			case b == 0xFF:
				c.InvalidateAll()
			default:
				// Line-granular address over 32 lines (8 tags per set),
				// write on odd opcodes.
				addr := uint64(b>>3) * 64
				c.Access(addr, b&1 != 0)
			}
			if rep := col.Report(); rep.Divergences != 0 {
				t.Fatalf("step %d: %v", i, rep.First[0])
			}
		}
	})
}

// FuzzTLBLockstep feeds byte-script programs of lookups, inserts, and
// flushes to an optimized TLB with the reference model in lockstep.
func FuzzTLBLockstep(f *testing.F) {
	f.Add([]byte{0x01, 0x41, 0x42, 0x43, 0x44, 0x45, 0x01})
	f.Add([]byte{0x47, 0x47, 0x07, 0xFF, 0x07})
	f.Fuzz(func(t *testing.T, script []byte) {
		col := check.NewCollector(nil)
		tl := tlb.New(fuzzTLBCfg)
		check.AttachTLB(col, tl)
		for i, b := range script {
			addr := uint64(b&0x0F) << 12 // 16 pages over 4 entries
			switch {
			case b == 0xFF:
				tl.InvalidateAll()
			case b&0x40 != 0:
				tl.Insert(addr)
			default:
				tl.Lookup(addr)
			}
			if rep := col.Report(); rep.Divergences != 0 {
				t.Fatalf("step %d: %v", i, rep.First[0])
			}
		}
	})
}

// FuzzBoundsLockstep compares the optimized bounds compressor against the
// big-integer reference for arbitrary regions, clamped to the encoder's
// base+length <= 2^64 contract.
func FuzzBoundsLockstep(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1)<<63, uint64(1)<<63)   // region ending exactly at 2^64
	f.Add(uint64(0), ^uint64(0))          // maximal uint64 length
	f.Add(^uint64(0)-7, uint64(8))        // top-of-space small object
	f.Add(uint64(0), uint64(1)<<(14-2))   // mantissa boundary: forces I_E
	f.Add(uint64(0), uint64(1)<<(14-2)-1) // largest exact small object
	f.Add(uint64(1)<<63, uint64(1)<<50)   // large aligned mid-space region
	f.Add(uint64(0x1234567812345678), uint64(0x8765432))
	f.Fuzz(func(t *testing.T, base, length uint64) {
		length = clampLength(base, length)
		for _, o := range boundsObservations(base, length) {
			if detail := check.VerifyBounds(o); detail != "" {
				t.Fatalf("base=%#x length=%#x: %s", base, length, detail)
			}
		}
	})
}

// TestRefmodelAgainstItself pins the reference models' own basic
// semantics, so a bug there cannot silently weaken the lockstep check.
func TestRefmodelAgainstItself(t *testing.T) {
	c := refmodel.NewCache(fuzzCacheCfg)
	if res := c.Access(0, true); res.Hit {
		t.Fatal("cold access hit")
	}
	if res := c.Access(0, false); !res.Hit {
		t.Fatal("warm access missed")
	}
	// Two more tags in set 0: the dirty line 0 is evicted with its address.
	c.Access(256, false)
	res := c.Access(512, false)
	if !res.WriteBack || res.WriteBackAddr != 0 {
		t.Fatalf("expected write-back of line 0, got %+v", res)
	}
	if got := c.InvalidateAll(); got != 0 {
		t.Fatalf("flush of clean cache wrote back %d lines", got)
	}

	tl := refmodel.NewTLB(fuzzTLBCfg)
	if tl.Lookup(1) {
		t.Fatal("cold lookup hit")
	}
	tl.Insert(1)
	if !tl.Lookup(1) {
		t.Fatal("inserted page missed")
	}
	tl.InvalidateAll()
	if tl.Lookup(1) {
		t.Fatal("lookup hit after flush")
	}
}
