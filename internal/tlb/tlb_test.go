package tlb

import "testing"

func TestLookupInsert(t *testing.T) {
	tb := New(Config{Name: "t", Entries: 4, PageLog: 12})
	if tb.Lookup(0x1000) {
		t.Fatal("cold lookup hit")
	}
	tb.Insert(0x1000)
	if !tb.Lookup(0x1fff) {
		t.Fatal("same-page lookup missed")
	}
	if tb.Lookup(0x2000) {
		t.Fatal("next-page lookup hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	tb := New(Config{Name: "t", Entries: 2, PageLog: 12})
	tb.Insert(0x1000)
	tb.Insert(0x2000)
	tb.Lookup(0x1000) // 1 is MRU
	tb.Insert(0x3000) // evicts page 2
	if !tb.Lookup(0x1000) {
		t.Fatal("MRU entry evicted")
	}
	if tb.Lookup(0x2000) {
		t.Fatal("LRU entry survived")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	l2 := New(L2Config)
	h := NewHierarchy(L1DConfig, l2)
	// Cold: full walk.
	if lat := h.Translate(0x10000); lat != WalkLatency {
		t.Fatalf("cold translate latency = %d, want %d", lat, WalkLatency)
	}
	if h.Walks != 1 {
		t.Fatalf("walks = %d", h.Walks)
	}
	// Warm L1: free.
	if lat := h.Translate(0x10008); lat != 0 {
		t.Fatalf("L1-hit latency = %d", lat)
	}
	if h.Walks != 1 {
		t.Fatal("walk counted on hit")
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	l2 := New(L2Config)
	h := NewHierarchy(Config{Name: "tiny", Entries: 2, PageLog: 12}, l2)
	h.Translate(0x1000)
	h.Translate(0x2000)
	h.Translate(0x3000) // evicts 0x1000 from tiny L1, still in L2
	lat := h.Translate(0x1000)
	if lat != 5 {
		t.Fatalf("L2-hit latency = %d, want 5", lat)
	}
	if h.Walks != 3 {
		t.Fatalf("walks = %d, want 3", h.Walks)
	}
}

func TestFootprintDrivesWalks(t *testing.T) {
	// A working set of more pages than L2 TLB entries must keep walking.
	l2 := New(Config{Name: "l2", Entries: 64, PageLog: 12})
	h := NewHierarchy(Config{Name: "l1", Entries: 8, PageLog: 12}, l2)
	pages := 256
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < pages; p++ {
			h.Translate(uint64(p) << 12)
		}
	}
	if h.Walks < uint64(pages) {
		t.Errorf("walks = %d, want >= %d (thrash)", h.Walks, pages)
	}
	small := NewHierarchy(Config{Name: "l1", Entries: 8, PageLog: 12}, New(Config{Name: "l2", Entries: 1024, PageLog: 12}))
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < pages; p++ {
			small.Translate(uint64(p) << 12)
		}
	}
	if small.Walks != uint64(pages) {
		t.Errorf("fitting working set: walks = %d, want %d", small.Walks, pages)
	}
}

func TestInvalidateAll(t *testing.T) {
	tb := New(Config{Name: "t", Entries: 4, PageLog: 12})
	tb.Insert(0x1000)
	tb.InvalidateAll()
	if tb.Lookup(0x1000) {
		t.Fatal("entry survived invalidation")
	}
}

func TestStatsCounts(t *testing.T) {
	tb := New(Config{Name: "t", Entries: 4, PageLog: 12})
	tb.Lookup(0x1000) // miss
	tb.Insert(0x1000)
	tb.Lookup(0x1000) // hit
	if tb.Stats.Accesses != 2 || tb.Stats.Misses != 1 {
		t.Errorf("stats = %+v", tb.Stats)
	}
}

// refTLB is the pre-memo reference model of one TLB level: map-probed
// lookup, LRU-scan insert. The last-translation memo must stay
// bit-identical to it in stats, LRU ordering and replacement.
type refTLB struct {
	cfg     Config
	entries []entry
	index   map[uint64]int
	seq     uint64
	stats   Stats
}

func newRefTLB(cfg Config) *refTLB {
	return &refTLB{cfg: cfg, entries: make([]entry, cfg.Entries), index: make(map[uint64]int, cfg.Entries)}
}

func (t *refTLB) lookup(addr uint64) bool {
	t.stats.Accesses++
	vpn := addr >> t.cfg.PageLog
	t.seq++
	if i, ok := t.index[vpn]; ok && t.entries[i].valid && t.entries[i].vpn == vpn {
		t.entries[i].lru = t.seq
		return true
	}
	t.stats.Misses++
	return false
}

func (t *refTLB) insert(addr uint64) {
	vpn := addr >> t.cfg.PageLog
	t.seq++
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	if v := &t.entries[victim]; v.valid {
		delete(t.index, v.vpn)
	}
	t.entries[victim] = entry{vpn: vpn, valid: true, lru: t.seq}
	t.index[vpn] = victim
}

type refHierarchy struct {
	l1, l2 *refTLB
	walks  uint64
}

func (h *refHierarchy) translate(addr uint64) uint64 {
	if h.l1.lookup(addr) {
		return 0
	}
	if h.l2.lookup(addr) {
		h.l1.insert(addr)
		return 5
	}
	h.walks++
	h.l2.insert(addr)
	h.l1.insert(addr)
	return WalkLatency
}

// TestHierarchyMatchesReferenceModel drives the memoized hierarchy exactly
// as internal/core does (FastHit first, Translate on memo miss) against
// the reference model with identical address streams, including enough
// distinct pages to force L1 evictions under the memo.
func TestHierarchyMatchesReferenceModel(t *testing.T) {
	small := Config{Name: "L1", Entries: 4, PageLog: 12}
	l2cfg := Config{Name: "L2", Entries: 16, PageLog: 12}
	opt := NewHierarchy(small, New(l2cfg))
	ref := &refHierarchy{l1: newRefTLB(small), l2: newRefTLB(l2cfg)}

	seed := uint64(7)
	var last uint64
	for i := 0; i < 50000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		var addr uint64
		switch seed % 4 {
		case 0, 1: // same-page run (memo territory)
			addr = last&^0xfff | (seed >> 32 & 0xfff)
		case 2: // small working set
			addr = (seed >> 16 % 8) << 12
		default: // wide sweep forcing evictions
			addr = (seed >> 16 % 64) << 12
		}
		last = addr
		var got uint64
		if opt.FastHit(addr) {
			got = 0
		} else {
			got = opt.Translate(addr)
		}
		if want := ref.translate(addr); got != want {
			t.Fatalf("step %d addr %#x: latency %d, want %d", i, addr, got, want)
		}
	}
	if opt.L1.Stats != ref.l1.stats {
		t.Fatalf("L1 stats diverged: %+v vs %+v", opt.L1.Stats, ref.l1.stats)
	}
	if opt.L2.Stats != ref.l2.stats {
		t.Fatalf("L2 stats diverged: %+v vs %+v", opt.L2.Stats, ref.l2.stats)
	}
	if opt.Walks != ref.walks {
		t.Fatalf("walks %d, want %d", opt.Walks, ref.walks)
	}
}

// TestMemoInvalidation checks the memo cannot produce a hit after a flush
// or after its entry is evicted by inserts.
func TestMemoInvalidation(t *testing.T) {
	tb := New(Config{Name: "t", Entries: 2, PageLog: 12})
	tb.Insert(0x1000)
	if !tb.Lookup(0x1000) {
		t.Fatal("warm lookup missed")
	}
	tb.InvalidateAll()
	if tb.Lookup(0x1000) {
		t.Fatal("memo hit after InvalidateAll")
	}
	tb.Insert(0x1000)
	tb.Lookup(0x1000)
	tb.Insert(0x2000)
	tb.Insert(0x3000) // evicts page 1 (LRU scan may reuse its slot)
	tb.Insert(0x4000)
	if tb.fastHit(0x1) {
		t.Fatal("memo fast hit for an evicted page")
	}
}

// TestInsertDuplicateVPN reproduces the index-corruption bug: inserting a
// page that is already resident must refresh the existing entry, not
// allocate a second slot. With the double entry, the later eviction of the
// stale copy deleted the live entry's index key, turning every subsequent
// lookup of that page into a spurious miss.
func TestInsertDuplicateVPN(t *testing.T) {
	tb := New(Config{Name: "dup", Entries: 4, PageLog: 12})
	tb.Insert(7 << 12)
	tb.Insert(7 << 12) // same page again: refresh in place
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Three more distinct pages: exactly fills the 4-entry TLB, so nothing
	// is evicted — unless the duplicate ate a slot.
	for p := uint64(8); p <= 10; p++ {
		tb.Insert(p << 12)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{7, 8, 9, 10} {
		if !tb.Lookup(p << 12) {
			t.Fatalf("page %d missed after duplicate insert", p)
		}
	}
	if tb.Stats.Misses != 0 {
		t.Fatalf("spurious misses: %+v", tb.Stats)
	}
}

// TestInsertDuplicateTouchesLRU checks the refresh path really refreshes:
// after re-inserting the oldest page, it must no longer be the victim.
func TestInsertDuplicateTouchesLRU(t *testing.T) {
	tb := New(Config{Name: "dup-lru", Entries: 2, PageLog: 12})
	tb.Insert(1 << 12)
	tb.Insert(2 << 12)
	tb.Insert(1 << 12) // refresh: page 2 becomes LRU
	tb.Insert(3 << 12) // must evict page 2
	if !tb.Lookup(1 << 12) {
		t.Fatal("refreshed page evicted")
	}
	if tb.Lookup(2 << 12) {
		t.Fatal("LRU page survived")
	}
}

// TestIndexProbeChainWrapEviction pins the open-addressed index's
// backward-shift deletion on a probe chain that wraps past the end of the
// table. Four entries give an eight-bucket index. A, B, C and E hash to the
// last bucket, so their chain wraps to buckets 0, 1, 2; X hashes to bucket 1
// and sits there before C arrives. Evicting B from the middle of the chain
// must leave X in its home bucket and shift C back over the hole.
func TestIndexProbeChainWrapEviction(t *testing.T) {
	tb := New(Config{Name: "chain", Entries: 4, PageLog: 12})
	if len(tb.index) != 8 {
		t.Fatalf("index has %d buckets, want 8", len(tb.index))
	}
	last := len(tb.index) - 1
	var wrap []uint64 // VPNs homed in the last bucket
	var x uint64      // a VPN homed in bucket 1
	for v := uint64(1); len(wrap) < 4 || x == 0; v++ {
		switch tb.home(v) {
		case last:
			if len(wrap) < 4 {
				wrap = append(wrap, v)
			}
		case 1:
			if x == 0 {
				x = v
			}
		}
	}
	a, b, c, e := wrap[0], wrap[1], wrap[2], wrap[3]
	step := func(what string, op func()) {
		t.Helper()
		op()
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	at := func(vpn uint64, want int) {
		t.Helper()
		if got := tb.bucketOf(vpn); got != want {
			t.Fatalf("vpn %#x in bucket %d, want %d", vpn, got, want)
		}
	}
	for _, v := range []uint64{a, b, x, c} {
		step("insert", func() { tb.Insert(v << 12) })
	}
	at(a, last)
	at(b, 0)
	at(x, 1)
	at(c, 2)
	for _, v := range []uint64{a, x, c} { // B becomes the LRU victim
		step("lookup", func() { tb.Lookup(v << 12) })
	}
	step("insert E evicting B", func() { tb.Insert(e << 12) })
	at(b, -1)
	at(a, last)
	at(c, 0) // shifted back over B's hole
	at(x, 1) // already home: must not move
	at(e, 2)
	for _, v := range []uint64{a, c, x, e} {
		if !tb.Lookup(v << 12) {
			t.Fatalf("resident vpn %#x missed", v)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Lookup(b << 12) {
		t.Fatal("evicted vpn hit")
	}
	step("flush", tb.InvalidateAll)
	for _, v := range []uint64{a, c, x, e} {
		at(v, -1)
	}
}
