// Package tlb models the Neoverse N1 translation machinery: small
// fully-associative L1 instruction and data TLBs, a larger unified L2 TLB,
// and a page-table walker whose activity surfaces as the ITLB_WALK /
// DTLB_WALK PMU events the paper analyses in §4.7.
package tlb

import "fmt"

// Config describes one TLB level.
type Config struct {
	Name    string
	Entries int
	PageLog uint // log2 of page size translated
}

// Morello/N1 geometry: 48-entry L1 TLBs, 1280-entry unified L2 TLB,
// 4 KiB granule.
var (
	L1IConfig = Config{Name: "L1I-TLB", Entries: 48, PageLog: 12}
	L1DConfig = Config{Name: "L1D-TLB", Entries: 48, PageLog: 12}
	L2Config  = Config{Name: "L2-TLB", Entries: 1280, PageLog: 12}
)

// WalkLatency is the cost in cycles of a page-table walk that misses all
// TLB levels (four sequential memory accesses hitting mid-hierarchy).
const WalkLatency = 45

type entry struct {
	vpn   uint64
	valid bool
	lru   uint64
}

// bucket is one slot of the TLB's open-addressed VPN index. slot holds the
// entry's position plus one, so the zero bucket is empty and clear()
// empties the whole table. A bucket is occupied exactly while the entry it
// names is valid: eviction unindexes the victim before reusing its slot,
// and InvalidateAll clears both arrays together.
type bucket struct {
	vpn  uint64
	slot int32
}

// Stats exposes TLB activity to the PMU.
type Stats struct {
	Accesses uint64 // L1x_TLB in the paper's tables
	Misses   uint64 // L1 misses (refills from L2 or walker)
}

// Shadow observes every state-changing TLB operation after it completes.
// internal/check installs a lockstep reference model behind it; a nil
// shadow costs one pointer test per operation and nothing else. Shadows
// must not touch the TLB they are attached to beyond the read-only
// snapshot/stats accessors.
type Shadow interface {
	// Lookup reports one completed lookup (memo fast path included) and
	// whether it hit this level.
	Lookup(vpn uint64, hit bool)
	// Insert reports one completed translation install.
	Insert(vpn uint64)
	// InvalidateAll reports a completed flush.
	InvalidateAll()
}

// EntryState is a read-only snapshot of one TLB entry, exposed for the
// lockstep checker's state comparison.
type EntryState struct {
	VPN   uint64
	Valid bool
	LRU   uint64
}

// TLB is one translation-cache level, fully associative with LRU
// replacement (adequate at these sizes and matches N1 behaviour closely).
// A fixed open-addressed VPN index (see bucket) keeps lookups O(1) without
// hashing through a Go map; the LRU victim is the tail of an intrusive
// recency list, so insertion is O(1) too.
//
// A one-entry last-translation memo (lastVPN/lastSlot) fronts the index:
// workload access streams overwhelmingly stay on one page across
// consecutive references, and the memo turns those lookups into two
// compares instead of an index probe. The memo always names the valid
// entry at the head of the recency list (every hit and insert sets it, an
// eviction re-points it, a flush empties it; CheckInvariants verifies
// this), so it can never fabricate a hit, and its accounting (access
// count, LRU touch) is identical to the slow path's.
type TLB struct {
	// The memo hit reads only the fields up to Stats (and cfg.PageLog),
	// kept together at the front so it touches as few cache lines as it
	// can.
	lastVPN  uint64
	lastSlot int // -1 when the memo is empty
	seq      uint64
	shadow   Shadow
	Stats    Stats
	entries  []entry
	cfg      Config
	index    []bucket // power-of-two table, at least twice Entries
	shift    uint     // 64 - log2(len(index)), for the multiplicative hash
	// prev/next/head/tail maintain the entries as an intrusive recency
	// list mirroring the lru sequence numbers, so Insert's victim is the
	// tail in O(1) instead of a full scan for the minimum. nextFree is the
	// first never-used slot: entries only become valid in slot order and
	// are only invalidated all at once, so the invalid slots are exactly
	// [nextFree, len) and "first invalid slot" is nextFree.
	prev, next []int32
	head, tail int32
	nextFree   int
}

// New builds a TLB from its configuration.
func New(cfg Config) *TLB {
	size, shift := 1, uint(64)
	for size < 2*cfg.Entries {
		size <<= 1
		shift--
	}
	t := &TLB{
		cfg:      cfg,
		entries:  make([]entry, cfg.Entries),
		index:    make([]bucket, size),
		shift:    shift,
		lastSlot: -1,
		prev:     make([]int32, cfg.Entries),
		next:     make([]int32, cfg.Entries),
		head:     -1,
		tail:     -1,
	}
	return t
}

// home is vpn's first probe position in the index (Fibonacci hashing: the
// multiplier's high product bits mix every VPN bit into the bucket number).
func (t *TLB) home(vpn uint64) int { return int(vpn * 0x9E3779B97F4A7C15 >> t.shift) }

// bucketOf returns the index position holding vpn, or -1 when vpn is not
// resident. Linear probing stops at the first empty bucket; the table is
// at most half full, so one always exists.
func (t *TLB) bucketOf(vpn uint64) int {
	mask := len(t.index) - 1
	for b := t.home(vpn); t.index[b].slot != 0; b = (b + 1) & mask {
		if t.index[b].vpn == vpn {
			return b
		}
	}
	return -1
}

// find returns vpn's entry slot, or -1 when vpn is not resident.
func (t *TLB) find(vpn uint64) int {
	if b := t.bucketOf(vpn); b >= 0 {
		return int(t.index[b].slot) - 1
	}
	return -1
}

// indexAt records that entry slot i now holds vpn, which must not be
// resident already.
func (t *TLB) indexAt(vpn uint64, i int) {
	mask := len(t.index) - 1
	b := t.home(vpn)
	for t.index[b].slot != 0 {
		b = (b + 1) & mask
	}
	t.index[b] = bucket{vpn: vpn, slot: int32(i) + 1}
}

// unindex removes resident vpn from the index by backward-shift deletion:
// each later member of the probe chain moves into the hole unless that
// would place it before its own home bucket, so no tombstones accumulate
// and every remaining VPN stays reachable from its home.
func (t *TLB) unindex(vpn uint64) {
	mask := len(t.index) - 1
	hole := t.bucketOf(vpn)
	for b := (hole + 1) & mask; t.index[b].slot != 0; b = (b + 1) & mask {
		if (b-t.home(t.index[b].vpn))&mask >= (b-hole)&mask {
			t.index[hole] = t.index[b]
			hole = b
		}
	}
	t.index[hole] = bucket{}
}

// touch moves slot i to the head of the recency list (the equivalent of
// assigning it the newest lru sequence number).
func (t *TLB) touch(i int) {
	if t.head == int32(i) {
		return
	}
	p, n := t.prev[i], t.next[i]
	if p >= 0 {
		t.next[p] = n
	}
	if n >= 0 {
		t.prev[n] = p
	}
	if t.tail == int32(i) {
		t.tail = p
	}
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head >= 0 {
		t.prev[t.head] = int32(i)
	}
	t.head = int32(i)
	if t.tail < 0 {
		t.tail = int32(i)
	}
}

// pushFront links a slot that is not currently in the recency list.
func (t *TLB) pushFront(i int) {
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head >= 0 {
		t.prev[t.head] = int32(i)
	}
	t.head = int32(i)
	if t.tail < 0 {
		t.tail = int32(i)
	}
}

// memoHit records an L1-identical hit for vpn through the memo, or reports
// false (without touching stats) when the memo does not cover vpn. The memo
// always names the most recently used entry — every hit and every insert
// sets it, and an eviction re-points it at the refilled slot — so a memo
// hit needs no recency-list move and no index probe. It makes no call, so
// it inlines into FastHit.
func (t *TLB) memoHit(vpn uint64) bool {
	i := t.lastSlot
	if i < 0 || t.lastVPN != vpn {
		return false
	}
	t.Stats.Accesses++
	t.seq++
	t.entries[i].lru = t.seq
	return true
}

// fastHit is memoHit reported to the shadow.
func (t *TLB) fastHit(vpn uint64) bool {
	if !t.memoHit(vpn) {
		return false
	}
	if t.shadow != nil {
		t.shadow.Lookup(vpn, true)
	}
	return true
}

// Lookup translates addr, returning whether the translation hit this level.
func (t *TLB) Lookup(addr uint64) bool {
	vpn := addr >> t.cfg.PageLog
	return t.fastHit(vpn) || t.lookup(vpn)
}

// lookup is Lookup without the memo: an index probe whose hit accounting
// is identical to a memo hit's.
func (t *TLB) lookup(vpn uint64) bool {
	t.Stats.Accesses++
	t.seq++
	if i := t.find(vpn); i >= 0 {
		t.entries[i].lru = t.seq
		t.touch(i)
		t.lastVPN, t.lastSlot = vpn, i
		if t.shadow != nil {
			t.shadow.Lookup(vpn, true)
		}
		return true
	}
	t.Stats.Misses++
	if t.shadow != nil {
		t.shadow.Lookup(vpn, false)
	}
	return false
}

// Insert installs a translation for addr's page. Inserting a page that is
// already resident refreshes its entry in place (LRU touch), keeping the
// index and the entry array consistent: allocating a second slot for the
// same VPN would leave two valid entries for one page, and evicting the
// stale one later would delete the index key the live entry depends on,
// turning every subsequent lookup of that page into a spurious miss.
func (t *TLB) Insert(addr uint64) {
	vpn := addr >> t.cfg.PageLog
	t.seq++
	if i := t.find(vpn); i >= 0 {
		t.entries[i].lru = t.seq
		t.touch(i)
		t.lastVPN, t.lastSlot = vpn, i
		if t.shadow != nil {
			t.shadow.Insert(vpn)
		}
		return
	}
	// Victim: the first never-used slot, else the recency-list tail (the
	// valid entry with the minimum lru) — the same choice the full scan
	// makes, in O(1).
	var victim int
	if t.nextFree < len(t.entries) {
		victim = t.nextFree
		t.nextFree++
		t.pushFront(victim)
	} else {
		victim = int(t.tail)
		t.touch(victim)
	}
	if v := &t.entries[victim]; v.valid {
		t.unindex(v.vpn)
	}
	t.entries[victim] = entry{vpn: vpn, valid: true, lru: t.seq}
	t.indexAt(vpn, victim)
	t.lastVPN, t.lastSlot = vpn, victim
	if t.shadow != nil {
		t.shadow.Insert(vpn)
	}
}

// InvalidateAll flushes the TLB.
func (t *TLB) InvalidateAll() {
	clear(t.entries)
	clear(t.index)
	t.lastSlot = -1
	t.head, t.tail = -1, -1
	t.nextFree = 0
	if t.shadow != nil {
		t.shadow.InvalidateAll()
	}
}

// SetShadow installs (or, with nil, removes) the TLB's lockstep observer
// and returns the previous one.
func (t *TLB) SetShadow(s Shadow) Shadow {
	prev := t.shadow
	t.shadow = s
	return prev
}

// Shadowed reports whether a lockstep observer is installed.
func (t *TLB) Shadowed() bool { return t.shadow != nil }

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// AppendEntryState appends a snapshot of every entry to dst and returns it,
// for the lockstep checker's state comparison.
func (t *TLB) AppendEntryState(dst []EntryState) []EntryState {
	for i := range t.entries {
		e := &t.entries[i]
		dst = append(dst, EntryState{VPN: e.vpn, Valid: e.valid, LRU: e.lru})
	}
	return dst
}

// CheckInvariants verifies the internal consistency the fast paths rely
// on: every occupied index bucket names a valid entry holding its VPN,
// every valid entry is reachable by probing from its home bucket (which
// also rules out one VPN valid in two slots: both would be found at the
// same first bucket), and the index holds exactly as many keys as there
// are valid entries. It exists for tests and the lockstep checker; the
// zero-allocation hot paths never call it.
func (t *TLB) CheckInvariants() error {
	occupied := 0
	for b, k := range t.index {
		if k.slot == 0 {
			continue
		}
		occupied++
		i := int(k.slot) - 1
		if i < 0 || i >= len(t.entries) || !t.entries[i].valid || t.entries[i].vpn != k.vpn {
			return fmt.Errorf("tlb %s: index bucket %d maps vpn %#x to stale slot %d", t.cfg.Name, b, k.vpn, i)
		}
	}
	valid := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		valid++
		if j := t.find(e.vpn); j != i {
			return fmt.Errorf("tlb %s: valid vpn %#x in slot %d reached at slot %d from its home bucket", t.cfg.Name, e.vpn, i, j)
		}
	}
	if occupied != valid {
		return fmt.Errorf("tlb %s: index holds %d keys, %d entries valid", t.cfg.Name, occupied, valid)
	}
	// The memo must name the most recently used entry: memoHit trusts it
	// without re-checking validity or moving it on the recency list.
	if i := t.lastSlot; i >= 0 {
		if i >= len(t.entries) || !t.entries[i].valid || t.entries[i].vpn != t.lastVPN || t.head != int32(i) {
			return fmt.Errorf("tlb %s: memo names slot %d for vpn %#x, which is not the valid head entry", t.cfg.Name, i, t.lastVPN)
		}
	}
	// The recency list must cover exactly the valid entries in strictly
	// descending lru order: its tail is Insert's O(1) victim, so a mis-
	// ordered list silently changes replacement behaviour.
	listed := 0
	lastLRU := ^uint64(0)
	for i := t.head; i >= 0; i = t.next[i] {
		e := &t.entries[i]
		if !e.valid {
			return fmt.Errorf("tlb %s: invalid slot %d on recency list", t.cfg.Name, i)
		}
		if listed > 0 && e.lru >= lastLRU {
			return fmt.Errorf("tlb %s: recency list out of lru order at slot %d", t.cfg.Name, i)
		}
		lastLRU = e.lru
		if listed++; listed > len(t.entries) {
			return fmt.Errorf("tlb %s: recency list cycle", t.cfg.Name)
		}
	}
	if listed != valid {
		return fmt.Errorf("tlb %s: recency list covers %d entries, %d valid", t.cfg.Name, listed, valid)
	}
	return nil
}

// Hierarchy bundles an L1 TLB with the shared L2 TLB and the walker, and
// produces the per-side walk counts.
type Hierarchy struct {
	L1 *TLB
	L2 *TLB
	// Walks counts page-table walks (the xTLB_WALK PMU event).
	Walks uint64
	// WalkCycles accumulates the latency contributed by walks.
	WalkCycles uint64
}

// NewHierarchy builds an L1+shared-L2 translation path.
func NewHierarchy(l1 Config, l2 *TLB) *Hierarchy {
	return &Hierarchy{L1: New(l1), L2: l2}
}

// FastHit resolves addr through the L1 TLB's last-translation memo alone:
// it reports true — with the exact stats and LRU accounting of an L1
// Lookup hit — when addr's page is the one the L1 translated last, and
// false (with no accounting at all) otherwise, in which case the caller
// must run the full Translate. It lets the per-access translation hot
// path skip the hierarchy walk entirely for same-page runs. It inlines
// into its caller; with a shadow installed it declines, so that Translate
// takes the memo hit and reports it.
func (h *Hierarchy) FastHit(addr uint64) bool {
	t := h.L1
	return t.shadow == nil && t.memoHit(addr>>t.cfg.PageLog)
}

// Translate runs the full translation for addr and returns the added
// latency in cycles (0 for an L1 hit). Without a shadow it probes the L1
// index directly: hot-path callers have already tried FastHit, and an
// indexed L1 hit accounts exactly as a memo hit does.
func (h *Hierarchy) Translate(addr uint64) uint64 {
	l1 := h.L1
	vpn := addr >> l1.cfg.PageLog
	if (l1.shadow != nil && l1.fastHit(vpn)) || l1.lookup(vpn) {
		return 0
	}
	if h.L2.Lookup(addr) {
		h.L1.Insert(addr)
		return 5 // L2 TLB hit latency
	}
	// Page-table walk.
	h.Walks++
	h.WalkCycles += WalkLatency
	h.L2.Insert(addr)
	h.L1.Insert(addr)
	return WalkLatency
}
