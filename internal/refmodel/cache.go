// Package refmodel holds deliberately naive, obviously-correct reference
// implementations of the simulator's microarchitectural models: a
// set-associative cache with no MRU fast path and a two-pass victim scan,
// a fully-associative TLB with plain linear lookup (no hashed index, no
// last-translation memo), a heap owner index that scans every live range
// (no sorted table, no owner memo), a simulated memory that goes through
// its page map one byte at a time (no recent-page array, no in-place
// capability access), and CHERI Concentrate bounds compression in
// big-integer arithmetic so 2^64-boundary cases are exact.
//
// The implementations trade every optimization for legibility: division
// and modulo instead of shift-and-mask, separate full passes instead of
// fused scans, big.Int instead of carefully wrapped uint64. internal/check
// runs them in lockstep with the optimized models and reports the first
// divergence, which is what lets the hot paths keep being rewritten for
// speed while staying bit-identical.
package refmodel

import "cherisim/internal/cache"

// Cache is the reference set-associative cache. It implements the same
// semantics as cache.Cache — LRU replacement, write-back/write-allocate,
// per-set sequence-number LRU — with the most literal algorithm possible.
type Cache struct {
	cfg     cache.Config
	sets    [][]cache.LineState
	numSets int
	seq     uint64
	Stats   cache.Stats
}

// NewCache builds a reference cache with the same geometry as cache.New.
func NewCache(cfg cache.Config) *Cache {
	numSets := cfg.SizeBytes / (cfg.LineSize * cfg.Ways)
	sets := make([][]cache.LineState, numSets)
	for i := range sets {
		sets[i] = make([]cache.LineState, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets, numSets: numSets}
}

// index splits addr into set and tag with plain integer arithmetic.
func (c *Cache) index(addr uint64) (int, uint64) {
	lineAddr := addr / uint64(c.cfg.LineSize)
	return int(lineAddr % uint64(c.numSets)), lineAddr / uint64(c.numSets)
}

// Set returns the set index addr maps to.
func (c *Cache) Set(addr uint64) int {
	set, _ := c.index(addr)
	return set
}

// Access looks up addr, allocating on a miss, exactly as cache.Cache.Access
// specifies: hit updates LRU (and dirtiness on stores); a miss allocates
// into the first invalid way, else the least-recently-used way (earliest
// index on ties), reporting a write-back when the victim is dirty.
func (c *Cache) Access(addr uint64, write bool) cache.Result {
	c.Stats.Accesses++
	if write {
		c.Stats.WriteAcc++
	} else {
		c.Stats.ReadAcc++
	}
	c.seq++
	set, tag := c.index(addr)
	ways := c.sets[set]

	// Pass 1: hit scan.
	for i := range ways {
		if ways[i].Valid && ways[i].Tag == tag {
			ways[i].LRU = c.seq
			if write {
				ways[i].Dirty = true
			}
			return cache.Result{Hit: true}
		}
	}

	// Miss. Pass 2: first invalid way.
	c.Stats.Refills++
	if write {
		c.Stats.WriteMiss++
	} else {
		c.Stats.ReadMiss++
	}
	victim := -1
	for i := range ways {
		if !ways[i].Valid {
			victim = i
			break
		}
	}
	// Pass 3: least-recently-used way, earliest index winning ties.
	if victim < 0 {
		victim = 0
		for i := range ways {
			if ways[i].LRU < ways[victim].LRU {
				victim = i
			}
		}
	}
	res := cache.Result{}
	if v := ways[victim]; v.Valid && v.Dirty {
		c.Stats.WriteBacks++
		res.WriteBack = true
		res.WriteBackAddr = (v.Tag*uint64(c.numSets) + uint64(set)) * uint64(c.cfg.LineSize)
	}
	ways[victim] = cache.LineState{Tag: tag, Valid: true, Dirty: write, LRU: c.seq}
	return res
}

// Probe reports whether addr is present without touching LRU state or stats.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.Valid && l.Tag == tag {
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache, returning the dirty write-back count
// and adding it to Stats.WriteBacks, as cache.Cache.InvalidateAll does.
func (c *Cache) InvalidateAll() int {
	writeBacks := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].Valid && c.sets[s][w].Dirty {
				writeBacks++
			}
			c.sets[s][w] = cache.LineState{}
		}
	}
	c.Stats.WriteBacks += uint64(writeBacks)
	return writeBacks
}

// AppendSetState appends a snapshot of every way of the given set to dst.
func (c *Cache) AppendSetState(dst []cache.LineState, set int) []cache.LineState {
	return append(dst, c.sets[set]...)
}
