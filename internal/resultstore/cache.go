package resultstore

import (
	"container/list"
	"sync"
)

// DefaultCacheBytes is the admission-cache budget EnableAdmissionCache
// applies when given a non-positive size: enough for a few full campaign
// grids of encoded entries.
const DefaultCacheBytes = 64 << 20

// admissionCache is a bounded LRU of decoded entries keyed by Key: the
// in-memory tier in front of the disk store, so a hot cell is served
// without re-reading (or re-statting or re-parsing) its file. Entries enter
// only through decode — on save, the bytes just written; on a disk load,
// the bytes just read — so a resident entry passed the same checksum, key
// and structure validation a disk read does, and carries nothing a disk
// read would not (no PCCFree). A resident entry never leaves the cache:
// every hit returns a private deep copy (Entry.clone). The byte budget
// counts each entry's encoded envelope, as written to disk. All methods are
// nil-safe: a store without the cache enabled pays one pointer test.
type admissionCache struct {
	mu    sync.Mutex
	max   int64 // byte budget over encoded envelope sizes
	size  int64
	order *list.List // front = most recently used
	items map[Key]*list.Element
}

// cacheItem is one resident entry: the key (for eviction bookkeeping), the
// decoded entry, and the length of its encoded envelope (its budget cost).
type cacheItem struct {
	key   Key
	entry *Entry
	size  int64
}

// EnableAdmissionCache puts a bounded in-memory LRU in front of the store's
// disk reads: loads are served from memory when resident, and every
// successful save or disk load admits its entry. maxBytes <= 0 selects
// DefaultCacheBytes; the budget counts encoded entry bytes. Call before
// sharing the store; enabling is not synchronised with concurrent loads.
func (s *Store) EnableAdmissionCache(maxBytes int64) {
	if s == nil {
		return
	}
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	s.cache = &admissionCache{
		max:   maxBytes,
		order: list.New(),
		items: make(map[Key]*list.Element),
	}
}

// get returns a private copy of k's resident entry, refreshing its recency.
func (c *admissionCache) get(k Key) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[k]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheItem).entry
	c.mu.Unlock()
	return e.clone(), true
}

// put admits (or refreshes) k's decoded entry, whose encoded envelope is
// size bytes, evicting least-recently-used entries until the budget holds.
// Entries larger than the whole budget are not admitted. The cache takes
// ownership of e: callers must not retain or hand it out.
func (c *admissionCache) put(k Key, e *Entry, size int64) {
	if c == nil || size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		it := el.Value.(*cacheItem)
		c.size += size - it.size
		it.entry, it.size = e, size
		c.order.MoveToFront(el)
	} else {
		c.items[k] = c.order.PushFront(&cacheItem{key: k, entry: e, size: size})
		c.size += size
	}
	for c.size > c.max {
		el := c.order.Back()
		it := el.Value.(*cacheItem)
		c.order.Remove(el)
		delete(c.items, it.key)
		c.size -= it.size
	}
}
