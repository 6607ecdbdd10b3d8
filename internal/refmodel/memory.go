package refmodel

import (
	"sort"

	"cherisim/internal/cap"
	"cherisim/internal/mem"
)

// Memory is the reference simulated memory: a map from page number to
// page bytes plus a map of set tags, touched one byte at a time, with no
// recently-used page array and no in-place fast paths. A page exists once
// any byte on it has been written, which is what mem.Memory.Populated
// counts. Addresses wrap modulo 2^64, as the optimized model's do.
type Memory struct {
	pages map[uint64]*[mem.PageSize]byte
	tags  map[uint64]bool // granule base -> tag set
}

// NewMemory returns an empty reference memory.
func NewMemory() *Memory {
	return &Memory{pages: map[uint64]*[mem.PageSize]byte{}, tags: map[uint64]bool{}}
}

func granule(addr uint64) uint64 { return addr / cap.TagGranule * cap.TagGranule }

// load reads one data byte; unwritten bytes read 0.
func (m *Memory) load(addr uint64) byte {
	if p := m.pages[addr/mem.PageSize]; p != nil {
		return p[addr%mem.PageSize]
	}
	return 0
}

// store writes one data byte; a data store always clears its granule's tag.
func (m *Memory) store(addr uint64, b byte) {
	p := m.pages[addr/mem.PageSize]
	if p == nil {
		p = new([mem.PageSize]byte)
		m.pages[addr/mem.PageSize] = p
	}
	p[addr%mem.PageSize] = b
	delete(m.tags, granule(addr))
}

// ReadBytes returns size bytes starting at addr; unwritten bytes read 0.
func (m *Memory) ReadBytes(addr, size uint64) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = m.load(addr + uint64(i))
	}
	return out
}

// WriteBytes stores b at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for i, v := range b {
		m.store(addr+uint64(i), v)
	}
}

// ReadUint reads a little-endian unsigned integer of size bytes.
func (m *Memory) ReadUint(addr, size uint64) uint64 {
	var v uint64
	for i := uint64(0); i < size; i++ {
		v |= uint64(m.load(addr+i)) << (8 * i)
	}
	return v
}

// WriteUint writes the low size bytes of val, little-endian.
func (m *Memory) WriteUint(addr, val, size uint64) {
	for i := uint64(0); i < size; i++ {
		m.store(addr+i, byte(val>>(8*i)))
	}
}

// WriteCap stores a capability image at a 16-byte-aligned address and sets
// its granule's tag to tag. It reports false for an unaligned address,
// which stores nothing.
func (m *Memory) WriteCap(addr uint64, e cap.Encoded, tag bool) bool {
	if addr%cap.Size != 0 {
		return false
	}
	m.WriteUint(addr, e.Addr, 8)
	m.WriteUint(addr+8, e.Meta, 8)
	if tag {
		m.tags[addr] = true
	}
	return true
}

// ReadCap loads the capability image and tag at a 16-byte-aligned
// address. It reports false for an unaligned address.
func (m *Memory) ReadCap(addr uint64) (e cap.Encoded, tag, ok bool) {
	if addr%cap.Size != 0 {
		return cap.Encoded{}, false, false
	}
	return cap.Encoded{Addr: m.ReadUint(addr, 8), Meta: m.ReadUint(addr+8, 8)}, m.tags[addr], true
}

// TagAt reports the tag of the granule containing addr.
func (m *Memory) TagAt(addr uint64) bool { return m.tags[granule(addr)] }

// ClearTag clears the tag of the granule containing addr and reports
// whether it was set.
func (m *Memory) ClearTag(addr uint64) bool {
	was := m.tags[granule(addr)]
	delete(m.tags, granule(addr))
	return was
}

// Populated returns the number of pages holding written bytes.
func (m *Memory) Populated() int { return len(m.pages) }

// ForEachTaggedGranule invokes fn for every granule whose tag is set, in
// ascending address order.
func (m *Memory) ForEachTaggedGranule(fn func(addr uint64)) {
	gs := make([]uint64, 0, len(m.tags))
	for g := range m.tags {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	for _, g := range gs {
		fn(g)
	}
}
