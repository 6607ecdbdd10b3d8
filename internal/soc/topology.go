// Topology-aware SoC fabric: this file describes the network-on-chip —
// how cores and address-interleaved LLC slices are arranged on a mesh or
// ring, how requests route between them, and how per-epoch slice and link
// capacities price contention. The quad-core Morello SoC the paper
// measures (one shared 1 MB LLC, §2.2) is the fabric's default for four
// cores: a 2x2 mesh with four 256 KiB slices. Larger fabrics extend the
// methodology to datacenter core counts, where tag/bounds traffic crosses
// a real interconnect.

package soc

import (
	"fmt"
	"strings"

	"cherisim/internal/cache"
	"cherisim/internal/core"
)

// Topology kinds.
const (
	TopoMesh = "mesh"
	TopoRing = "ring"
)

// MaxCores bounds topology co-runs; the core salting scheme supports more
// (core.MaxCores), but beyond this the simulation is impractical anyway.
const MaxCores = 1024

// Default fabric parameters (see Topology field docs).
const (
	DefaultHopLatency    = 3
	DefaultQueuePenalty  = 8
	DefaultEpochCapacity = QuantumUops / 4
)

// Topology describes the SoC fabric: the NoC shape, the number of cores
// and LLC slices on it, per-hop routing latency, and the per-epoch
// capacities of slices and links beyond which queueing penalties accrue.
// The zero value of every optional field selects a documented default via
// WithDefaults.
type Topology struct {
	// Kind is TopoMesh (near-square 2D grid, XY routing) or TopoRing
	// (bidirectional ring, shortest direction, ties clockwise).
	Kind string `json:"kind"`
	// Cores is the number of N1-like cores (1..MaxCores). Each core
	// occupies one node of the fabric.
	Cores int `json:"cores"`
	// Slices is the number of address-interleaved LLC slices, a power of
	// two. 0 derives the largest power of two <= Cores, so the directory
	// spreads across the fabric. Slices are placed evenly across nodes.
	Slices int `json:"slices"`
	// HopLatency is the per-hop NoC traversal cost in cycles added to
	// every slice access (0 = DefaultHopLatency).
	HopLatency uint64 `json:"hop_latency"`
	// SliceCapacity and LinkCapacity are the events one slice (or link)
	// serves per scheduling epoch before queueing; overflow is charged to
	// the cores that drove the traffic, proportionally
	// (0 = DefaultEpochCapacity).
	SliceCapacity int `json:"slice_capacity"`
	LinkCapacity  int `json:"link_capacity"`
	// QueuePenalty is the cycles charged per over-capacity event
	// (0 = DefaultQueuePenalty).
	QueuePenalty uint64 `json:"queue_penalty"`
}

// TopologyError is a structured topology-validation failure.
type TopologyError struct {
	Field string
	Msg   string
}

func (e *TopologyError) Error() string { return fmt.Sprintf("soc: topology %s: %s", e.Field, e.Msg) }

// ParseTopologyKind validates a topology name from the CLI.
func ParseTopologyKind(s string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case TopoMesh:
		return TopoMesh, nil
	case TopoRing:
		return TopoRing, nil
	default:
		return "", &TopologyError{Field: "kind", Msg: fmt.Sprintf("unknown topology %q (want %s or %s)", s, TopoMesh, TopoRing)}
	}
}

// WithDefaults returns the topology with every zero optional field
// replaced by its documented default.
func (t Topology) WithDefaults() Topology {
	if t.Slices == 0 {
		t.Slices = prevPow2(t.Cores)
	}
	if t.HopLatency == 0 {
		t.HopLatency = DefaultHopLatency
	}
	if t.SliceCapacity == 0 {
		t.SliceCapacity = DefaultEpochCapacity
	}
	if t.LinkCapacity == 0 {
		t.LinkCapacity = DefaultEpochCapacity
	}
	if t.QueuePenalty == 0 {
		t.QueuePenalty = DefaultQueuePenalty
	}
	return t
}

// Validate checks the (defaulted) topology for structural errors.
func (t Topology) Validate() error {
	if _, err := ParseTopologyKind(t.Kind); err != nil {
		return err
	}
	if t.Cores < 1 || t.Cores > MaxCores {
		return &TopologyError{Field: "cores", Msg: fmt.Sprintf("core count %d outside [1, %d]", t.Cores, MaxCores)}
	}
	if t.Slices < 1 || t.Slices&(t.Slices-1) != 0 {
		return &TopologyError{Field: "slices", Msg: fmt.Sprintf("slice count %d is not a power of two", t.Slices)}
	}
	if t.Slices > t.Cores {
		return &TopologyError{Field: "slices", Msg: fmt.Sprintf("%d slices exceed %d fabric nodes", t.Slices, t.Cores)}
	}
	if t.SliceCapacity < 1 || t.LinkCapacity < 1 {
		return &TopologyError{Field: "capacity", Msg: "slice/link epoch capacities must be positive"}
	}
	return nil
}

// Fingerprint canonically encodes everything about the topology that
// shapes results — the result store folds it into co-run keys.
func (t Topology) Fingerprint() string {
	return fmt.Sprintf("%s:c%d:s%d:h%d:sc%d:lc%d:q%d",
		t.Kind, t.Cores, t.Slices, t.HopLatency, t.SliceCapacity, t.LinkCapacity, t.QueuePenalty)
}

// SliceCacheConfig derives the geometry of one LLC slice from the base
// (per-quad) LLC configuration: the aggregate LLC grows with the core
// count — one base-sized LLC per four cores, as on the quad-core Morello —
// and is then divided across the address-interleaved slices. Returns a
// *TopologyError when the division leaves a slice without a power-of-two
// set count.
func (t Topology) SliceCacheConfig(base cache.Config) (cache.Config, error) {
	quads := nextPow2((t.Cores + 3) / 4)
	total := base.SizeBytes * quads
	sliceBytes := total / t.Slices
	sets := sliceBytes / (base.LineSize * base.Ways)
	if sets < 1 || sets&(sets-1) != 0 {
		return cache.Config{}, &TopologyError{Field: "slices", Msg: fmt.Sprintf(
			"%d slices of the %d-byte aggregate LLC leave %d sets per slice (want a power of two >= 1)",
			t.Slices, total, sets)}
	}
	cfg := base
	cfg.Name = "LLC-slice"
	cfg.SizeBytes = sliceBytes
	return cfg, nil
}

// geometry is the compiled placement and routing of a topology: node
// coordinates, slice homes, per-(core, slice) routes and hop counts, and
// the enumerated directed links.
type geometry struct {
	topo      Topology
	w, h      int   // mesh grid (ring: w=cores, h=1)
	sliceNode []int // home node of each slice
	// routes[core*slices+slice] lists the directed link indices (into
	// links) a request traverses; hops is len(route).
	routes [][]int32
	links  []linkEnd
}

// linkEnd is one directed NoC link between adjacent nodes.
type linkEnd struct{ From, To int }

// compile builds the geometry for a validated topology.
func compile(t Topology) *geometry {
	g := &geometry{topo: t}
	switch t.Kind {
	case TopoRing:
		g.w, g.h = t.Cores, 1
	default: // mesh: near-square grid, width >= height
		g.w = 1
		for g.w*g.w < t.Cores {
			g.w++
		}
		g.h = (t.Cores + g.w - 1) / g.w
	}

	// Slice homes: spread evenly across the nodes in node order.
	g.sliceNode = make([]int, t.Slices)
	for s := range g.sliceNode {
		g.sliceNode[s] = s * t.Cores / t.Slices
	}

	// Enumerate directed links once, in (from, to) order, and index them.
	linkIdx := map[linkEnd]int32{}
	addLink := func(from, to int) int32 {
		e := linkEnd{From: from, To: to}
		if i, ok := linkIdx[e]; ok {
			return i
		}
		i := int32(len(g.links))
		g.links = append(g.links, e)
		linkIdx[e] = i
		return i
	}
	// Deterministic link numbering: walk nodes in order, neighbors in a
	// fixed direction order.
	for n := 0; n < t.Cores; n++ {
		for _, nb := range g.neighbors(n) {
			addLink(n, nb)
		}
	}

	g.routes = make([][]int32, t.Cores*t.Slices)
	for c := 0; c < t.Cores; c++ {
		for s := 0; s < t.Slices; s++ {
			g.routes[c*t.Slices+s] = g.route(c, g.sliceNode[s], linkIdx)
		}
	}
	return g
}

// neighbors returns a node's adjacent nodes in fixed (+x, -x, +y, -y) /
// (cw, ccw) order.
func (g *geometry) neighbors(n int) []int {
	if g.topo.Kind == TopoRing {
		c := g.topo.Cores
		if c == 1 {
			return nil
		}
		if c == 2 {
			return []int{(n + 1) % 2}
		}
		return []int{(n + 1) % c, (n - 1 + c) % c}
	}
	var out []int
	x, y := n%g.w, n/g.w
	present := func(x, y int) (int, bool) {
		id := y*g.w + x
		return id, x >= 0 && x < g.w && y >= 0 && y < g.h && id < g.topo.Cores
	}
	for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		if id, ok := present(x+d[0], y+d[1]); ok {
			out = append(out, id)
		}
	}
	return out
}

// route returns the directed links from node `from` to node `to`:
// XY (x first, then y) on the mesh, shortest direction (ties clockwise)
// on the ring.
func (g *geometry) route(from, to int, linkIdx map[linkEnd]int32) []int32 {
	if from == to {
		return nil
	}
	var path []int32
	step := func(next int) {
		i, ok := linkIdx[linkEnd{From: from, To: next}]
		if !ok {
			panic(fmt.Sprintf("soc: route step %d->%d crosses a non-existent link", from, next))
		}
		path = append(path, i)
		from = next
	}
	if g.topo.Kind == TopoRing {
		c := g.topo.Cores
		cw := (to - from + c) % c
		ccw := (from - to + c) % c
		dir := 1
		if ccw < cw {
			dir = -1
		}
		for from != to {
			step((from + dir + c) % c)
		}
		return path
	}
	moveX := func() {
		for from%g.w != to%g.w {
			if to%g.w > from%g.w {
				step(from + 1)
			} else {
				step(from - 1)
			}
		}
	}
	moveY := func() {
		for from/g.w != to/g.w {
			if to/g.w > from/g.w {
				step(from + g.w)
			} else {
				step(from - g.w)
			}
		}
	}
	// XY (x first) routing, except when the turn corner (to's column in
	// from's row) falls on a hole of a ragged last row — then YX. The
	// corner always exists on one of the two orders: rows below the last
	// are full, and two last-row nodes route within their own row.
	if corner := (from/g.w)*g.w + to%g.w; corner < g.topo.Cores {
		moveX()
		moveY()
	} else {
		moveY()
		moveX()
	}
	return path
}

// prevPow2 returns the largest power of two <= v (v >= 1).
func prevPow2(v int) int {
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
}

// nextPow2 returns the smallest power of two >= v (v >= 1).
func nextPow2(v int) int {
	p := 1
	for p < v {
		p *= 2
	}
	return p
}

// validateTopoSpecs checks the spec list against the topology: the list
// must fill the fabric exactly and agree on LLC geometry (the slices are
// carved from it) and on the salting constraint.
func validateTopoSpecs(topo Topology, specs []CoreSpec) error {
	if len(specs) != topo.Cores {
		return &TopologyError{Field: "cores", Msg: fmt.Sprintf("%d specs for a %d-core fabric", len(specs), topo.Cores)}
	}
	if topo.Cores > core.MaxCores {
		return &TopologyError{Field: "cores", Msg: fmt.Sprintf("%d cores exceed the %d-core salting range", topo.Cores, core.MaxCores)}
	}
	return validateLLCGeometry(specs)
}
