package pmu

import "fmt"

// Slots is the number of simultaneously programmable counters on the
// Morello PMU (§3.2: "the platform only provides up to six configurable
// PMUs to be used at any time").
const Slots = 6

// CounterFile models the architectural counter file: a fixed cycle counter
// plus Slots programmable event counters. Reading an unprogrammed event is
// an error — this is what forces multiplexed collection across runs.
type CounterFile struct {
	programmed []Event
	values     map[Event]uint64
	cycles     uint64
}

// NewCounterFile programs a counter file with up to Slots events.
// CPU_CYCLES is always available through the fixed counter and does not
// consume a slot.
func NewCounterFile(events ...Event) (*CounterFile, error) {
	var prog []Event
	seen := map[Event]bool{}
	for _, e := range events {
		if e == CPU_CYCLES || seen[e] {
			continue
		}
		seen[e] = true
		prog = append(prog, e)
	}
	if len(prog) > Slots {
		return nil, fmt.Errorf("pmu: %d events requested, only %d programmable slots", len(prog), Slots)
	}
	return &CounterFile{programmed: prog, values: make(map[Event]uint64)}, nil
}

// Capture latches the programmed events (and cycles) from the simulator's
// ground-truth counters, as if the counters had been running during the
// measured interval.
func (f *CounterFile) Capture(truth *Counters) {
	f.cycles = truth.Get(CPU_CYCLES)
	for _, e := range f.programmed {
		f.values[e] = truth.Get(e)
	}
}

// Read returns the captured value of e, failing for unprogrammed events.
func (f *CounterFile) Read(e Event) (uint64, error) {
	if e == CPU_CYCLES {
		return f.cycles, nil
	}
	v, ok := f.values[e]
	if !ok {
		return 0, fmt.Errorf("pmu: event %s not programmed in this run", e)
	}
	return v, nil
}

// Programmed returns the programmed event list.
func (f *CounterFile) Programmed() []Event { return append([]Event(nil), f.programmed...) }

// Plan is a multiplexed collection schedule: one run per group, each group
// fitting in the counter file.
type Plan [][]Event

// BuildPlan splits events into the minimum number of run groups of at most
// Slots events each (CPU_CYCLES excluded; it is always collected). The
// resulting plan is deterministic: event order is preserved. A request
// with no programmable events still needs one run to read the fixed cycle
// counter, so its plan is a single empty group.
func BuildPlan(events []Event) Plan {
	var uniq []Event
	seen := map[Event]bool{}
	for _, e := range events {
		if e == CPU_CYCLES || seen[e] {
			continue
		}
		seen[e] = true
		uniq = append(uniq, e)
	}
	if len(uniq) == 0 {
		return Plan{{}}
	}
	var plan Plan
	for len(uniq) > 0 {
		n := Slots
		if len(uniq) < n {
			n = len(uniq)
		}
		plan = append(plan, uniq[:n:n])
		uniq = uniq[n:]
	}
	return plan
}

// Runs returns the number of benchmark executions the plan requires.
func (p Plan) Runs() int { return len(p) }

// Events returns every event in the plan, flattened.
func (p Plan) Events() []Event {
	var out []Event
	for _, g := range p {
		out = append(out, g...)
	}
	return out
}
