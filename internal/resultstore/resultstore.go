// Package resultstore is the engine's persistent, content-addressed cache
// of measurement results. The paper publishes its measurement data so
// results can be re-checked across runs and versions; this store is the
// simulator's equivalent: every supervised run (and every soc co-run, as a
// unit) is keyed by a hash of what fully determines it — workload, ABI,
// scale, the effective machine configuration, the supervisor's chaos
// schedule, and a model-version fingerprint — and persisted so a warm
// campaign serves results from disk instead of re-simulating.
//
// Robustness rules:
//
//   - Writes are atomic (write-temp-then-rename), so a crashed or killed
//     campaign never leaves a half-written entry under a valid name.
//   - Every entry carries a checksum over its payload; loads verify it and
//     re-verify the key, so a truncated, bit-flipped or misfiled entry is
//     treated as a miss (re-simulated and rewritten), never a wrong result.
//   - The model fingerprint folds core.ModelVersion and the cost-model
//     constants into every key: entries written by an older simulator are
//     simply never looked up again.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"cherisim/internal/alloc"
	"cherisim/internal/branch"
	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/pmu"
	"cherisim/internal/soc"
	"cherisim/internal/workloads"
)

// format is the on-disk envelope identifier; bump on layout changes.
const format = "cherisim-resultstore/1"

// Entry kinds.
const (
	// KindRun is one supervised (workload, ABI) session run.
	KindRun = "run"
	// KindKernel is one custom-machine kernel run (experiments that build
	// machines outside the workload registry: sweeps, compartments).
	KindKernel = "kernel"
	// KindCoRun is one co-run on the SoC fabric (mesh/ring sliced LLC),
	// stored as a unit: every core's counter file plus the fabric's
	// slice/link accounting. The topology fingerprint is folded into
	// Key.Config so a fabric-parameter change re-runs instead of
	// replaying a different machine's results.
	KindCoRun = "corun"
	// KindProfile is one profiled (workload, ABI) run: the counter file
	// plus the full per-function attribution profile. Profiled runs key
	// separately from KindRun because they execute live with attribution
	// enabled; the attribution layout version is folded into Key.Config so
	// a schema change re-profiles instead of mis-decoding.
	KindProfile = "profile"
)

// Key identifies one stored result. Equal keys address equal content: two
// runs with the same key are bit-identical by the engine's determinism
// guarantee, so the store never needs invalidation — only keys that stop
// being asked for.
type Key struct {
	// Kind is one of KindRun, KindKernel, KindCoRun.
	Kind string `json:"kind"`
	// Name is the workload name (runs) or the caller-chosen id naming the
	// kernel or co-run including its parameters.
	Name string `json:"name"`
	// ABI is the ABI name for runs; empty for kernels and co-runs (their
	// Config fingerprint covers it).
	ABI string `json:"abi,omitempty"`
	// Scale is the session's workload scale factor.
	Scale int `json:"scale"`
	// Config fingerprints the effective machine configuration(s) — see
	// ConfigFingerprint.
	Config string `json:"config"`
	// Supervisor fingerprints the session supervision that shapes the
	// result (chaos seed/rate/kinds, deadline, retries); empty for an
	// unsupervised run.
	Supervisor string `json:"supervisor,omitempty"`
	// Model is the simulator fingerprint — see ModelFingerprint.
	Model string `json:"model"`
}

// canonical returns the key's canonical encoding, the hash preimage.
func (k Key) canonical() string {
	return fmt.Sprintf("%s|%q|%q|scale=%d|cfg=%s|sup=%s|model=%s",
		k.Kind, k.Name, k.ABI, k.Scale, k.Config, k.Supervisor, k.Model)
}

// Hash returns the key's content address (hex SHA-256 of the canonical
// encoding).
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.canonical()))
	return hex.EncodeToString(sum[:])
}

// StoredError is a serialisable snapshot of a run error, rich enough that
// reconstruction is render-identical: the error string, the structured
// class, and the fields consumers inspect through errors.As.
type StoredError struct {
	// Class is "fault", "deadline", "panic" or "error".
	Class string `json:"class"`
	// Msg is the original Error() string (used verbatim for plain errors;
	// structured classes re-derive it from their fields).
	Msg string `json:"msg"`

	// Fault fields (Class == "fault").
	FaultKind int    `json:"fault_kind,omitempty"`
	PC        uint64 `json:"pc,omitempty"`
	Addr      uint64 `json:"addr,omitempty"`
	Op        string `json:"op,omitempty"`
	Cause     string `json:"cause,omitempty"`
	Transient bool   `json:"transient,omitempty"`

	// Deadline fields (Class == "deadline").
	Uops   uint64 `json:"uops,omitempty"`
	Budget uint64 `json:"budget,omitempty"`

	// Panic fields (Class == "panic"); Uops is shared with deadline.
	Workload string `json:"workload,omitempty"`
	Value    string `json:"value,omitempty"`
}

// EncodeError snapshots err for storage; nil in, nil out.
func EncodeError(err error) *StoredError {
	if err == nil {
		return nil
	}
	se := &StoredError{Class: "error", Msg: err.Error()}
	var f *core.Fault
	var de *core.DeadlineError
	var pe *core.PanicError
	switch {
	case errors.As(err, &f):
		se.Class = "fault"
		se.FaultKind = int(f.Kind)
		se.PC, se.Addr, se.Op, se.Transient = f.PC, f.Addr, f.Op, f.Transient
		if f.Cause != nil {
			se.Cause = f.Cause.Error()
		}
	case errors.As(err, &de):
		se.Class = "deadline"
		se.Uops, se.Budget = de.Uops, de.Budget
	case errors.As(err, &pe):
		se.Class = "panic"
		se.Workload, se.Uops = pe.Workload, pe.Uops
		se.Value = fmt.Sprint(pe.Value)
	}
	return se
}

// Reconstruct rebuilds the run error. Structured classes come back as the
// concrete core types (so errors.As and the renderers behave identically);
// the error string is byte-identical to the original.
func (se *StoredError) Reconstruct() error {
	if se == nil {
		return nil
	}
	switch se.Class {
	case "fault":
		return &core.Fault{
			Kind: core.FaultKind(se.FaultKind), PC: se.PC, Addr: se.Addr,
			Op: se.Op, Transient: se.Transient, Cause: errors.New(se.Cause),
		}
	case "deadline":
		return &core.DeadlineError{Uops: se.Uops, Budget: se.Budget}
	case "panic":
		return &core.PanicError{Workload: se.Workload, Value: se.Value, Uops: se.Uops}
	default:
		return errors.New(se.Msg)
	}
}

// CoreResult is one machine's stored outcome — the retained state every
// renderer consumes (counters, heap statistics, µop count, revocation
// sweeps, and the terminating error, if any). Derived metrics are
// recomputed on load, so an entry can never disagree with the formulas of
// the simulator that serves it.
type CoreResult struct {
	// Counters is the full PMU counter file (len == pmu.NumEvents; the
	// model fingerprint pins the event set, and loads re-validate).
	Counters []uint64 `json:"counters,omitempty"`
	// Machine records whether a machine produced the fields above (a
	// panicking run can finish with no machine at all; its zero counters
	// must not be mistaken for a measured all-zero file).
	Machine     bool                   `json:"machine"`
	Heap        alloc.Stats            `json:"heap"`
	Uops        uint64                 `json:"uops"`
	Error       *StoredError           `json:"error,omitempty"`
	Revocations []core.RevocationStats `json:"revocations,omitempty"`
}

// SetCounters stores a counter file.
func (r *CoreResult) SetCounters(c *pmu.Counters) {
	r.Counters = append([]uint64(nil), c[:]...)
	r.Machine = true
}

// CountersFile rebuilds the counter file; false when absent or mis-sized.
func (r *CoreResult) CountersFile() (pmu.Counters, bool) {
	var c pmu.Counters
	if !r.Machine || len(r.Counters) != int(pmu.NumEvents) {
		return c, false
	}
	copy(c[:], r.Counters)
	return c, true
}

// Entry is one stored result: a run or kernel uses the embedded
// CoreResult plus the supervision fields; a co-run stores one CoreResult
// per core, as a unit.
type Entry struct {
	Key Key `json:"key"`
	CoreResult
	// Attempts counts supervised executions (see experiments.RunData).
	Attempts int `json:"attempts,omitempty"`
	// Injected lists the final attempt's fault injections.
	Injected []faultinject.Event `json:"injected,omitempty"`
	// Cores holds the per-core results of a co-run unit.
	Cores []CoreResult `json:"cores,omitempty"`
	// Fabric holds the topology co-run accounting of a KindCoRun unit:
	// the NoC shape plus per-slice, per-link and per-core fabric counters.
	// It round-trips bit-exactly, so a warm scale render (including its
	// reconciliation line) is byte-identical to the cold one.
	Fabric *soc.FabricStats `json:"fabric,omitempty"`
	// Witness is the corruption witness of an attack-corpus run (see
	// internal/attacks); warm security verdicts must reproduce the cold
	// run's canary mismatch detail exactly.
	Witness *workloads.CanaryReport `json:"witness,omitempty"`
	// Profile is the per-function attribution of a KindProfile entry.
	// Attribution values round-trip bit-exactly: float64s marshal at
	// shortest-unique precision and parse back to the same bits, so a warm
	// hotspot report (and its conservation reconcile) is byte-identical to
	// the cold one.
	Profile *core.AttributionProfile `json:"profile,omitempty"`
	// PCCFree is, in memory only, the result this entry's run gives
	// without its PCC-bounds stall term (core.Machine.PCCFreeCounters,
	// AttributionProfile.WithoutPCC): the outcome of the same run under
	// purecap-benchmark, or on a PCC-tracking predictor. It has no key of
	// its own and is never persisted.
	PCCFree *Entry `json:"-"`
}

// clone returns a deep copy of a decoded entry: every slice and pointer is
// copied (slices.Clone keeps nil slices nil, so the copy is
// reflect.DeepEqual to e), and nothing the copy reaches is shared with e.
// Decoded entries carry no PCCFree, so there is none to copy.
func (e *Entry) clone() *Entry {
	c := *e
	c.CoreResult = e.CoreResult.clone()
	c.Injected = slices.Clone(e.Injected)
	if e.Cores != nil {
		c.Cores = make([]CoreResult, len(e.Cores))
		for i := range e.Cores {
			c.Cores[i] = e.Cores[i].clone()
		}
	}
	if e.Fabric != nil {
		f := *e.Fabric
		f.Slices = slices.Clone(f.Slices)
		f.Links = slices.Clone(f.Links)
		f.Cores = slices.Clone(f.Cores)
		c.Fabric = &f
	}
	if e.Witness != nil {
		w := *e.Witness
		c.Witness = &w
	}
	if e.Profile != nil {
		p := *e.Profile
		p.Functions = slices.Clone(p.Functions)
		c.Profile = &p
	}
	return &c
}

// clone returns a deep copy of r.
func (r CoreResult) clone() CoreResult {
	r.Counters = slices.Clone(r.Counters)
	r.Revocations = slices.Clone(r.Revocations)
	if r.Error != nil {
		se := *r.Error
		r.Error = &se
	}
	return r
}

// valid performs the structural checks a load must pass beyond the
// checksum: the entry answers for the requested key and its counter files
// match the current PMU event set.
func (e *Entry) valid(want Key) bool {
	if e.Key != want {
		return false
	}
	ok := func(r *CoreResult) bool {
		return !r.Machine || len(r.Counters) == int(pmu.NumEvents)
	}
	if !ok(&e.CoreResult) {
		return false
	}
	for i := range e.Cores {
		if !ok(&e.Cores[i]) {
			return false
		}
	}
	return true
}

// envelope is the on-disk wrapper: a format tag and a checksum over the
// exact payload bytes.
type envelope struct {
	Format string          `json:"format"`
	Sum    string          `json:"sum"`
	Body   json.RawMessage `json:"body"`
}

// Stats counts store traffic since Open.
type Stats struct {
	Hits    uint64 // entries served from disk
	Misses  uint64 // lookups that fell through to simulation
	Writes  uint64 // entries persisted
	Corrupt uint64 // entries rejected by checksum/structure validation
	// MemHits counts entries served from the in-memory admission cache
	// without touching disk (always 0 when the cache is not enabled).
	MemHits uint64
	// Errors counts reads that failed for a reason other than absence
	// (permissions, IO): still a miss for the caller, but a signal that the
	// store is unhealthy rather than merely cold.
	Errors uint64
	// WriteErrors counts failed Save calls: persistence is best-effort, but
	// a long-running service must be able to see that it is permanently
	// cold-starting because every write fails.
	WriteErrors uint64
}

// saveStripes is the number of independent Save locks. Saves of distinct
// keys proceed in parallel (the two-level hh/ shard layout and unique temp
// names make them file-disjoint); the stripe only collapses redundant
// concurrent writes of the same key onto one file at a time.
const saveStripes = 64

// Store is a disk-backed content-addressed result cache rooted at one
// directory. The zero/nil Store is inert: every load misses (uncounted)
// and every save is a no-op, so callers thread an optional store without
// nil checks. Store is safe for concurrent use — distinct keys map to
// distinct files, and same-key writers race only on atomic renames of
// identical content.
type Store struct {
	dir string

	hits, misses, writes, corrupt atomic.Uint64
	memHits, errs, writeErrs      atomic.Uint64
	locks                         [saveStripes]sync.Mutex // per-key-stripe write locks
	cache                         *admissionCache         // nil until EnableAdmissionCache
}

// stripe returns the Save lock shard for a key hash. The first two hex
// digits (the directory shard) spread uniformly over the stripes, so keys
// in different shard directories almost never contend.
func (s *Store) stripe(hash string) *sync.Mutex {
	return &s.locks[(hash[0]<<4|hash[1])%saveStripes]
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory ("" for the nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Path returns the file an entry for k lives at. Entries shard by the
// first address byte to keep directories shallow at campaign scale.
func (s *Store) Path(k Key) string {
	h := k.Hash()
	return filepath.Join(s.dir, h[:2], h+".json")
}

// Load returns the stored entry for k, or (nil, false) on any failure —
// absence, truncation, checksum mismatch, malformed JSON, format or key
// mismatch. Corruption is never an error: the caller re-simulates and the
// rewrite replaces the bad file. Read failures other than absence
// (permissions, IO) additionally count on Stats.Errors — a mis-permissioned
// store must not look like a merely cold one. With the admission cache
// enabled, hot keys are served from memory without touching the file: a
// disk load admits the entry it decoded, and every memory hit returns a
// private deep copy of it, equal to what a disk read would decode. The
// caller owns the returned entry either way.
func (s *Store) Load(k Key) (*Entry, bool) {
	if s == nil {
		return nil, false
	}
	if e, ok := s.cache.get(k); ok {
		s.memHits.Add(1)
		return e, true
	}
	raw, err := os.ReadFile(s.Path(k))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.errs.Add(1)
		}
		s.misses.Add(1)
		return nil, false
	}
	e, ok := decode(raw, k)
	if !ok {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	if s.cache != nil {
		s.cache.put(k, e, int64(len(raw)))
		e = e.clone()
	}
	s.hits.Add(1)
	return e, true
}

// decode parses and validates one entry file against the requested key.
func decode(raw []byte, want Key) (*Entry, bool) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Format != format {
		return nil, false
	}
	sum := sha256.Sum256(env.Body)
	if hex.EncodeToString(sum[:]) != env.Sum {
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(env.Body, &e); err != nil {
		return nil, false
	}
	if !e.valid(want) {
		return nil, false
	}
	return &e, true
}

// Save persists e under its key, atomically: the entry is written to a
// temp file in the same directory and renamed into place, so a reader (or
// a crash) never observes a partial entry. Writes hold only a per-key
// stripe lock, so saves of distinct keys proceed in parallel; every failure
// counts on Stats.WriteErrors before it is returned.
func (s *Store) Save(e *Entry) error {
	if s == nil {
		return nil
	}
	err := s.save(e)
	if err != nil {
		s.writeErrs.Add(1)
	}
	return err
}

func (s *Store) save(e *Entry) error {
	body, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", e.Key.Name, err)
	}
	sum := sha256.Sum256(body)
	data, err := json.Marshal(envelope{Format: format, Sum: hex.EncodeToString(sum[:]), Body: body})
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", e.Key.Name, err)
	}
	hash := e.Key.Hash()
	path := filepath.Join(s.dir, hash[:2], hash+".json")

	mu := s.stripe(hash)
	mu.Lock()
	defer mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: write %s: %w", e.Key.Name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: write %s: %w", e.Key.Name, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: commit %s: %w", e.Key.Name, err)
	}
	if s.cache != nil {
		// Admit what a disk read of these bytes would return, not e itself:
		// the caller keeps e, and in-memory state (PCCFree) stays out.
		if d, ok := decode(data, e.Key); ok {
			s.cache.put(e.Key, d, int64(len(data)))
		}
	}
	s.writes.Add(1)
	return nil
}

// Stats returns the traffic counters (zero for the nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Corrupt:     s.corrupt.Load(),
		MemHits:     s.memHits.Load(),
		Errors:      s.errs.Load(),
		WriteErrors: s.writeErrs.Load(),
	}
}

// String renders the traffic counters in the stable form the CLI prints
// and CI parses; the service-era counters (admission cache, read/write
// errors) extend the line without disturbing the original prefix.
func (st Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d writes, %d corrupt, %d mem hits, %d read errors, %d write errors",
		st.Hits, st.Misses, st.Writes, st.Corrupt, st.MemHits, st.Errors, st.WriteErrors)
}

var (
	modelOnce sync.Once
	modelFP   string
)

// ModelFingerprint identifies the simulator semantics an entry was
// produced under: core.ModelVersion plus the cost-model constants and the
// PMU event-set size, hashed. Any change to these invalidates every store
// key and flags every golden baseline as from-another-model.
func ModelFingerprint() string {
	modelOnce.Do(func() {
		h := sha256.New()
		fmt.Fprintf(h, "model=%s|clock=%g|pmu=%d|mispredict=%d|pccstall=%d|capjump=%g|socquantum=%d|fiquantum=%d",
			core.ModelVersion, core.ClockHz, pmu.NumEvents,
			branch.MispredictPenalty, branch.PCCStallPenalty, branch.CapJumpCost,
			soc.QuantumUops, faultinject.DefaultQuantum)
		modelFP = core.ModelVersion + "+" + hex.EncodeToString(h.Sum(nil))[:16]
	})
	return modelFP
}

// ConfigFingerprint canonically hashes an effective machine configuration
// (a plain value struct, so the Go literal syntax is a stable encoding).
func ConfigFingerprint(cfg core.Config) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", cfg)))
	return hex.EncodeToString(sum[:])[:16]
}
