package resultstore

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/soc"
	"cherisim/internal/workloads"
)

// TestAdmissionCacheServesWithoutDisk is the tentpole property: once a key
// is resident, loads never touch its file again. The test deletes the file
// outright — a served load therefore proves zero disk reads.
func TestAdmissionCacheServesWithoutDisk(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAdmissionCache(0)
	want := testEntry("hot")
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.Path(want.Key)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(want.Key)
	if !ok {
		t.Fatal("hot entry not served from the admission cache")
	}
	if c, _ := got.CountersFile(); got.Uops != want.Uops || c != [len(c)]uint64(want.Counters) {
		t.Error("cache-served entry differs from the saved one")
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats = %s", st)
	}

	// Each hit returns a private copy: mutating a served entry must not
	// leak into later loads.
	got.Uops = 1
	again, ok := s.Load(want.Key)
	if !ok || again.Uops != want.Uops {
		t.Error("cache hit aliased a previously served entry")
	}
}

// TestAdmissionCacheAdmitsOnRead covers the disk-read admission path: an
// entry written by another process (simulated by a fresh Store over the
// same dir) is admitted on its first read and served from memory after.
func TestAdmissionCacheAdmitsOnRead(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry("warm")
	if err := writer.Save(want); err != nil {
		t.Fatal(err)
	}

	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader.EnableAdmissionCache(0)
	if _, ok := reader.Load(want.Key); !ok {
		t.Fatal("disk entry did not load")
	}
	if err := os.Remove(reader.Path(want.Key)); err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.Load(want.Key); !ok {
		t.Fatal("entry not admitted on read")
	}
	st := reader.Stats()
	if st.Hits != 1 || st.MemHits != 1 {
		t.Errorf("stats = %s", st)
	}
}

// TestAdmissionCacheEviction bounds the cache: with a budget that holds
// roughly one encoded entry, older keys are evicted least-recently-used.
func TestAdmissionCacheEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := testEntry("evict-0")
	if err := s.Save(first); err != nil {
		t.Fatal(err)
	}
	size := int64(0)
	if fi, err := os.Stat(s.Path(first.Key)); err == nil {
		size = fi.Size()
	} else {
		t.Fatal(err)
	}

	s2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s2.EnableAdmissionCache(size + size/2) // room for one entry, not two
	a, b := testEntry("evict-a"), testEntry("evict-b")
	if err := s2.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s2.Save(b); err != nil {
		t.Fatal(err)
	}
	// a was evicted by b's admission: deleting both files, only b serves.
	if err := os.Remove(s2.Path(a.Key)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s2.Path(b.Key)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Load(a.Key); ok {
		t.Error("evicted entry still resident")
	}
	if _, ok := s2.Load(b.Key); !ok {
		t.Error("most-recent entry evicted")
	}

	// Oversized values are never admitted (they would evict everything).
	s3, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s3.EnableAdmissionCache(16)
	if err := s3.Save(testEntry("huge")); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Writes != 1 {
		t.Errorf("stats = %s", st)
	}
	if _, ok := s3.cache.get(testKey("huge")); ok {
		t.Error("oversized value admitted")
	}
}

// TestAdmissionCacheConcurrent hammers mixed save/load traffic over a
// small cache under -race.
func TestAdmissionCacheConcurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAdmissionCache(1 << 16)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("cc-%d", (g*50+i)%20)
				e := testEntry(name)
				if err := s.Save(e); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Load(e.Key); !ok {
					t.Errorf("just-saved %s missed", name)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// fullEntry is a co-run-shaped entry with every slice and pointer field
// populated (PCCFree aside, which is never persisted), so that sharing any
// of them between the cache and a caller shows up as aliasing.
func fullEntry(name string) *Entry {
	e := testEntry(name)
	e.Error = &StoredError{Class: "fault", Msg: "bounds fault", FaultKind: int(core.KindBounds),
		PC: 0x40, Addr: 0x1000, Op: "load", Cause: "out of bounds"}
	e.Revocations = []core.RevocationStats{{GranulesScanned: 9, CapsRevoked: 2, BytesReclaimed: 64}}
	e.Injected = []faultinject.Event{{Kind: faultinject.KindTagClear, Uop: 4096, Addr: 0x2000}}
	for i := 0; i < 2; i++ {
		r := testEntry(fmt.Sprintf("%s/%d", name, i)).CoreResult
		r.Error = &StoredError{Class: "deadline", Msg: "deadline", Uops: 10, Budget: 5}
		r.Revocations = []core.RevocationStats{{CapsRevoked: uint64(i + 1)}}
		e.Cores = append(e.Cores, r)
	}
	e.Fabric = &soc.FabricStats{
		Topology: soc.Topology{Kind: "mesh", Cores: 2, Slices: 2},
		Epochs:   3,
		Slices:   []soc.SliceStats{{Slice: 0, Accesses: 5}, {Slice: 1, Node: 1, Accesses: 6}},
		Links:    []soc.LinkStats{{From: 0, To: 1, Traversals: 4}},
		Cores:    []soc.CoreFabricStats{{Accesses: 5, StallCycles: 1.5}, {Accesses: 6, Hops: 4}},
	}
	e.Witness = &workloads.CanaryReport{Planted: true, Base: 0x3000, Words: 8, Seed: 7,
		WantSum: 1, GotSum: 2, BadWords: 1}
	e.Profile = &core.AttributionProfile{
		Functions: []core.FnAttribution{{Name: "vdbe_op", Uops: 100, Cycles: 250.5}},
		Residual:  core.FnAttribution{Name: "(residual)", Cycles: 0.25},
	}
	e.Profile.Totals[0] = 250.75
	return e
}

// unpopulated lists, by path, every nil pointer and empty slice reachable
// from v, skipping PCCFree.
func unpopulated(v reflect.Value, path string) []string {
	var out []string
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return []string{path}
		}
		return unpopulated(v.Elem(), path)
	case reflect.Slice:
		if v.Len() == 0 {
			return []string{path}
		}
		for i := 0; i < v.Len(); i++ {
			out = append(out, unpopulated(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Name != "PCCFree" {
				out = append(out, unpopulated(v.Field(i), path+"."+f.Name)...)
			}
		}
	}
	return out
}

// scribble overwrites every scalar reachable from v through pointers,
// slices, arrays and struct fields.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "~")
	}
}

// diskDecode loads k through a fresh, cacheless store over dir: exactly
// what a disk read of k's file returns.
func diskDecode(t *testing.T, dir string, k Key) *Entry {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Load(k)
	if !ok {
		t.Fatalf("%s did not load from disk", k.Name)
	}
	return e
}

// TestAdmissionCacheServesPrivateCopies: a memory hit equals a disk decode
// of the same bytes, and nothing it reaches is shared with the resident
// entry — scribbling over every slice element and pointer target of one hit
// leaves the next hit equal to the original.
func TestAdmissionCacheServesPrivateCopies(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAdmissionCache(0)
	saved := fullEntry("private")
	if err := s.Save(saved); err != nil {
		t.Fatal(err)
	}
	want := diskDecode(t, dir, saved.Key)
	if missing := unpopulated(reflect.ValueOf(want), "Entry"); len(missing) > 0 {
		t.Fatalf("fixture leaves reference fields empty after a round trip: %v", missing)
	}
	if err := os.Remove(s.Path(saved.Key)); err != nil {
		t.Fatal(err)
	}

	got, ok := s.Load(saved.Key)
	if !ok {
		t.Fatal("entry not served from memory")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memory hit differs from a disk decode:\n got %+v\nwant %+v", got, want)
	}
	scribble(reflect.ValueOf(got))
	if reflect.DeepEqual(got, want) {
		t.Fatal("scribble changed nothing")
	}
	again, ok := s.Load(saved.Key)
	if !ok {
		t.Fatal("entry not served from memory")
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("mutating one hit changed the next:\n got %+v\nwant %+v", again, want)
	}
	if st := s.Stats(); st.MemHits != 2 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats = %s", st)
	}
}

// TestAdmissionCacheNeverServesPCCFree: memory serves what a disk read
// would, so the in-memory-only PCCFree of a saved entry stays out.
func TestAdmissionCacheNeverServesPCCFree(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAdmissionCache(0)
	e := testEntry("pcc")
	e.PCCFree = testEntry("pcc-free")
	if err := s.Save(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(e.Key)
	if !ok || s.Stats().MemHits != 1 {
		t.Fatalf("entry not served from memory: %s", s.Stats())
	}
	if got.PCCFree != nil {
		t.Error("memory hit carries the saved entry's PCCFree")
	}
}

// TestAdmissionCacheOwnsItsEntries: the cache keeps its own entry, so
// mutating the entry handed to Save, or one a disk Load returned, after
// the call does not change what memory serves.
func TestAdmissionCacheOwnsItsEntries(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writer.EnableAdmissionCache(0)
	saved := fullEntry("owned")
	if err := writer.Save(saved); err != nil {
		t.Fatal(err)
	}
	want := diskDecode(t, dir, saved.Key)

	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader.EnableAdmissionCache(0)
	read, ok := reader.Load(saved.Key)
	if !ok || reader.Stats().Hits != 1 {
		t.Fatalf("entry not read from disk: %s", reader.Stats())
	}

	k := saved.Key
	scribble(reflect.ValueOf(saved))
	scribble(reflect.ValueOf(read))
	if err := os.Remove(writer.Path(k)); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"after Save": writer, "after a disk Load": reader} {
		got, ok := s.Load(k)
		if !ok || s.Stats().MemHits != 1 {
			t.Fatalf("%s: entry not served from memory: %s", name, s.Stats())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: memory serves a mutated entry:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
