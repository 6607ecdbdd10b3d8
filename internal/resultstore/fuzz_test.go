package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreLoad hands a cache-fronted store arbitrary bytes as a key's
// entry file. Loading never panics; an entry it accepts answers for the
// key, and the next load serves that entry from memory unchanged.
func FuzzStoreLoad(f *testing.F) {
	e := fullEntry("fuzz")
	k := e.Key
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Save(e); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(s.Path(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	for _, at := range []int{2, len(seed) / 3, len(seed) / 2, len(seed) - 3} {
		flipped := bytes.Clone(seed)
		flipped[at] ^= 0x01
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"format":"cherisim-resultstore/1","sum":"","body":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s.EnableAdmissionCache(0)
		path := s.Path(k)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Load(k)
		if !ok {
			if st := s.Stats(); st.Misses != 1 || st.Corrupt != 1 {
				t.Fatalf("rejected entry: stats = %s, want 1 miss, 1 corrupt", st)
			}
			return
		}
		if !got.valid(k) {
			t.Fatalf("accepted entry does not answer for its key: %+v", got.Key)
		}
		again, ok := s.Load(k)
		if !ok || s.Stats().MemHits != 1 {
			t.Fatalf("accepted entry not served from memory: %s", s.Stats())
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("memory serves a different entry:\n got %+v\nwant %+v", again, got)
		}
	})
}
