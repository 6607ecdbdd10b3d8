package core

import (
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/cache"
)

// cachePort is an LLCPort over one cache.Cache, standing in for a fabric
// slice every core shares.
type cachePort struct{ c *cache.Cache }

func (p cachePort) Access(addr uint64, write bool) (bool, uint64) {
	return p.c.Access(addr, write).Hit, 0
}

// TestShareLLCSaltCollisionFree is the regression test for the salt
// overflow bug: the old scheme (coreID << 56) wrapped to zero at core 256,
// so core 256 silently shared core 0's lines in the shared LLC. Two cores
// whose salted addresses collided under the old scheme must now occupy
// distinct LLC lines.
func TestShareLLCSaltCollisionFree(t *testing.T) {
	shared := cache.New(cache.LLCConfig)
	m0 := New(abi.Hybrid)
	m256 := New(abi.Hybrid)
	m0.ShareLLCPort(cachePort{shared}, 0)
	m256.ShareLLCPort(cachePort{shared}, 256)

	if m0.llcSalt == m256.llcSalt {
		t.Fatalf("cores 0 and 256 share the LLC salt %#x: salted address spaces collide", m0.llcSalt)
	}

	// Behavioural check: the same process-local address accessed by both
	// cores must fill two distinct LLC lines (two refills), not alias onto
	// one (second access hits).
	addr := uint64(HeapBase)
	shared.Access(addr|m0.llcSalt, false)
	shared.Access(addr|m256.llcSalt, false)
	if got := shared.Stats.Refills; got != 2 {
		t.Fatalf("same address from cores 0 and 256 caused %d LLC refills, want 2 (address spaces alias)", got)
	}
}

// TestShareLLCSaltDistinctAcrossRange pins the collision-free property for
// every supported core ID: salts are pairwise distinct, recoverable from
// any salted architectural address, and never disturb the LLC's
// line-offset or set-index bits (which is what keeps legacy quad-core
// co-run results byte-identical across the salting change).
func TestShareLLCSaltDistinctAcrossRange(t *testing.T) {
	// Offset+set bits of the 1 MiB/64 B/16-way LLC: 1024 sets x 64 B = 16 bits.
	const indexBits = 16
	seen := make(map[uint64]bool)
	for _, id := range []int{0, 1, 3, 4, 255, 256, 257, 511, 1023, MaxCores - 1} {
		salt := coreSalt(id)
		if seen[salt] {
			t.Fatalf("core %d reuses salt %#x", id, salt)
		}
		seen[salt] = true
		if salt&((1<<indexBits)-1) != 0 {
			t.Fatalf("core %d salt %#x touches LLC index bits", id, salt)
		}
		// Any architectural address is below the salt: OR is an injective
		// rename, so the core ID is recoverable.
		for _, addr := range []uint64{TextBase, HeapBase, StackBase - 16} {
			if addr>>saltShift != 0 {
				t.Fatalf("architectural address %#x overlaps the salt bits", addr)
			}
			if got := int((addr | salt) >> saltShift); got != id {
				t.Fatalf("salted address %#x decodes to core %d, want %d", addr|salt, got, id)
			}
		}
	}
}

// TestShareLLCSaltRangeChecked pins the guard: core IDs outside the
// collision-free range must panic instead of silently aliasing.
func TestShareLLCSaltRangeChecked(t *testing.T) {
	for _, id := range []int{-1, MaxCores} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShareLLCPort accepted out-of-range coreID %d", id)
				}
			}()
			New(abi.Hybrid).ShareLLCPort(cachePort{cache.New(cache.LLCConfig)}, id)
		}()
	}
}
