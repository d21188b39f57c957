package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tiny() *Cache {
	// 4 sets × 2 ways × 64B lines = 512B.
	return New(Config{Name: "t", SizeBytes: 512, Ways: 2, LineBytes: 64, RoundTripCycles: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := tiny()
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("second access missed")
	}
	if !c.Access(63) {
		t.Fatal("same-line access missed")
	}
	if c.Access(64) {
		t.Fatal("next line hit cold")
	}
	st := c.Stats
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 4 sets, 2 ways; addresses mapping to set 0: line numbers 0,4,8,...
	a := func(line int) Addr { return Addr(line * 64) }
	c.Access(a(0))
	c.Access(a(4))
	c.Access(a(0)) // 0 is now MRU
	c.Access(a(8)) // evicts 4 (LRU)
	if !c.Probe(a(0)) {
		t.Fatal("MRU line evicted")
	}
	if c.Probe(a(4)) {
		t.Fatal("LRU line survived")
	}
	if !c.Probe(a(8)) {
		t.Fatal("new line absent")
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats.Evictions)
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := tiny()
	c.Access(0)
	before := c.Stats
	c.Probe(0)
	c.Probe(9999)
	if c.Stats != before {
		t.Fatal("Probe changed stats")
	}
}

func TestFill(t *testing.T) {
	c := tiny()
	c.Fill(128)
	if !c.Probe(128) {
		t.Fatal("Fill did not install")
	}
	if c.Stats.Accesses != 0 {
		t.Fatal("Fill counted as access")
	}
	c.Fill(128) // idempotent
	if !c.Access(128) {
		t.Fatal("prefetched line missed")
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(0)
	c.Flush()
	if c.Probe(0) {
		t.Fatal("line survived flush")
	}
}

func TestWorkingSetFits(t *testing.T) {
	// A 64KB 8-way cache with a 32KB working set should converge to ~100%
	// hits after the first pass.
	c := New(Config{Name: "l1", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, RoundTripCycles: 2})
	for pass := 0; pass < 3; pass++ {
		for a := Addr(0); a < 32<<10; a += 64 {
			c.Access(a)
		}
	}
	if hr := c.Stats.HitRate(); hr < 0.66 {
		t.Fatalf("overall hit rate = %v", hr)
	}
	// Final pass alone should be all hits.
	start := c.Stats
	for a := Addr(0); a < 32<<10; a += 64 {
		if !c.Access(a) {
			t.Fatalf("miss at %d on warm pass", a)
		}
	}
	if c.Stats.Hits-start.Hits != (32<<10)/64 {
		t.Fatal("warm pass hit count wrong")
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// A working set 4x the cache size scanned cyclically under LRU yields
	// ~0% hits (classic LRU pathology).
	c := New(Config{Name: "small", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, RoundTripCycles: 2})
	for pass := 0; pass < 4; pass++ {
		for a := Addr(0); a < 16<<10; a += 64 {
			c.Access(a)
		}
	}
	if hr := c.Stats.HitRate(); hr > 0.05 {
		t.Fatalf("cyclic thrash hit rate = %v, want ~0", hr)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 0, Ways: 1, LineBytes: 64},
		{SizeBytes: 64, Ways: 0, LineBytes: 64},
		{SizeBytes: 64, Ways: 1, LineBytes: 0},
		{SizeBytes: 64, Ways: 4, LineBytes: 64}, // 1 line < 4 ways
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(TLBConfig{Name: "l1dtlb", Entries: 128, Ways: 4, RoundTripCycles: 2})
	if tlb.Access(0) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(4095) {
		t.Fatal("same-page access missed")
	}
	if tlb.Access(4096) {
		t.Fatal("next page hit cold")
	}
	if tlb.Config().PageBytes != 4096 {
		t.Fatal("default page size not applied")
	}
	if tlb.Stats().Accesses != 3 {
		t.Fatalf("stats = %+v", tlb.Stats())
	}
}

func TestHierarchy(t *testing.T) {
	l1 := New(Config{Name: "l1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, RoundTripCycles: 2})
	l2 := New(Config{Name: "l2", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64, RoundTripCycles: 24})
	h := NewHierarchy(200, l1, l2)

	cyc, lvl := h.Access(0)
	if lvl != 2 || cyc != 2+24+200 {
		t.Fatalf("cold access: cycles=%d level=%d", cyc, lvl)
	}
	cyc, lvl = h.Access(0)
	if lvl != 0 || cyc != 2 {
		t.Fatalf("warm access: cycles=%d level=%d", cyc, lvl)
	}
	// Evict from L1 but not L2: touch enough distinct lines.
	for a := Addr(64); a < 4<<10; a += 64 {
		h.Access(a)
	}
	cyc, lvl = h.Access(0)
	if lvl != 1 || cyc != 2+24 {
		t.Fatalf("L2 hit: cycles=%d level=%d", cyc, lvl)
	}
	if h.AMAT() <= 2 {
		t.Fatalf("AMAT = %v", h.AMAT())
	}
}

func TestHitRateZeroWhenUnused(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("unused HitRate should be 0")
	}
}

// Property: hits + misses == accesses, and repeated access to the same line
// immediately after a miss is always a hit.
func TestAccountingProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := tiny()
		for _, a := range addrs {
			hit1 := c.Access(Addr(a))
			hit2 := c.Access(Addr(a))
			_ = hit1
			if !hit2 {
				return false
			}
		}
		return c.Stats.Hits+c.Stats.Misses == c.Stats.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cache occupancy never exceeds capacity (evictions keep it
// bounded): after any access sequence, the number of distinct resident
// lines is <= sets*ways.
func TestCapacityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := tiny()
	for i := 0; i < 10000; i++ {
		c.Access(Addr(r.Intn(1 << 16)))
	}
	resident := 0
	for a := Addr(0); a < 1<<16; a += 64 {
		if c.Probe(a) {
			resident++
		}
	}
	if resident > 8 {
		t.Fatalf("resident lines = %d > capacity 8", resident)
	}
}
