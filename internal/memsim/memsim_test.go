package memsim

import (
	"testing"

	"umanycore/internal/sim"
)

func TestPoolStoreFetch(t *testing.T) {
	p := NewPool(DefaultPoolConfig())
	if p.Contains(1) {
		t.Fatal("empty pool contains")
	}
	if !p.Store(Snapshot{ServiceID: 1, SizeBytes: 16 << 20}) {
		t.Fatal("store failed")
	}
	if !p.Contains(1) || p.Used() != 16<<20 {
		t.Fatal("store bookkeeping")
	}
	done, ok := p.Fetch(0, 1)
	if !ok {
		t.Fatal("fetch missed")
	}
	// 16MB at 10ps/B = 160us + 50ns latency.
	want := sim.Time(16<<20)*10 + 50*sim.Nanosecond
	if done != want {
		t.Fatalf("fetch done = %v, want %v", done, want)
	}
	if _, ok := p.Fetch(0, 2); ok {
		t.Fatal("missing snapshot fetched")
	}
	if p.Hits != 1 || p.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", p.Hits, p.Misses)
	}
}

func TestPoolEvictionLRU(t *testing.T) {
	p := NewPool(PoolConfig{CapacityBytes: 48 << 20, ReadLatency: 1, PsPerByte: 1})
	p.Store(Snapshot{ServiceID: 1, SizeBytes: 16 << 20})
	p.Store(Snapshot{ServiceID: 2, SizeBytes: 16 << 20})
	p.Store(Snapshot{ServiceID: 3, SizeBytes: 16 << 20})
	p.Fetch(0, 1) // 1 becomes MRU; 2 is now LRU
	p.Store(Snapshot{ServiceID: 4, SizeBytes: 16 << 20})
	if p.Contains(2) {
		t.Fatal("LRU snapshot survived")
	}
	if !p.Contains(1) || !p.Contains(3) || !p.Contains(4) {
		t.Fatal("wrong eviction set")
	}
	if p.Used() > 48<<20 {
		t.Fatalf("over capacity: %d", p.Used())
	}
}

func TestPoolRestore(t *testing.T) {
	p := NewPool(PoolConfig{CapacityBytes: 32 << 20, ReadLatency: 1, PsPerByte: 1})
	p.Store(Snapshot{ServiceID: 1, SizeBytes: 8 << 20})
	p.Store(Snapshot{ServiceID: 1, SizeBytes: 16 << 20}) // refresh with new size
	if p.Used() != 16<<20 {
		t.Fatalf("refresh double-counted: %d", p.Used())
	}
}

func TestPoolOversizeRejected(t *testing.T) {
	p := NewPool(PoolConfig{CapacityBytes: 1 << 20, ReadLatency: 1, PsPerByte: 1})
	if p.Store(Snapshot{ServiceID: 1, SizeBytes: 2 << 20}) {
		t.Fatal("oversize accepted")
	}
}

func TestPoolPortContention(t *testing.T) {
	p := NewPool(DefaultPoolConfig())
	p.Store(Snapshot{ServiceID: 1, SizeBytes: 16 << 20})
	a, _ := p.Fetch(0, 1)
	b, _ := p.Fetch(0, 1)
	if b <= a {
		t.Fatal("concurrent fetches should serialize on the port")
	}
}

func TestBootInstance(t *testing.T) {
	p := NewPool(DefaultPoolConfig())
	cold := p.BootInstance(0, 9)
	if cold != ColdBootTime {
		t.Fatalf("cold boot = %v", cold)
	}
	p.Store(Snapshot{ServiceID: 9, SizeBytes: 16 << 20})
	warm := p.BootInstance(0, 9)
	if warm >= 10*sim.Millisecond {
		t.Fatalf("snapshot boot = %v, paper says <10ms", warm)
	}
	if warm >= cold {
		t.Fatal("snapshot boot not faster than cold boot")
	}
}

func TestPoolInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPool(PoolConfig{})
}
