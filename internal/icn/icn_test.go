package icn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"umanycore/internal/sim"
)

func testParams() LinkParams {
	return LinkParams{HopLatency: 2500, PsPerByte: 31}
}

// newTestLink builds one link 0->1 with testParams through the slab the
// topologies use.
func newTestLink() *Link {
	slab := newLinkSlab(1)
	return slab.add(0, 1, testParams())
}

func TestLinkTraverseContentionFree(t *testing.T) {
	l := newTestLink()
	at := l.Traverse(0, 100, false)
	if at != 100*31+2500 {
		t.Fatalf("arrival = %d", at)
	}
	// Contention-free traversals don't queue on each other.
	at2 := l.Traverse(0, 100, false)
	if at2 != at {
		t.Fatalf("second contention-free arrival = %d", at2)
	}
}

func TestLinkTraverseContention(t *testing.T) {
	l := newTestLink()
	a1 := l.Traverse(0, 100, true)
	a2 := l.Traverse(0, 100, true)
	if a2 != a1+100*31 {
		t.Fatalf("second message should queue: %d vs %d", a2, a1)
	}
	if l.QueueDelay(0) == 0 {
		t.Fatal("link should report backlog")
	}
	l.Reset()
	if l.BusyUntil() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMeshGeometryAndRouting(t *testing.T) {
	m := NewMesh(4, 3, testParams())
	if m.NumEndpoints() != 12 {
		t.Fatalf("endpoints = %d", m.NumEndpoints())
	}
	if m.MaxHops() != 5 {
		t.Fatalf("MaxHops = %d", m.MaxHops())
	}
	rng := rand.New(rand.NewSource(1))
	// Same node: empty path.
	if len(m.Path(nil, 5, 5, rng)) != 0 {
		t.Fatal("self path not empty")
	}
	// (0,0) -> (3,2): 3 X hops + 2 Y hops.
	p := m.Path(nil, 0, 11, rng)
	if len(p) != 5 {
		t.Fatalf("path len = %d", len(p))
	}
	// XY routing: X moves first.
	if p[0].From != 0 || p[0].To != 1 {
		t.Fatalf("first hop %d->%d", p[0].From, p[0].To)
	}
	// Path is connected.
	for i := 1; i < len(p); i++ {
		if p[i].From != p[i-1].To {
			t.Fatal("disconnected path")
		}
	}
	if p[len(p)-1].To != 11 {
		t.Fatal("path does not reach destination")
	}
}

func TestMeshReverseDirection(t *testing.T) {
	m := NewMesh(3, 3, testParams())
	rng := rand.New(rand.NewSource(1))
	p := m.Path(nil, 8, 0, rng)
	if len(p) != 4 {
		t.Fatalf("path len = %d", len(p))
	}
	if p[len(p)-1].To != 0 {
		t.Fatal("wrong destination")
	}
}

func TestMeshPanics(t *testing.T) {
	m := NewMesh(2, 2, testParams())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range did not panic")
		}
	}()
	m.Path(nil, 0, 9, rand.New(rand.NewSource(1)))
}

func TestFatTreePaperGeometry(t *testing.T) {
	f := NewFatTree(32, testParams())
	if f.NodeCount() != 63 {
		t.Fatalf("NodeCount = %d, paper says 63 NHs", f.NodeCount())
	}
	if f.MaxHops() != 10 {
		t.Fatalf("MaxHops = %d, paper says 10", f.MaxHops())
	}
}

func TestFatTreeRouting(t *testing.T) {
	f := NewFatTree(8, testParams())
	rng := rand.New(rand.NewSource(1))
	// Siblings: 2 hops via shared parent.
	if p := f.Path(nil, 0, 1, rng); len(p) != 2 {
		t.Fatalf("sibling path = %d hops", len(p))
	}
	// Extremes: full ascent + descent.
	if p := f.Path(nil, 0, 7, rng); len(p) != 6 {
		t.Fatalf("0->7 path = %d hops", len(p))
	}
	if len(f.Path(nil, 3, 3, rng)) != 0 {
		t.Fatal("self path")
	}
	// Connectivity of every pair.
	for s := int32(0); s < 8; s++ {
		for d := int32(0); d < 8; d++ {
			p := f.Path(nil, int(s), int(d), rng)
			if s == d {
				continue
			}
			if p[0].From != s+8 {
				t.Fatalf("path from %d starts at %d", s, p[0].From)
			}
			if p[len(p)-1].To != d+8 {
				t.Fatalf("path to %d ends at %d", d, p[len(p)-1].To)
			}
			for i := 1; i < len(p); i++ {
				if p[i].From != p[i-1].To {
					t.Fatalf("disconnected %d->%d", s, d)
				}
			}
		}
	}
}

func TestFatTreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two did not panic")
		}
	}()
	NewFatTree(12, testParams())
}

func TestLeafSpinePaperGeometry(t *testing.T) {
	ls := NewLeafSpine(PaperLeafSpine(), testParams())
	if ls.NumEndpoints() != 32 {
		t.Fatalf("endpoints = %d", ls.NumEndpoints())
	}
	if ls.NodeCount() != 56 {
		t.Fatalf("NodeCount = %d, paper says 56 NHs", ls.NodeCount())
	}
	if ls.MaxHops() != 4 {
		t.Fatalf("MaxHops = %d, paper says 4", ls.MaxHops())
	}
}

func TestLeafSpineRouting(t *testing.T) {
	ls := NewLeafSpine(PaperLeafSpine(), testParams())
	rng := rand.New(rand.NewSource(1))
	// Intra-pod (leaves 0 and 3 are both in pod 0): always 2 hops.
	for i := 0; i < 20; i++ {
		if p := ls.Path(nil, 0, 3, rng); len(p) != 2 {
			t.Fatalf("intra-pod path = %d hops", len(p))
		}
	}
	// Inter-pod (leaf 0 pod 0 -> leaf 31 pod 3): always 4 hops.
	for i := 0; i < 20; i++ {
		p := ls.Path(nil, 0, 31, rng)
		if len(p) != 4 {
			t.Fatalf("inter-pod path = %d hops", len(p))
		}
		for j := 1; j < len(p); j++ {
			if p[j].From != p[j-1].To {
				t.Fatal("disconnected inter-pod path")
			}
		}
		if p[0].From != 0 || p[3].To != 31 {
			t.Fatal("wrong endpoints")
		}
	}
	if len(ls.Path(nil, 7, 7, rng)) != 0 {
		t.Fatal("self path")
	}
}

func TestLeafSpineECMPSpreads(t *testing.T) {
	// Repeated same-pair messages should use multiple distinct first-hop
	// links (redundant paths — the paper's key contention property).
	ls := NewLeafSpine(PaperLeafSpine(), testParams())
	rng := rand.New(rand.NewSource(2))
	seen := map[*Link]bool{}
	for i := 0; i < 100; i++ {
		seen[ls.Path(nil, 0, 31, rng)[0]] = true
	}
	if len(seen) < 2 {
		t.Fatal("ECMP did not spread across spines")
	}
}

func TestLeafSpineLeastLoaded(t *testing.T) {
	cfg := PaperLeafSpine()
	cfg.Select = LeastLoadedSpine
	ls := NewLeafSpine(cfg, testParams())
	rng := rand.New(rand.NewSource(3))
	// Saturate one spine link; least-loaded must avoid it.
	busy := ls.Path(nil, 0, 3, rng)[0]
	busy.Traverse(0, 1<<20, true) // huge message
	p := ls.Path(nil, 0, 3, rng)
	if p[0] == busy {
		t.Fatal("least-loaded picked the saturated spine")
	}
}

func TestDeliverAccumulatesHops(t *testing.T) {
	ls := NewLeafSpine(PaperLeafSpine(), testParams())
	rng := rand.New(rand.NewSource(4))
	at, hops := Deliver(ls, nil, 1000, 0, 31, 64, rng, false)
	want := sim.Time(1000) + 4*(64*31+2500)
	if hops != 4 || at != want {
		t.Fatalf("at=%d hops=%d, want %d/4", at, hops, want)
	}
	at2, hops2 := Deliver(ls, nil, 1000, 5, 5, 64, rng, false)
	if hops2 != 0 || at2 != 1000 {
		t.Fatal("self delivery should be free")
	}
}

func TestLeafSpineLowerWorstCaseThanFatTree(t *testing.T) {
	// The architectural claim: for the same 32 endpoints, leaf-spine's
	// worst path (4) is far below fat-tree's (10).
	ft := NewFatTree(32, testParams())
	ls := NewLeafSpine(PaperLeafSpine(), testParams())
	if ls.MaxHops() >= ft.MaxHops() {
		t.Fatalf("leaf-spine MaxHops %d !< fat-tree %d", ls.MaxHops(), ft.MaxHops())
	}
}

func TestContentionAdvantageOfLeafSpine(t *testing.T) {
	// Many concurrent messages between the same pair of endpoints: the
	// fat-tree's single path serializes them; leaf-spine ECMP spreads them.
	// Mean arrival delay should be clearly lower on leaf-spine.
	ft := NewFatTree(32, testParams())
	ls := NewLeafSpine(PaperLeafSpine(), testParams())
	rng := rand.New(rand.NewSource(5))
	const msgs = 200
	const size = 1024
	var ftSum, lsSum float64
	for i := 0; i < msgs; i++ {
		at, _ := Deliver(ft, nil, 0, 0, 31, size, rng, true)
		ftSum += float64(at)
		at2, _ := Deliver(ls, nil, 0, 0, 31, size, rng, true)
		lsSum += float64(at2)
	}
	if lsSum >= ftSum {
		t.Fatalf("leaf-spine mean %v !< fat-tree mean %v", lsSum/msgs, ftSum/msgs)
	}
}

func TestUtilizationReporting(t *testing.T) {
	m := NewMesh(2, 2, testParams())
	rng := rand.New(rand.NewSource(6))
	Deliver(m, nil, 0, 0, 3, 1024, rng, true)
	w := sim.Time(1_000_000)
	if MaxUtilization(m, w) <= 0 {
		t.Fatal("max utilization should be positive")
	}
	for _, l := range m.Links() {
		l.Reset()
	}
	if MaxUtilization(m, w) != 0 {
		t.Fatal("link Reset failed")
	}
}

// Property: every topology returns a connected path ending at the
// destination for all endpoint pairs.
func TestPathConnectivityProperty(t *testing.T) {
	topos := []Topology{
		NewMesh(5, 4, testParams()),
		NewFatTree(16, testParams()),
		NewLeafSpine(LeafSpineConfig{Pods: 2, LeavesPerPod: 4, L2PerPod: 2, L3Count: 3}, testParams()),
	}
	f := func(seed int64, si, di uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, topo := range topos {
			n := topo.NumEndpoints()
			s, d := int(si)%n, int(di)%n
			p := topo.Path(nil, s, d, rng)
			if s == d {
				if len(p) != 0 {
					return false
				}
				continue
			}
			if len(p) == 0 || len(p) > topo.MaxHops() {
				return false
			}
			for i := 1; i < len(p); i++ {
				if p[i].From != p[i-1].To {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFatTreeDeliverRoot: leaves 0 and n-1 meet only at the root, so the
// route between them is leaf 0's climb to the root followed by the descent
// to leaf n-1 — the two I/O walks back to back.
func TestFatTreeDeliverRoot(t *testing.T) {
	a, b := NewFatTree(16, testParams()), NewFatTree(16, testParams())
	want, hops := Deliver(a, nil, 100, 0, 15, 64, nil, true)
	mid, up := b.DeliverToRoot(100, 0, 64, true)
	got, down := b.DeliverFromRoot(mid, 15, 64, true)
	if up != 4 || down != 4 || hops != 8 || got != want {
		t.Fatalf("walks: %d+%d hops arriving %v, route: %d hops arriving %v", up, down, got, hops, want)
	}
	for i, l := range a.Links() {
		if w := b.Links()[i]; l.res != w.res {
			t.Fatalf("link %d->%d busy %v until %v after the route, %v until %v after the walks",
				l.From, l.To, l.res.TotalBusy, l.BusyUntil(), w.res.TotalBusy, w.BusyUntil())
		}
	}
}

// TestLinksOrder pins the order Links() reports (utilization reports and
// MaxUtilization walk it) and checks that every routed path uses the very
// links Links() reports, so a reset or utilization read sees the links
// that carried traffic.
func TestLinksOrder(t *testing.T) {
	for _, tc := range []struct {
		topo Topology
		want string
	}{
		{NewMesh(2, 2, testParams()), "0>1 1>0 0>2 2>0 1>3 3>1 2>3 3>2"},
		{NewFatTree(2, testParams()), "2>1 1>2 3>1 1>3"},
		{NewLeafSpine(LeafSpineConfig{Pods: 2, LeavesPerPod: 1, L2PerPod: 1, L3Count: 2}, testParams()),
			"0>2 2>0 1>3 3>1 2>4 4>2 2>5 5>2 3>4 4>3 3>5 5>3"},
	} {
		var got []string
		known := map[*Link]bool{}
		for _, l := range tc.topo.Links() {
			got = append(got, fmt.Sprintf("%d>%d", l.From, l.To))
			if known[l] {
				t.Fatalf("%s: link %d>%d listed twice", tc.topo.Name(), l.From, l.To)
			}
			known[l] = true
		}
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("%s: Links() order\n got %s\nwant %s", tc.topo.Name(), s, tc.want)
		}
		rng := rand.New(rand.NewSource(1))
		n := tc.topo.NumEndpoints()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				for _, l := range tc.topo.Path(nil, src, dst, rng) {
					if !known[l] {
						t.Fatalf("%s: path %d->%d uses link %d>%d missing from Links()", tc.topo.Name(), src, dst, l.From, l.To)
					}
				}
			}
		}
	}
}
