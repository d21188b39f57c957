package icn

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"umanycore/internal/sim"
)

func testParams() LinkParams {
	return LinkParams{HopLatency: 2500, PsPerByte: 31}
}

// route returns the slab indices of the links a message from src to dst
// crosses, in order. It idles every link, delivers one message with
// contention, and orders the links left busy by when they freed; it fails t
// unless the message crossed as many distinct links as hops it reported.
func route(t *testing.T, topo Topology, src, dst int, rng *rand.Rand) []int {
	t.Helper()
	links := topo.Links()
	for i := range links {
		links[i].Reset()
	}
	_, hops := topo.Deliver(0, src, dst, 1, rng, true)
	var used []int
	for i := range links {
		if links[i].TotalBusy > 0 {
			used = append(used, i)
		}
	}
	sort.Slice(used, func(a, b int) bool { return links[used[a]].BusyUntil() < links[used[b]].BusyUntil() })
	if len(used) != hops {
		t.Fatalf("%s: %d->%d reported %d hops but left %d links busy", topo.Name(), src, dst, hops, len(used))
	}
	return used
}

// ends names the routers slab link i joins, from the layout each
// constructor documents: mesh router y*W+x; fat-tree heap node; leaf-spine
// leaves first, then the L2 spines pod by pod, then the L3 spines.
func ends(topo Topology, i int) (from, to int) {
	pair := i / 2
	switch t := topo.(type) {
	case *Mesh:
		if horiz := t.h * (t.w - 1); pair < horiz {
			from = pair/(t.w-1)*t.w + pair%(t.w-1)
			to = from + 1
		} else {
			from = pair - horiz
			to = from + t.w
		}
	case *FatTree:
		from, to = pair+2, (pair+2)/2
	case *LeafSpine:
		nLeaves, nL2 := t.pods*t.leavesPer, t.pods*t.l2PerPod
		if leafLinks := nLeaves * t.l2PerPod; pair < leafLinks {
			leaf := pair / t.l2PerPod
			from, to = leaf, nLeaves+leaf/t.leavesPer*t.l2PerPod+pair%t.l2PerPod
		} else {
			pair -= leafLinks
			from, to = nLeaves+pair/t.l3Count, nLeaves+nL2+pair%t.l3Count
		}
	}
	if i%2 == 1 {
		from, to = to, from
	}
	return from, to
}

// endpointNode is the router endpoint e is: a fat-tree's leaves follow its
// inner nodes; elsewhere endpoints are routers 0..n-1.
func endpointNode(topo Topology, e int) int {
	if f, ok := topo.(*FatTree); ok {
		return e + f.leaves
	}
	return e
}

// checkConnected fails t unless the route's links chain from src's router
// to dst's.
func checkConnected(t *testing.T, topo Topology, src, dst int, links []int) {
	t.Helper()
	at := endpointNode(topo, src)
	for _, l := range links {
		from, to := ends(topo, l)
		if from != at {
			t.Fatalf("%s: %d->%d route leaves router %d by link %d>%d", topo.Name(), src, dst, at, from, to)
		}
		at = to
	}
	if want := endpointNode(topo, dst); at != want {
		t.Fatalf("%s: %d->%d route ends at router %d, want %d", topo.Name(), src, dst, at, want)
	}
}

func TestLinkTraverseContentionFree(t *testing.T) {
	f := newFabric(testParams(), 1)
	at := f.cross(0, 0, f.ser(100), false)
	if at != 100*31+2500 {
		t.Fatalf("arrival = %d", at)
	}
	// Contention-free crossings don't queue on each other.
	at2 := f.cross(0, 0, f.ser(100), false)
	if at2 != at {
		t.Fatalf("second contention-free arrival = %d", at2)
	}
}

func TestLinkTraverseContention(t *testing.T) {
	f := newFabric(testParams(), 1)
	a1 := f.cross(0, 0, f.ser(100), true)
	a2 := f.cross(0, 0, f.ser(100), true)
	if a2 != a1+100*31 {
		t.Fatalf("second message should queue: %d vs %d", a2, a1)
	}
	l := &f.Links()[0]
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
	// Same node: no link.
	if len(route(t, m, 5, 5, rng)) != 0 {
		t.Fatal("self route crosses a link")
	}
	// (0,0) -> (3,2): 3 X hops + 2 Y hops.
	p := route(t, m, 0, 11, rng)
	if len(p) != 5 {
		t.Fatalf("route len = %d", len(p))
	}
	// XY routing: X moves first.
	if from, to := ends(m, p[0]); from != 0 || to != 1 {
		t.Fatalf("first hop %d->%d", from, to)
	}
	checkConnected(t, m, 0, 11, p)
}

func TestMeshReverseDirection(t *testing.T) {
	m := NewMesh(3, 3, testParams())
	rng := rand.New(rand.NewSource(1))
	p := route(t, m, 8, 0, rng)
	if len(p) != 4 {
		t.Fatalf("route len = %d", len(p))
	}
	checkConnected(t, m, 8, 0, p)
}

func TestMeshPanics(t *testing.T) {
	m := NewMesh(2, 2, testParams())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range did not panic")
		}
	}()
	m.Deliver(0, 0, 9, 64, rand.New(rand.NewSource(1)), true)
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
	if p := route(t, f, 0, 1, rng); len(p) != 2 {
		t.Fatalf("sibling route = %d hops", len(p))
	}
	// Extremes: full ascent + descent.
	if p := route(t, f, 0, 7, rng); len(p) != 6 {
		t.Fatalf("0->7 route = %d hops", len(p))
	}
	if len(route(t, f, 3, 3, rng)) != 0 {
		t.Fatal("self route")
	}
	// Connectivity of every pair.
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			checkConnected(t, f, s, d, route(t, f, s, d, rng))
		}
	}
	// Links fatten toward the root: 31 ps/byte at the leaves, 15 one level
	// up, and 7 from two levels up on, each way.
	if at, _ := NewFatTree(16, testParams()).Deliver(0, 0, 15, 64, nil, false); at != 2*(31+15+7+7)*64+8*2500 {
		t.Fatalf("0->15 contention-free arrival = %d", at)
	}
	// No link serializes faster than 1 ps per byte.
	if at, _ := NewFatTree(8, LinkParams{HopLatency: 0, PsPerByte: 2}).Deliver(0, 0, 7, 64, nil, false); at != 2*(2+1+1)*64 {
		t.Fatalf("0->7 arrival at 2 ps/byte = %d", at)
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
		p := route(t, ls, 0, 3, rng)
		if len(p) != 2 {
			t.Fatalf("intra-pod route = %d hops", len(p))
		}
		checkConnected(t, ls, 0, 3, p)
	}
	// Inter-pod (leaf 0 pod 0 -> leaf 31 pod 3): always 4 hops.
	for i := 0; i < 20; i++ {
		p := route(t, ls, 0, 31, rng)
		if len(p) != 4 {
			t.Fatalf("inter-pod route = %d hops", len(p))
		}
		checkConnected(t, ls, 0, 31, p)
	}
	if len(route(t, ls, 7, 7, rng)) != 0 {
		t.Fatal("self route")
	}
}

func TestLeafSpineECMPSpreads(t *testing.T) {
	// Repeated same-pair messages should use multiple distinct first-hop
	// links (redundant paths — the paper's key contention property).
	ls := NewLeafSpine(PaperLeafSpine(), testParams())
	rng := rand.New(rand.NewSource(2))
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[route(t, ls, 0, 31, rng)[0]] = true
	}
	if len(seen) < 2 {
		t.Fatal("ECMP did not spread across spines")
	}
}

func TestLeafSpineLeastLoaded(t *testing.T) {
	cfg := PaperLeafSpine()
	cfg.Select = LeastLoadedSpine
	ls := NewLeafSpine(cfg, testParams())
	// All links idle: both scans keep the first spine.
	idle := []int{ls.leafUp(0, 0), ls.l2Up(0, 0), ls.l2Up(3*cfg.L2PerPod, 0) + 1, ls.leafUp(31, 0) + 1}
	if got := route(t, ls, 0, 31, nil); !slices.Equal(got, idle) {
		t.Fatalf("idle least-loaded route used links %v, want the first spines' %v", got, idle)
	}
	// Load every link out of leaf 0 but the one to spine 2, and every link
	// from that spine up but the one to L3 5: the route must take the idle
	// ones, and descend through spine 2 of leaf 31's pod.
	links := ls.Links()
	for i := range links {
		links[i].Reset()
	}
	for s := 0; s < cfg.L2PerPod; s++ {
		if s != 2 {
			ls.cross(ls.leafUp(0, s), 0, ls.ser(1<<20), true)
		}
	}
	for l3 := 0; l3 < cfg.L3Count; l3++ {
		if l3 != 5 {
			ls.cross(ls.l2Up(2, l3), 0, ls.ser(1<<10), true)
		}
	}
	before := slices.Clone(links)
	ls.Deliver(0, 0, 31, 64, nil, true)
	var used []int
	for i := range links {
		if links[i] != before[i] {
			used = append(used, i)
		}
	}
	want := []int{ls.leafUp(0, 2), ls.l2Up(2, 5), ls.l2Up(3*cfg.L2PerPod+2, 5) + 1, ls.leafUp(31, 2) + 1}
	slices.Sort(want)
	if !slices.Equal(used, want) {
		t.Fatalf("least-loaded route used links %v, want the idle spines' %v", used, want)
	}
}

func TestDeliverAccumulatesHops(t *testing.T) {
	ls := NewLeafSpine(PaperLeafSpine(), testParams())
	rng := rand.New(rand.NewSource(4))
	at, hops := ls.Deliver(1000, 0, 31, 64, rng, false)
	want := sim.Time(1000) + 4*(64*31+2500)
	if hops != 4 || at != want {
		t.Fatalf("at=%d hops=%d, want %d/4", at, hops, want)
	}
	at2, hops2 := ls.Deliver(1000, 5, 5, 64, rng, false)
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
		at, _ := ft.Deliver(0, 0, 31, size, rng, true)
		ftSum += float64(at)
		at2, _ := ls.Deliver(0, 0, 31, size, rng, true)
		lsSum += float64(at2)
	}
	if lsSum >= ftSum {
		t.Fatalf("leaf-spine mean %v !< fat-tree mean %v", lsSum/msgs, ftSum/msgs)
	}
}

func TestUtilizationReporting(t *testing.T) {
	m := NewMesh(2, 2, testParams())
	rng := rand.New(rand.NewSource(6))
	m.Deliver(0, 0, 3, 1024, rng, true)
	w := sim.Time(1_000_000)
	if got, want := MaxUtilization(m, w), float64(1024*31)/float64(w); got != want {
		t.Fatalf("max utilization = %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { MaxUtilization(m, w) }); n != 0 {
		t.Fatalf("MaxUtilization allocates %v times", n)
	}
	for i := range m.Links() {
		m.Links()[i].Reset()
	}
	if MaxUtilization(m, w) != 0 {
		t.Fatal("link Reset failed")
	}
}

// Property: every topology routes every endpoint pair over a connected
// chain of distinct links, at most MaxHops long.
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
			p := route(t, topo, s, d, rng)
			if (s == d) != (len(p) == 0) || len(p) > topo.MaxHops() {
				return false
			}
			checkConnected(t, topo, s, d, p)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFatTreeDeliverRoot: leaves 0 and n-1 meet only at the root, so the route
// between them is leaf 0's climb to the root followed by the descent to leaf
// n-1 — the two I/O walks back to back.
func TestFatTreeDeliverRoot(t *testing.T) {
	a, b := NewFatTree(16, testParams()), NewFatTree(16, testParams())
	want, hops := a.Deliver(100, 0, 15, 64, nil, true)
	mid, up := b.ToIO(100, 0, 64, nil, true)
	got, down := b.FromIO(mid, 15, 64, nil, true)
	if up != 4 || down != 4 || hops != 8 || got != want {
		t.Fatalf("walks: %d+%d hops arriving %v, route: %d hops arriving %v", up, down, got, hops, want)
	}
	for i, l := range a.Links() {
		if w := b.Links()[i]; l != w {
			from, to := ends(a, i)
			t.Fatalf("link %d>%d busy %v until %v after the route, %v until %v after the walks",
				from, to, l.TotalBusy, l.BusyUntil(), w.TotalBusy, w.BusyUntil())
		}
	}
}

// TestEndpointIOWalks: a mesh or leaf-spine attaches the package I/O at
// endpoint 0, so its I/O walks are routes to and from it.
func TestEndpointIOWalks(t *testing.T) {
	for _, mk := range []func() Topology{
		func() Topology { return NewMesh(4, 3, testParams()) },
		func() Topology { return NewLeafSpine(PaperLeafSpine(), testParams()) },
	} {
		a, b := mk(), mk()
		ra, rb := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		out, outHops := a.Deliver(100, 11, 0, 64, ra, true)
		in, inHops := a.Deliver(out, 0, 5, 64, ra, true)
		gotOut, gotOutHops := b.ToIO(100, 11, 64, rb, true)
		gotIn, gotInHops := b.FromIO(gotOut, 5, 64, rb, true)
		if gotOut != out || gotOutHops != outHops || gotIn != in || gotInHops != inHops {
			t.Fatalf("%s: I/O walks %v/%d then %v/%d, routes %v/%d then %v/%d",
				a.Name(), gotOut, gotOutHops, gotIn, gotInHops, out, outHops, in, inHops)
		}
		if !slices.Equal(a.Links(), b.Links()) {
			t.Fatalf("%s: I/O walks left different link state from the routes", a.Name())
		}
	}
}

// TestLinksOrder pins the slab order Links() reports, naming each link by
// the routers it joins, and checks that no two slots hold the same link.
// The leaf-spine and fat-tree keep the order their link tables were built
// in; the mesh lists every X link before every Y link.
func TestLinksOrder(t *testing.T) {
	for _, tc := range []struct {
		topo Topology
		want string
	}{
		{NewMesh(2, 2, testParams()), "0>1 1>0 2>3 3>2 0>2 2>0 1>3 3>1"},
		{NewFatTree(2, testParams()), "2>1 1>2 3>1 1>3"},
		{NewLeafSpine(LeafSpineConfig{Pods: 2, LeavesPerPod: 1, L2PerPod: 1, L3Count: 2}, testParams()),
			"0>2 2>0 1>3 3>1 2>4 4>2 2>5 5>2 3>4 4>3 3>5 5>3"},
	} {
		var got []string
		known := map[string]bool{}
		for i := range tc.topo.Links() {
			from, to := ends(tc.topo, i)
			name := fmt.Sprintf("%d>%d", from, to)
			if known[name] {
				t.Fatalf("%s: link %s listed twice", tc.topo.Name(), name)
			}
			known[name] = true
			got = append(got, name)
		}
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("%s: Links() order\n got %s\nwant %s", tc.topo.Name(), s, tc.want)
		}
	}
}
