package rpcnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"umanycore/internal/sim"
)

func TestMsgKindString(t *testing.T) {
	for _, k := range []MsgKind{KindRequest, KindResponse, KindStorageRead, KindStorageWrite, KindAck} {
		if k.String() == "" || k.String()[0] == 'k' {
			t.Fatalf("kind %d string = %q", k, k.String())
		}
	}
	if MsgKind(99).String() == "" {
		t.Fatal("unknown kind string")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{
			Kind: KindRequest, ServiceID: 7, RequestID: 123456789,
			SrcVillage: 3, DstVillage: 99, Seq: 42,
		},
		Payload: []byte("hello microservice"),
	}
	buf := Encode(m, nil)
	if len(buf) != m.WireSize() {
		t.Fatalf("wire size %d vs %d", len(buf), m.WireSize())
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Kind != KindRequest || got.Header.ServiceID != 7 ||
		got.Header.RequestID != 123456789 || got.Header.SrcVillage != 3 ||
		got.Header.DstVillage != 99 || got.Header.Seq != 42 {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if string(got.Payload) != "hello microservice" {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestEncodeReusesBuffer(t *testing.T) {
	m := &Message{Header: Header{Kind: KindAck}, Payload: []byte("x")}
	buf := make([]byte, 0, 128)
	out := Encode(m, buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("Encode did not reuse capacity")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); err != ErrShortBuffer {
		t.Fatalf("short buffer: %v", err)
	}
	m := &Message{Header: Header{Kind: KindRequest}, Payload: []byte("abc")}
	buf := Encode(m, nil)
	buf[0] = 200
	if _, err := Decode(buf); err != ErrBadKind {
		t.Fatalf("bad kind: %v", err)
	}
	buf[0] = byte(KindRequest)
	if _, err := Decode(buf[:len(buf)-1]); err != ErrLenMismatch {
		t.Fatalf("len mismatch: %v", err)
	}
}

// Property: Encode/Decode round-trips arbitrary headers and payloads.
func TestRoundTripProperty(t *testing.T) {
	f := func(svc uint16, req uint64, src, dst uint16, seq uint32, payload []byte) bool {
		m := &Message{
			Header:  Header{Kind: KindResponse, ServiceID: svc, RequestID: req, SrcVillage: src, DstVillage: dst, Seq: seq},
			Payload: payload,
		}
		got, err := Decode(Encode(m, nil))
		if err != nil {
			return false
		}
		if got.Header.ServiceID != svc || got.Header.RequestID != req ||
			got.Header.SrcVillage != src || got.Header.DstVillage != dst || got.Header.Seq != seq {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServiceMapRoundRobin(t *testing.T) {
	sm := NewServiceMap()
	if _, ok := sm.Dispatch(1); ok {
		t.Fatal("dispatch to empty map succeeded")
	}
	sm.Register(1, 10)
	sm.Register(1, 11)
	sm.Register(1, 12)
	sm.Register(1, 11) // duplicate is idempotent
	if sm.Instances(1) != 3 {
		t.Fatalf("instances = %d", sm.Instances(1))
	}
	var got []uint16
	for i := 0; i < 6; i++ {
		v, ok := sm.Dispatch(1)
		if !ok {
			t.Fatal("dispatch failed")
		}
		got = append(got, v)
	}
	want := []uint16{10, 11, 12, 10, 11, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin = %v", got)
		}
	}
	sm.Deregister(1, 11)
	if sm.Instances(1) != 2 {
		t.Fatal("deregister failed")
	}
	sm.Deregister(1, 99) // absent: no-op
	if sm.Instances(1) != 2 {
		t.Fatal("deregister of absent village changed map")
	}
}

// TestServiceMapSparseIDs: the table is indexed by service ID, so IDs below,
// between and above the registered ones must read as empty, not panic.
func TestServiceMapSparseIDs(t *testing.T) {
	sm := NewServiceMap()
	sm.Register(7, 3)
	sm.Register(2, 5)
	for _, id := range []uint16{0, 1, 4, 8, 65535} {
		if _, ok := sm.Dispatch(id); ok || sm.Instances(id) != 0 {
			t.Fatalf("service %d has instances in a table holding 2 and 7", id)
		}
		sm.Deregister(id, 3) // no-op
	}
	if v, ok := sm.Dispatch(7); !ok || v != 3 {
		t.Fatalf("Dispatch(7) = %d, %v, want 3, true", v, ok)
	}
	if v, ok := sm.Dispatch(2); !ok || v != 5 {
		t.Fatalf("Dispatch(2) = %d, %v, want 5, true", v, ok)
	}
}

func TestLNICBackpressure(t *testing.T) {
	n := &LNIC{PsPerByte: 100, ProcDelay: 10}
	a := n.Send(0, 1000) // 100k ps serialization + 10 proc
	if a != 100*1000+10 {
		t.Fatalf("first send done = %d", a)
	}
	b := n.Send(0, 1000)
	if b <= a {
		t.Fatal("second send should queue behind the first")
	}
	if n.Backlog(0) == 0 {
		t.Fatal("no backlog reported")
	}
	if n.Sent != 2 {
		t.Fatalf("sent = %d", n.Sent)
	}
}

func TestRNICLossless(t *testing.T) {
	n := NewRNIC(100, 1000, 0)
	r := rand.New(rand.NewSource(1))
	done := n.Send(0, 100, r.Float64)
	// serialization (10k) + RTT (1000).
	if done != 100*100+1000 {
		t.Fatalf("lossless send done = %d", done)
	}
	if n.Retransmit != 0 {
		t.Fatal("spurious retransmission")
	}
	// Window grows on success.
	if n.Cwnd() <= 8 {
		t.Fatalf("cwnd = %v, want growth", n.Cwnd())
	}
}

func TestRNICRetransmission(t *testing.T) {
	n := NewRNIC(100, 1000, 0.5)
	r := rand.New(rand.NewSource(7))
	var sumLossy sim.Time
	for i := 0; i < 200; i++ {
		sumLossy += n.Send(sim.Time(i)*1_000_000, 100, r.Float64)
	}
	if n.Retransmit == 0 {
		t.Fatal("no retransmissions at 50% loss")
	}
	// Retransmissions shrink the window from its ceiling.
	clean := NewRNIC(100, 1000, 0)
	for i := 0; i < 200; i++ {
		clean.Send(sim.Time(i)*1_000_000, 100, r.Float64)
	}
	if n.Cwnd() >= clean.Cwnd() {
		t.Fatalf("lossy cwnd %v !< clean cwnd %v", n.Cwnd(), clean.Cwnd())
	}
}

func TestRNICLossMakesSlower(t *testing.T) {
	r1 := rand.New(rand.NewSource(3))
	r2 := rand.New(rand.NewSource(3))
	clean := NewRNIC(100, 1000, 0)
	lossy := NewRNIC(100, 1000, 0.3)
	var cleanSum, lossySum int64
	for i := 0; i < 500; i++ {
		now := sim.Time(i) * 1_000_000
		cleanSum += int64(clean.Send(now, 200, r1.Float64) - now)
		lossySum += int64(lossy.Send(now, 200, r2.Float64) - now)
	}
	if lossySum <= cleanSum {
		t.Fatalf("loss did not slow delivery: %d vs %d", lossySum, cleanSum)
	}
}

func TestRNICPanicsOnBadLoss(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRNIC(1, 1, 1.0)
}

func TestVillagePort(t *testing.T) {
	p := NewVillagePort(0.01)
	if p.Remote == nil || p.Local.PsPerByte == 0 {
		t.Fatal("port defaults missing")
	}
	a := p.BulkTransfer(0, 1<<20) // 1MB at 10ps/B = ~10.5us
	if a != sim.Time(1<<20)*10 {
		t.Fatalf("bulk transfer done = %d", a)
	}
	b := p.BulkTransfer(0, 1<<20)
	if b != 2*a {
		t.Fatal("bulk transfers should serialize on the MEM engine")
	}
}

// Property: the wire format is self-describing — WireSize equals encoded
// length for arbitrary payload sizes.
func TestWireSizeProperty(t *testing.T) {
	f := func(n uint16) bool {
		m := &Message{Header: Header{Kind: KindStorageRead}, Payload: make([]byte, int(n)%4096)}
		return len(Encode(m, nil)) == m.WireSize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNICWireByteCounters(t *testing.T) {
	l := &LNIC{PsPerByte: 10, ProcDelay: 100}
	l.Send(0, 64)
	l.Send(0, 200)
	if l.Sent != 2 || l.Bytes != 264 {
		t.Fatalf("LNIC sent=%d bytes=%d, want 2, 264", l.Sent, l.Bytes)
	}

	// Lossless R-NIC counts exactly the payload bytes.
	clean := NewRNIC(100, 1000, 0)
	r := rand.New(rand.NewSource(5))
	clean.Send(0, 128, r.Float64)
	if clean.Bytes != 128 {
		t.Fatalf("lossless RNIC bytes = %d, want 128", clean.Bytes)
	}

	// Lossy R-NIC counts every transmission attempt: payload bytes once per
	// original send plus once per retransmission.
	lossy := NewRNIC(100, 1000, 0.5)
	for i := 0; i < 100; i++ {
		lossy.Send(sim.Time(i)*1_000_000, 100, r.Float64)
	}
	want := (lossy.Sent + lossy.Retransmit) * 100
	if lossy.Retransmit == 0 {
		t.Fatal("no retransmissions at 50% loss")
	}
	if lossy.Bytes != want {
		t.Fatalf("lossy RNIC bytes = %d, want %d (%d sends + %d retx)",
			lossy.Bytes, want, lossy.Sent, lossy.Retransmit)
	}
}
