package rpcnet

import (
	"math/rand"
	"testing"

	"umanycore/internal/sim"
)

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

func TestNICWireByteCounters(t *testing.T) {
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
