// Package rpcnet models the lossy off-package R-NIC of the paper's RPC/NIC
// layer (§4.1): the acknowledgments, retransmission and congestion control
// of the storage traffic. The top-level NIC's dispatch table (§4.2) lives
// in the machine, which owns the placement it is built from. The software
// RPC stack's header parsing and de-serialization work, which μManycore's
// village NIC does in hardware, is charged as cycles by the machine rather
// than modeled as a wire format.
package rpcnet

import (
	"fmt"

	"umanycore/internal/sim"
)

// RNIC models a village's remote I/O port: it talks to the lossy external
// world, so it keeps per-flow sequence state, retransmits on timeout, and
// runs an AIMD congestion window sized by acknowledgments (§4.1: "it
// estimates congestion using ACK packets, e.g., in TCP or RDMA").
//
// The model is analytic rather than packet-replayed: given a loss
// probability and base RTT, Send computes the expected completion time of a
// message — serialization, congestion-window pacing, and the geometric
// retransmission tail — and updates the window the way AIMD would on the
// realized outcome. Determinism comes from the caller's random stream.
type RNIC struct {
	PsPerByte sim.Time
	BaseRTT   sim.Time
	// LossProb is the external network's per-transmission drop rate.
	LossProb float64
	// RTOMultiple scales the retransmission timeout over BaseRTT.
	RTOMultiple int

	pipe sim.Resource
	cwnd float64 // congestion window in messages

	// Stats. Bytes counts wire bytes over every transmission attempt, so it
	// includes retransmitted bytes (the external network's real load).
	Sent       uint64
	Retransmit uint64
	Bytes      uint64
}

// NewRNIC builds a remote NIC with sane defaults filled in.
func NewRNIC(psPerByte, baseRTT sim.Time, lossProb float64) *RNIC {
	if lossProb < 0 || lossProb >= 1 {
		panic(fmt.Sprintf("rpcnet: loss probability %v out of range", lossProb))
	}
	return &RNIC{
		PsPerByte:   psPerByte,
		BaseRTT:     baseRTT,
		LossProb:    lossProb,
		RTOMultiple: 3,
		cwnd:        8,
	}
}

// Cwnd exposes the current congestion window (messages in flight).
func (n *RNIC) Cwnd() float64 { return n.cwnd }

// Send transmits a message of wireBytes at now, using rand01 draws in
// [0,1) to realize losses, and returns the time the message is known
// delivered (ACK received). The congestion window halves on loss and grows
// additively on success.
func (n *RNIC) Send(now sim.Time, wireBytes int, rand01 func() float64) sim.Time {
	n.Sent++
	n.Bytes += uint64(wireBytes)
	ser := n.PsPerByte * sim.Time(wireBytes)
	// Window pacing: a full window ahead of us delays our first
	// transmission by its serialization time.
	pacing := sim.Time(0)
	if n.cwnd < 1 {
		n.cwnd = 1
	}
	if backlog := n.pipe.QueueDelay(now); backlog > 0 {
		pacing = backlog / sim.Time(int64(n.cwnd))
	}
	t := n.pipe.Acquire(now+pacing, ser)
	// Transmission attempts until one survives.
	for rand01() < n.LossProb {
		n.Retransmit++
		n.Bytes += uint64(wireBytes)
		// Timeout, multiplicative decrease, retransmit.
		n.cwnd = n.cwnd / 2
		if n.cwnd < 1 {
			n.cwnd = 1
		}
		t += sim.Time(n.RTOMultiple) * n.BaseRTT
		t = n.pipe.Acquire(t, ser)
	}
	// Delivered; ACK returns half an RTT after arrival.
	n.cwnd += 1 / n.cwnd
	return t + n.BaseRTT
}
