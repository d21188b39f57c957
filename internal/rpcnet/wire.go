// Package rpcnet models the paper's RPC/NIC layer (§4.1–§4.3): a compact
// binary wire format for service requests and responses (the work a
// software stack spends "header parsing, payload de-serialization, and
// service dispatching" on, which μManycore's village NIC performs in
// hardware), the two village I/O ports — the lossless on-package L-NIC with
// back-pressure and the lossy off-package R-NIC with acknowledgments,
// retransmission and congestion control — and the top-level NIC's
// ServiceMap dispatch table (§4.2).
package rpcnet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgKind distinguishes wire messages.
type MsgKind uint8

// Message kinds.
const (
	KindRequest MsgKind = iota + 1
	KindResponse
	KindStorageRead
	KindStorageWrite
	KindAck
)

func (k MsgKind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindStorageRead:
		return "storage-read"
	case KindStorageWrite:
		return "storage-write"
	case KindAck:
		return "ack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Header is the fixed RPC header. The hardware NIC parses it and dispatches
// to the Request Queue without core involvement.
type Header struct {
	Kind      MsgKind
	ServiceID uint16
	RequestID uint64
	// SrcVillage / DstVillage address villages within the package; external
	// endpoints use the reserved village 0xFFFF.
	SrcVillage uint16
	DstVillage uint16
	// Seq orders packets of one flow (R-NIC retransmission).
	Seq uint32
	// PayloadLen is the body size in bytes.
	PayloadLen uint32
}

// ExternalVillage is the reserved address for off-package endpoints.
const ExternalVillage = 0xFFFF

// HeaderSize is the encoded header length in bytes.
const HeaderSize = 1 + 2 + 8 + 2 + 2 + 4 + 4

// Message is a header plus payload.
type Message struct {
	Header  Header
	Payload []byte
}

// WireSize is the total encoded size.
func (m *Message) WireSize() int { return HeaderSize + len(m.Payload) }

// Errors returned by Decode.
var (
	ErrShortBuffer = errors.New("rpcnet: buffer too short")
	ErrBadKind     = errors.New("rpcnet: unknown message kind")
	ErrLenMismatch = errors.New("rpcnet: payload length mismatch")
)

// Encode serializes the message into buf (allocating when buf is too
// small) and returns the encoded bytes.
func Encode(m *Message, buf []byte) []byte {
	n := m.WireSize()
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	buf[0] = byte(m.Header.Kind)
	binary.LittleEndian.PutUint16(buf[1:], m.Header.ServiceID)
	binary.LittleEndian.PutUint64(buf[3:], m.Header.RequestID)
	binary.LittleEndian.PutUint16(buf[11:], m.Header.SrcVillage)
	binary.LittleEndian.PutUint16(buf[13:], m.Header.DstVillage)
	binary.LittleEndian.PutUint32(buf[15:], m.Header.Seq)
	binary.LittleEndian.PutUint32(buf[19:], uint32(len(m.Payload)))
	copy(buf[HeaderSize:], m.Payload)
	return buf
}

// Decode parses a wire buffer into a Message. The payload aliases buf.
func Decode(buf []byte) (*Message, error) {
	if len(buf) < HeaderSize {
		return nil, ErrShortBuffer
	}
	k := MsgKind(buf[0])
	if k < KindRequest || k > KindAck {
		return nil, ErrBadKind
	}
	h := Header{
		Kind:       k,
		ServiceID:  binary.LittleEndian.Uint16(buf[1:]),
		RequestID:  binary.LittleEndian.Uint64(buf[3:]),
		SrcVillage: binary.LittleEndian.Uint16(buf[11:]),
		DstVillage: binary.LittleEndian.Uint16(buf[13:]),
		Seq:        binary.LittleEndian.Uint32(buf[15:]),
		PayloadLen: binary.LittleEndian.Uint32(buf[19:]),
	}
	if int(h.PayloadLen) != len(buf)-HeaderSize {
		return nil, ErrLenMismatch
	}
	return &Message{Header: h, Payload: buf[HeaderSize:]}, nil
}

// ServiceMap is the top-level NIC's dispatch table (§4.2): service ID → the
// villages hosting an instance, with round-robin selection in hardware. The
// system software populates it at instance creation. Both tables are slices
// indexed by service ID, grown on Register, so Dispatch is two indexed loads.
type ServiceMap struct {
	villages [][]uint16
	cursor   []int
}

// NewServiceMap returns an empty table.
func NewServiceMap() *ServiceMap { return &ServiceMap{} }

// instances returns the villages hosting the service; nil if none ever did.
func (s *ServiceMap) instances(serviceID uint16) []uint16 {
	if int(serviceID) >= len(s.villages) {
		return nil
	}
	return s.villages[serviceID]
}

// Register adds a village hosting an instance of the service. Duplicate
// registrations are idempotent.
func (s *ServiceMap) Register(serviceID, village uint16) {
	for _, v := range s.instances(serviceID) {
		if v == village {
			return
		}
	}
	for int(serviceID) >= len(s.villages) {
		s.villages = append(s.villages, nil)
		s.cursor = append(s.cursor, 0)
	}
	s.villages[serviceID] = append(s.villages[serviceID], village)
}

// Deregister removes a village's instance (instance teardown).
func (s *ServiceMap) Deregister(serviceID, village uint16) {
	vs := s.instances(serviceID)
	for i, v := range vs {
		if v == village {
			s.villages[serviceID] = append(vs[:i], vs[i+1:]...)
			return
		}
	}
}

// Instances returns the number of villages hosting the service.
func (s *ServiceMap) Instances(serviceID uint16) int { return len(s.instances(serviceID)) }

// Dispatch selects the next village for the service round-robin, returning
// false when no instance exists (the NIC then rejects the request).
func (s *ServiceMap) Dispatch(serviceID uint16) (uint16, bool) {
	vs := s.instances(serviceID)
	if len(vs) == 0 {
		return 0, false
	}
	i := s.cursor[serviceID] % len(vs)
	s.cursor[serviceID]++
	return vs[i], true
}
