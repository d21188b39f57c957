package rpcnet

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
