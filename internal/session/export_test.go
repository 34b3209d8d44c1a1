package session

// GrantSlots exposes D, the per-key bound on outstanding Backend
// LockFence calls, to the black-box tests.
const GrantSlots = grantSlots

// Slots reports how many of key's grant-slot goroutines are alive.
func (s *Server) Slots(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kq := s.keys[key]; kq != nil {
		return kq.slots
	}
	return 0
}
