package session

// GrantSlots exposes D, the per-key bound on outstanding Backend
// LockFence calls, to the black-box tests.
const GrantSlots = grantSlots

// Slots reports how many of key's grant-slot goroutines are alive. A
// slot that hands over its grant and does not go back to
// Backend.LockFence stops counting in that step, so a held grant keeps
// none.
func (s *Server) Slots(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kq := s.keys[key]; kq != nil {
		return kq.requesting
	}
	return 0
}

// QueuedFrames reports how many frames wait for their connection's
// writer, summed over the server's connections.
func (s *Server) QueuedFrames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.conns {
		c.mu.Lock()
		n += c.queued
		c.mu.Unlock()
	}
	return n
}
