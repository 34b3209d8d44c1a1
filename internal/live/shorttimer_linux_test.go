package live

import "testing"

// TestShortTimerOneDescriptor: successive runner incarnations sleep on
// the one timerfd the service opened first — restarting the runner does
// not leak a descriptor per burst of timers.
func TestShortTimerOneDescriptor(t *testing.T) {
	var s shortTimerService
	needKernelSleep(t, &s)
	fireOnce(t, &s)
	f, fd := s.wake.f, s.wake.fd
	fireOnce(t, &s)
	if s.wake.f != f || s.wake.fd != fd {
		t.Errorf("restarted runner opened a new timerfd: %d then %d", fd, s.wake.fd)
	}
}
