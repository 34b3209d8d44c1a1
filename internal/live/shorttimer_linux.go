package live

import (
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// kernelWake is the short-timer runner's kernel sleep: one timerfd per
// process, created non-blocking and wrapped in an os.File so a Read on
// it parks the goroutine in the runtime's netpoller until the timer
// expires. The zero value is ready; the descriptor is opened on first
// arm and lives as long as the process.
type kernelWake struct {
	once sync.Once
	f    *os.File // nil if the timerfd could not be created
	fd   uintptr  // f's descriptor; File.Fd would flip it to blocking mode
}

// itimerspec mirrors struct itimerspec from <sys/timerfd.h>.
type itimerspec struct {
	Interval syscall.Timespec
	Value    syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC

func (k *kernelWake) open() {
	// TFD_NONBLOCK and TFD_CLOEXEC are defined as the O_ flags.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE,
		clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return
	}
	k.f, k.fd = os.NewFile(fd, "timerfd"), fd
}

// arm sets the timer to expire once, d from now, replacing any earlier
// setting and clearing an unread expiry. It reports false when there is
// no timerfd to sleep on, and the caller yields instead.
func (k *kernelWake) arm(d time.Duration) bool {
	k.once.Do(k.open)
	if k.f == nil {
		return false
	}
	if d <= 0 {
		d = 1 // a zero it_value disarms the timer
	}
	spec := itimerspec{Value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME,
		k.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	return errno == 0
}

// wait parks until the armed timer expires. It reports false when the
// read failed, so the caller neither trusts the wake's timing nor
// measures it.
func (k *kernelWake) wait() bool {
	var expirations [8]byte
	if _, err := k.f.Read(expirations[:]); err != nil {
		// Not pollable after all: degrade to the yield loop rather than
		// a hot loop of failing reads.
		runtime.Gosched()
		return false
	}
	return true
}
