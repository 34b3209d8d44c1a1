//go:build !linux

package live

import "time"

// kernelWake has no portable equivalent of a timerfd parked in the
// netpoller, so off Linux the short-timer runner never sleeps: arm
// reports false and the runner yields until each deadline.
type kernelWake struct{}

func (*kernelWake) arm(time.Duration) bool { return false }
func (*kernelWake) wait() bool             { return false }
