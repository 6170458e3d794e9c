//go:build !linux

package live

// osYield is a no-op where sched_yield is not wired up; Gosched alone
// then carries the cooperative timeshare.
func osYield() {}
