package live

import "syscall"

// osYield gives the calling thread's CPU to any other thread the kernel
// has queued on it. Gosched only reaches goroutines in Go's run queues;
// when a parked dispatcher's idle thread is woken, the kernel can queue
// it on the CPU of a thread already running a request while the other
// CPU idles, and leave it there until its next load-balancing tick,
// milliseconds later. The request and the dispatcher then take turns
// at that tick's pace unless the dispatcher yields.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
