// Dispatch layer: per-shard dispatcher loops. Each shard owns a
// disjoint worker subset and its own central queue; its loop ingests
// submissions, signals preemption for its workers, expires deadlines,
// JBSQ-pushes to the shortest local queue (§3.2), steals never-started
// requests from the longest sibling queue when it would otherwise idle,
// and runs requests itself under time-based self-preemption when every
// local queue is full (§3.3). One shard is exactly the paper's single
// dispatcher.
//
// The paper gives its dispatcher a dedicated spinning core. A goroutine
// that spins on Gosched instead keeps the Go scheduler from polling the
// network, so a dispatcher spins only while its shard has work, and
// parks once the shard is fully drained (see park).
package live

import (
	"runtime"
	"sync/atomic"
	"time"

	"concord/internal/obs"
)

// critQuantumShrink divides a running lower-tier request's effective
// quantum while ClassCritical work is queued on its shard, so critical
// requests reach a CPU within a fraction of the normal quantum instead
// of a full one.
const critQuantumShrink = 4

// parkSpins is how many consecutive idle loop iterations a drained
// shard's dispatcher yields through before it parks. A few dozen
// Gosched rounds cover the gap between back-to-back pipelined requests,
// so those skip the park/unpark hand-off; longer idle gaps park and
// leave the CPU to the netpoller and the workers.
const parkSpins = 64

// osYieldEvery is how many idle loop iterations pass between the OS
// yields a dispatcher makes while a signalled request is overdue.
const osYieldEvery = 8

// shard is one dispatcher: policy queue, ingress buffer, worker subset,
// and the work-conserving executor state.
type shard struct {
	id     int
	writer int // obs writer id for this shard's dispatcher ring
	q      *centralQueue
	submit chan *task
	// workers holds the global indices of the workers this shard owns.
	workers []int
	// ex is the dispatcher-as-executor identity for work conservation.
	ex *executor
	// saved parks a preempted dispatcher-run request between slices;
	// such requests never migrate (§3.3).
	saved *task
	// lastFlagged dedups preemption signals per local worker (parallel
	// to workers).
	lastFlagged []uint64
	// polEpoch is the policy-change epoch this shard last applied; when
	// Server.polState moves past it the loop drain-and-swaps its queue
	// at the top of the iteration (a quiesce point: no dispatch
	// decision is in flight).
	polEpoch uint64
	// wake (capacity 1) unparks the dispatcher for events that do not
	// arrive through submit: Stop, the drain-deadline abort, SetPolicy,
	// and a backlogged sibling that wants it to steal.
	wake chan struct{}
	// parked is set while the dispatcher is (about to be) blocked in
	// park. A backlogged sibling claims it (true→false) before sending
	// on wake, so each backlogged iteration unparks a different shard.
	parked atomic.Bool
	done   chan struct{} // this shard's dispatcher exited
}

func (s *Server) dispatcherLoop(sh *shard) {
	s.handler.SetupWorker(sh.ex.id)
	multi := len(s.shards) > 1
	idle := 0 // consecutive iterations without progress

	for {
		progress := false
		overdue := false // a signalled request has not yielded a quantum on
		aborting := s.abort.Load()

		// 0. Policy swap: when the control plane has retargeted the
		// discipline (SetPolicy), drain this shard's queue into a fresh
		// one of the new kind. This is the quiesce point — between
		// dispatch decisions, under the queue lock — so queued requests
		// are re-ordered, never lost or duplicated.
		if ps := s.polState.Load(); ps.epoch != sh.polEpoch {
			sh.polEpoch = ps.epoch
			sh.q.SwapPolicy(ps.name)
			progress = true
		}

		// 1. Ingest submissions (bounded batch per iteration, so
		// preemption signaling stays timely). Runs in abort mode too:
		// workers re-submit preempted tasks here and must never be
		// stranded against a departed dispatcher.
		for i := 0; i < 64; i++ {
			select {
			case t := <-sh.submit:
				s.ingest(sh, t)
				progress = true
				continue
			default:
			}
			break
		}

		if aborting {
			// Drain deadline expired: fail everything queued or parked,
			// and signal every running local request so it parks (and is
			// then failed by its worker) at its next Poll.
			for i, w := range sh.workers {
				if epoch, id, _, _ := s.running[w].get(); epoch != 0 {
					s.workers[w].flag.Store(epoch)
					if s.tr != nil && epoch != sh.lastFlagged[i] {
						sh.lastFlagged[i] = epoch
						s.tr.Record(sh.writer, obs.EvPreemptSignal, id, int64(w))
					}
				}
			}
			if s.failPending(sh) {
				progress = true
			}
		} else {
			// 2. Preemption signaling: write the flag of any local
			// worker whose current request outlived its quantum — the
			// class's override when one is set, the runtime-adjustable
			// global quantum otherwise. While ClassCritical work waits
			// in this shard's queue, running lower-tier requests get
			// their quantum tightened by critQuantumShrink so a CPU
			// frees up sooner — the dispatch-layer half of the priority
			// cascade (the queue half is the cascade discipline's tier
			// order). The flag carries the epoch being preempted, so a
			// signal aimed at a finished request is inert for its
			// successor — no check-then-act retraction window.
			baseQ := time.Duration(s.quantum.Load())
			classed := s.classed.Load()
			if baseQ > 0 || classed {
				now := time.Since(s.base)
				critWaiting := classed && sh.q.CriticalLen() > 0
				for i, w := range sh.workers {
					epoch, id, start, class := s.running[w].get()
					if epoch == 0 {
						continue
					}
					q := baseQ
					if classed {
						if cq := s.classQuanta[class].Load(); cq > 0 {
							q = time.Duration(cq)
						}
						if critWaiting && SLOClass(class) != ClassCritical {
							q /= critQuantumShrink
						}
					}
					if q <= 0 {
						continue
					}
					if epoch == sh.lastFlagged[i] {
						// Already signalled; overdue while it still runs a
						// quantum after the signal.
						overdue = overdue || now-start >= 2*q
						continue
					}
					if now-start >= q {
						s.workers[w].flag.Store(epoch)
						sh.lastFlagged[i] = epoch
						if s.tr != nil {
							s.tr.Record(sh.writer, obs.EvPreemptSignal, id, int64(w))
						}
						progress = true
					}
				}
			}

			// 2b. Deadline sweep: requests stuck behind full worker
			// queues still expire. The heap head check is O(1), so this
			// runs every iteration instead of on a coarse timer.
			if s.opts.RequestTimeout > 0 && sh.q.Len() > 0 {
				for _, t := range sh.q.SweepExpired(time.Now()) {
					s.expire(sh, t)
					progress = true
				}
			}

			// 3. JBSQ push: move requests to the shortest non-full
			// local queue, expiring lazily at the pop, stealing from
			// the longest sibling when the local queue runs dry.
			for {
				w := s.shortestQueue(sh)
				if w < 0 {
					break
				}
				t, ok := sh.q.Pop()
				if !ok && multi {
					t, ok = s.steal(sh)
				}
				if !ok {
					break
				}
				if !t.deadline.IsZero() && t.expired(time.Now()) {
					s.expire(sh, t)
					progress = true
					continue
				}
				s.occ[w].Add(1)
				if s.tr != nil {
					s.tr.Record(sh.writer, obs.EvDispatch, t.id, int64(w))
				}
				s.locals[w] <- t
				progress = true
			}
			// Work left queued means every local worker is full: hand
			// it to a parked sibling, which would otherwise sleep through
			// a backlog its own workers could take.
			if multi && sh.q.Len() > 0 {
				s.wakeSibling(sh)
			}

			// 4. Work conservation (also during graceful drain — the
			// dispatcher helping finishes the backlog sooner).
			if s.opts.WorkConserving && !progress {
				if t := sh.saved; t != nil {
					sh.saved = nil
					if t.expired(time.Now()) {
						s.expire(sh, t)
					} else {
						s.runSlice(sh, t) // re-sets saved if the task parks again
					}
					progress = true
				} else if t := s.takeNonStarted(sh); t != nil {
					s.runSlice(sh, t)
					progress = true
				}
			}
		}

		// stopped is read before drained: once it reads true, every
		// accepted submission is already in an ingress buffer.
		stopped := s.stopped.Load()
		if stopped && s.drained(sh) {
			close(sh.done)
			return
		}
		if progress {
			idle = 0
			continue
		}
		// Park only while not stopped: Stop's wake is then still
		// pending for this park, while a stopping dispatcher keeps
		// spinning until its drain completes.
		if idle++; idle >= parkSpins && !stopped && s.drained(sh) {
			idle = 0
			s.park(sh)
			continue
		}
		runtime.Gosched()
		// A signalled request that has not yielded a quantum later is
		// most likely on a thread queued behind this one on the same
		// CPU, which Gosched cannot reach (see osYield).
		if overdue && idle%osYieldEvery == 0 {
			osYield()
		}
	}
}

// ingest moves one submission from the shard's ingress buffer into its
// central queue.
func (s *Server) ingest(sh *shard, t *task) {
	if s.tr != nil {
		if t.enqueueTS.IsZero() {
			t.enqueueTS = time.Now()
		}
		s.tr.Record(sh.writer, obs.EvEnqueueCentral, t.id, 0)
	}
	sh.q.Push(t)
}

// park blocks a drained shard's dispatcher until a submission or a wake
// arrives. Nothing runs on a drained shard's workers, so no quantum,
// deadline or JBSQ slot needs watching meanwhile. No wake-up is lost:
// the ingress buffer is itself the wake condition, so a Submit that
// lands after the drained check is still there for the select.
func (s *Server) park(sh *shard) {
	sh.parked.Store(true)
	select {
	case t := <-sh.submit:
		s.ingest(sh, t)
	case <-sh.wake:
	}
	sh.parked.Store(false)
}

// signal wakes the shard's dispatcher if it is parked, or makes its
// next park return at once. It never blocks.
func (sh *shard) signal() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// wakeAll signals every shard's dispatcher.
func (s *Server) wakeAll() {
	for _, sh := range s.shards {
		sh.signal()
	}
}

// wakeSibling unparks one parked sibling of sh so it can steal. It
// runs on every backlogged iteration, so it loads before it swaps: a
// failing compare-and-swap still takes the sibling's cache line.
func (s *Server) wakeSibling(sh *shard) {
	for _, sib := range s.shards {
		if sib != sh && sib.parked.Load() && sib.parked.CompareAndSwap(true, false) {
			sib.signal()
			return
		}
	}
}

// shortestQueue returns the shard-local worker with the fewest queued
// requests, or -1 when every local queue is at the JBSQ bound.
func (s *Server) shortestQueue(sh *shard) int {
	best, bestOcc := -1, int32(s.opts.QueueBound)
	for _, w := range sh.workers {
		if o := s.occ[w].Load(); o < bestOcc {
			best, bestOcc = w, o
		}
	}
	return best
}

// steal pops one never-started request from the longest sibling queue.
// Only never-started requests migrate: once a request has run on a
// shard's worker its requeue path and epoch bookkeeping stay with that
// shard, mirroring the paper's rule that dispatcher-run requests never
// migrate (§3.3). The thief dispatches the stolen task on this same
// loop iteration — before its own drained check — so a steal racing
// Stop can never strand the task.
func (s *Server) steal(sh *shard) (*task, bool) {
	var victim *shard
	best := 0
	for _, sib := range s.shards {
		if sib == sh {
			continue
		}
		if l := sib.q.Len(); l > best {
			best, victim = l, sib
		}
	}
	if victim == nil {
		return nil, false
	}
	t, ok := victim.q.PopNonStarted()
	if !ok {
		return nil, false
	}
	if testStealGate != nil {
		testStealGate()
	}
	s.stats.steals.Add(1)
	return t, true
}

// takeNonStarted pops the next never-started request from the shard's
// queue — the only kind the dispatcher may run itself (§3.3) — but only
// when every local worker queue is full. Expired requests found on the
// way are completed with ErrDeadlineExceeded.
func (s *Server) takeNonStarted(sh *shard) *task {
	for _, w := range sh.workers {
		if s.occ[w].Load() < int32(s.opts.QueueBound) {
			return nil
		}
	}
	now := time.Now()
	for {
		t, ok := sh.q.PopNonStarted()
		if !ok {
			return nil
		}
		if t.expired(now) {
			s.expire(sh, t)
			continue
		}
		return t
	}
}

// runSlice executes one dispatcher slice of a task the work-conserving
// dispatcher runs itself (§3.3).
func (s *Server) runSlice(sh *shard, t *task) {
	ex := sh.ex
	ex.sliceStart = time.Now()
	ex.sliceLen = s.opts.DispatcherSlice
	first := !t.started
	if !t.started {
		t.started = true
		t.onDispatcher = true
		s.startTask(t)
	}
	if s.tr != nil {
		if t.firstRunTS.IsZero() {
			t.firstRunTS = ex.sliceStart
		}
		kind := obs.EvResume
		if first {
			kind = obs.EvStart
		}
		s.tr.Record(sh.writer, kind, t.id, 0)
	}
	// Capture trackRun once per slice: it can flip on mid-slice
	// (SetPolicy srpt), and charging Since(runStart) against a zero
	// runStart would corrupt runNS.
	track := s.trackRun.Load()
	if track {
		t.runStart = ex.sliceStart
	}
	t.resume <- ex
	ev := <-t.parked
	if track {
		t.runNS += int64(time.Since(t.runStart))
	}
	if ev.done {
		ev.resp.OnDispatcher = true
		s.finish(sh.writer, t, ev.resp)
		s.stats.dispatcherRun.Add(1)
		return
	}
	t.preempts++
	s.stats.preemptions.Add(1)
	if s.tr != nil {
		s.tr.Record(sh.writer, obs.EvYield, t.id, 0)
	}
	// Dispatcher-run requests cannot migrate: park in the dedicated
	// buffer.
	sh.saved = t
}

// failPending completes every queued or parked request of this shard
// with ErrServerStopped; it reports whether it failed anything.
func (s *Server) failPending(sh *shard) bool {
	failed := false
	for _, t := range sh.q.DrainAll() {
		s.failTask(t, ErrServerStopped, sh.ex)
		s.stats.aborted.Add(1)
		failed = true
	}
	if t := sh.saved; t != nil {
		sh.saved = nil
		s.failTask(t, ErrServerStopped, sh.ex)
		s.stats.aborted.Add(1)
		failed = true
	}
	return failed
}

// expire completes a queued or parked request with ErrDeadlineExceeded.
func (s *Server) expire(sh *shard, t *task) {
	s.stats.expired.Add(1)
	s.failTask(t, ErrDeadlineExceeded, sh.ex)
}

// drained reports whether this shard has no pending work anywhere:
// local worker queues, ingress, central queue, or saved slot. A stolen
// task never floats unaccounted between shards (see steal), so every
// shard observing its own drain implies the server has drained.
//
// Occupancy is read first. A worker re-submitting a preempted task
// holds its occupancy until the send completes, so once every count
// reads 0 the task is already in the ingress buffer. Read the other way
// round, a requeue landing between the two reads was missed: the
// dispatcher saw an empty buffer, then an idle worker, and shut down
// with the task still buffered.
func (s *Server) drained(sh *shard) bool {
	for _, w := range sh.workers {
		if s.occ[w].Load() != 0 {
			return false
		}
	}
	if testDrainedGate != nil {
		testDrainedGate()
	}
	return len(sh.submit) == 0 && sh.q.Len() == 0 && sh.saved == nil
}
