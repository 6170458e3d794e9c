// The request object that flows through the layers: ingest creates a
// task, the policy queue orders it, dispatch places it, execution runs
// it. Also the Hinted contract that feeds SRPT its service estimates.
package live

import (
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/sim"
)

// Hinted is implemented by payloads that can estimate their own service
// time. Under Options.Policy PolicySRPT the estimate orders the central
// queue by remaining work (hint minus accumulated service); FCFS
// ignores it. Hints are advisory: a wrong hint reorders the queue but
// never affects correctness. A request that outruns its hint orders by
// elapsed overage behind every in-budget request, and unhinted payloads
// run last among queued peers (FIFO among themselves) — see
// task.RemainingCycles for the key contract.
type Hinted interface {
	ServiceHint() time.Duration
}

// SLOClass is a request's service class: the first-class multi-tenancy
// abstraction carried end-to-end from the wire frame through admission,
// queueing, dispatch, and per-class observability. Three classes cover
// the tenancy contract:
//
//   - ClassStandard (the zero value) is every request that doesn't
//     declare a class — v1 wire frames, classless payloads, existing
//     callers. Baseline admission and the middle priority tier.
//   - ClassCritical is protected traffic: a slice of every ingress
//     buffer is reserved for it, it occupies the top priority tier
//     under the cascade discipline, and the dispatcher tightens other
//     classes' quanta while critical work is queued.
//   - ClassSheddable is best-effort traffic: it is dropped first under
//     pressure (ErrShed, before standard feels any backpressure) and
//     occupies the bottom priority tier.
type SLOClass uint8

const (
	ClassStandard  SLOClass = 0
	ClassCritical  SLOClass = 1
	ClassSheddable SLOClass = 2
	// NumClasses bounds the class-indexed tables (quanta, admission
	// limits, stats, tails); SLOClass values at or above it are treated
	// as ClassStandard.
	NumClasses = 3
)

// Tier maps the class onto its strict-priority cascade tier: lower is
// served first (policy.Cascade's contract). The numbering is distinct
// from the class constants on purpose — the zero class (standard) is
// the *middle* tier, matching policy.DefaultTier for untiered items.
func (c SLOClass) Tier() int {
	switch c {
	case ClassCritical:
		return 0
	case ClassSheddable:
		return 2
	default:
		return 1
	}
}

// String returns the class's canonical lowercase name, used as the wire
// text token, the STATS/metrics label, and the -class flag value.
func (c SLOClass) String() string {
	switch c {
	case ClassCritical:
		return "critical"
	case ClassSheddable:
		return "sheddable"
	default:
		return "standard"
	}
}

// DefaultObjective is the class's default latency objective, used when
// a per-class SLO target isn't configured explicitly: critical answers
// interactively, standard is the general-purpose budget, sheddable only
// promises eventual service.
func (c SLOClass) DefaultObjective() time.Duration {
	switch c {
	case ClassCritical:
		return 1 * time.Millisecond
	case ClassSheddable:
		return 100 * time.Millisecond
	default:
		return 10 * time.Millisecond
	}
}

// ParseSLOClass resolves a class name (as produced by String); ok is
// false for unknown names.
func ParseSLOClass(name string) (SLOClass, bool) {
	switch name {
	case "standard", "":
		return ClassStandard, true
	case "critical":
		return ClassCritical, true
	case "sheddable":
		return ClassSheddable, true
	}
	return ClassStandard, false
}

// SLOClassed is implemented by payloads that declare a service class.
// The class drives admission (reserved critical capacity, sheddable
// shedding), the cascade queue's priority tier, per-class preemption
// quanta, and per-class tail accounting. Payloads that don't implement
// it are ClassStandard.
type SLOClassed interface {
	SLOClass() SLOClass
}

// NetTimed is implemented by payloads that crossed a network frontend
// before Submit. When the server runs with a Tracer, Submit records the
// wire timestamps retroactively as EvFrameRead/EvParsed events (writer
// obs.WriterNet) and the response Breakdown gains the Ingress
// component. Zero times mean the frontend did not stamp the request
// (tracing off at the connection layer); the assertion is skipped
// entirely on untraced servers.
type NetTimed interface {
	NetTimes() (read, parsed time.Time)
}

type parkEvent struct {
	done bool
	resp Response
}

// task is one in-flight request and its suspended continuation.
type task struct {
	id       uint64
	payload  any
	arrival  time.Time
	deadline time.Time // zero = none
	// Exactly one of result / done carries the response: result for
	// Submit (channel, capacity 1), done for SubmitFunc (callback).
	result chan Response
	done   func(Response)

	resume chan *executor
	parked chan parkEvent

	// abortErr, when set before a resume, makes the request unwind with
	// this error at the resume point instead of continuing. Written
	// before the resume send, read after the resume receive.
	abortErr error

	started      bool
	onDispatcher bool
	preempts     int

	// hintNS is the payload's service-time estimate (0 when absent or
	// the policy is hint-blind); with runNS it yields the SRPT key.
	hintNS int64
	// class is the payload's SLOClass (admission, cascade tier,
	// per-class quanta, per-class tails); ClassStandard when the payload
	// is not SLOClassed or class handling is off.
	class uint8

	// Centralqueue bookkeeping, guarded by the owning centralQueue's
	// mutex (see queue.go).
	inQueue bool
	dead    bool
	inDL    bool

	// Observability timestamps, written only when the server tracks
	// service time (tracer set or SRPT policy). All writes happen on
	// the goroutine that owns the task at that moment; the channel
	// hand-offs order them.
	enqueueTS  time.Time // first dispatcher ingest
	firstRunTS time.Time // first CPU hand-off
	runStart   time.Time // current running interval's start
	runNS      int64     // accumulated running time
	readTS     time.Time // wire read (NetTimed payloads on traced servers)

	// ctx is the request's Ctx, embedded so startTask doesn't allocate
	// one per request. Only the handler goroutine touches it, between
	// the first resume and the final parked send.
	ctx Ctx
}

// taskPool recycles tasks and their resume/parked handshake channels —
// the remaining fixed allocations on the per-request path. A task is
// returned to the pool at finish only when it provably has no aliases:
// deadline-free tasks never enter the deadline heap and are never
// tombstoned in a policy queue, so at delivery time nothing else holds
// a pointer to them. Tasks with a deadline are left to the GC (their
// heap entry may outlive delivery as a lazily-dropped tombstone).
var taskPool = sync.Pool{New: func() any {
	return &task{
		resume: make(chan *executor),
		parked: make(chan parkEvent),
	}
}}

// newTask returns a zeroed task with live handshake channels.
func newTask() *task {
	return taskPool.Get().(*task)
}

// release recycles the task when no queue structure can still alias it;
// see taskPool. The handshake channels are empty by construction: both
// are unbuffered, and the final parked send has completed before finish
// runs.
func (t *task) release() {
	if !t.deadline.IsZero() {
		return
	}
	*t = task{resume: t.resume, parked: t.parked}
	taskPool.Put(t)
}

// Tier places the task in the cascade queue's strict-priority order
// (policy.Tiered).
func (t *task) Tier() int { return SLOClass(t.class).Tier() }

// deliver hands the task's single response to its owner: the callback
// for SubmitFunc tasks, the capacity-1 channel for Submit tasks.
func (t *task) deliver(resp Response) {
	if t.done != nil {
		t.done(resp)
		return
	}
	t.result <- resp
}

func (t *task) expired(now time.Time) bool {
	return !t.deadline.IsZero() && now.After(t.deadline)
}

// SRPT key bands. Keys live in three disjoint ranges so the queue can
// never invert priorities across kinds:
//
//   - in-budget hinted requests key by remaining work, [0, hint];
//   - requests that have outrun their hint key by elapsed overage in a
//     band above any realistic remaining hint — the estimate is spent,
//     and under the inspection-paradox logic of scheduling with
//     estimated sizes, the longer a request has overrun the longer it
//     is likely to keep running, so larger overage sorts later;
//   - unhinted requests take the max-key sentinel: the runtime knows
//     nothing about them, so they run last among queued peers, FIFO
//     among themselves (the SRPT heap's seq tie-break).
//
// The old behavior clamped hint−run at zero, which sorted unhinted and
// over-budget requests to the *head* of the heap: a long request that
// exhausted its estimate became and stayed top priority, starving
// genuinely short requests — the classic underestimated-size pathology.
const (
	// overBudgetKeyBase opens the over-budget band: above any credible
	// remaining hint (2^60 ns ≈ 36 years), below the unhinted sentinel.
	overBudgetKeyBase = int64(1) << 60
	// unhintedKey is the max-key sentinel for hintless requests.
	unhintedKey = int64(^uint64(0) >> 1) // math.MaxInt64
)

// RemainingCycles keys the central queue under SRPT (cycles are
// nanoseconds here; only the ordering matters). The policy queue calls
// it during Push, when the pushing goroutine owns the task. See the key
// bands above for the contract.
func (t *task) RemainingCycles() sim.Cycles {
	if t.hintNS <= 0 {
		return sim.Cycles(unhintedKey)
	}
	rem := t.hintNS - t.runNS
	if rem < 0 {
		over := -rem
		if over >= unhintedKey-overBudgetKeyBase {
			over = unhintedKey - overBudgetKeyBase - 1 // stay below the sentinel
		}
		return sim.Cycles(overBudgetKeyBase + over)
	}
	return sim.Cycles(rem)
}

// taskAbort is the panic payload used to unwind an aborted request's
// handler; startTask's recover converts it to a Response error.
type taskAbort struct{ err error }

// runSlot is a worker's preallocated "currently running" record, read
// by its shard's dispatcher to detect expired quanta. The worker writes
// start, id and class before it publishes epoch, and zeroes epoch when
// the slice ends; the dispatcher reads epoch first and again after the
// other fields, so it acts only on a consistent snapshot. A slot that
// changes under the reader costs at most one loop iteration of delay,
// never an early signal, and a signal carrying a stale epoch is inert
// anyway (see executor.flag).
type runSlot struct {
	epoch atomic.Uint64 // 0 while the worker is between slices
	id    atomic.Uint64 // request id, for preempt-signal attribution
	start atomic.Int64  // slice start, ns since Server.base
	// class selects the effective quantum at signal time when per-class
	// quanta are configured.
	class atomic.Uint32
	_     [cacheLinePad - 28]byte
}

// set publishes a new slice: fields first, epoch last.
func (r *runSlot) set(epoch, id uint64, start time.Duration, class uint8) {
	r.start.Store(int64(start))
	r.id.Store(id)
	r.class.Store(uint32(class))
	r.epoch.Store(epoch)
}

// get returns the running slice; epoch is 0 when the worker is between
// slices or the slot changed while it was being read.
func (r *runSlot) get() (epoch, id uint64, start time.Duration, class uint8) {
	epoch = r.epoch.Load()
	if epoch == 0 {
		return 0, 0, 0, 0
	}
	id, start, class = r.id.Load(), time.Duration(r.start.Load()), uint8(r.class.Load())
	if r.epoch.Load() != epoch {
		return 0, 0, 0, 0
	}
	return epoch, id, start, class
}

// breakdown attributes the sojourn to components from the task's
// observability timestamps. Preempted absorbs the remainder, so the
// four components always sum exactly to total.
func (t *task) breakdown(end time.Time, total time.Duration) *Breakdown {
	b := &Breakdown{}
	if !t.readTS.IsZero() {
		if ing := t.arrival.Sub(t.readTS); ing > 0 {
			b.Ingress = ing
		}
	}
	if !t.enqueueTS.IsZero() {
		b.Handoff = t.enqueueTS.Sub(t.arrival)
		if !t.firstRunTS.IsZero() {
			b.Queue = t.firstRunTS.Sub(t.enqueueTS)
		} else {
			// Never ran: died queued (expired or aborted).
			b.Queue = end.Sub(t.enqueueTS)
		}
	}
	b.Service = time.Duration(t.runNS)
	if rest := total - b.Handoff - b.Queue - b.Service; rest > 0 {
		b.Preempted = rest
	}
	return b
}
