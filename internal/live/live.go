// Package live is a working Go implementation of the Concord runtime: a
// dispatcher goroutine plus worker goroutines serving µs-to-ms-scale
// requests with
//
//   - cooperative preemption via per-worker padded atomic flags that
//     handler code polls (the paper's compiler-enforced cooperation,
//     §3.1 — in Go the "compiler pass" is either explicit ctx.Poll()
//     calls or source instrumentation via cmd/concordc),
//   - JBSQ(k) bounded per-worker queues fed push-style by the
//     dispatcher (§3.2), and
//   - a work-conserving dispatcher that runs requests itself, under
//     time-based self-preemption, when all worker queues are full
//     (§3.3); such requests never migrate to workers.
//
// Go cannot hold 2µs quanta (timer and scheduler jitter are comparable),
// so realistic quanta here are ≥ 50µs; the scheduling *structure* is
// exactly the paper's. Each request runs on its own goroutine that parks
// cooperatively, mirroring Shinjuku-style user-level contexts.
//
// # Layering
//
// The runtime is four layers, one file each, with the request flowing
// top to bottom:
//
//	ingest (ingest.go)      Submit: admission, backpressure, deadlines,
//	                        shard selection (round-robin with fallback)
//	policy (queue.go)       the central queue: an internal/policy
//	                        Queue[*task] — FCFS or SRPT via
//	                        Options.Policy — behind a small concurrency
//	                        adapter with a deadline heap
//	dispatch (dispatch.go)  per-shard dispatcher loops: JBSQ placement,
//	                        preemption signaling, work conservation,
//	                        cross-shard stealing
//	execution (exec.go)     worker loops, request goroutines, Ctx and
//	                        its Poll probe
//
// live.go holds the public surface (Options, Server lifecycle, Stats)
// and task.go the request object that flows through the layers.
//
// Dispatch generalizes the paper's single dispatcher to N shards
// (Options.Shards), RackSched-style: each shard owns a disjoint worker
// subset and its own policy queue, ingest round-robins across shards,
// and a shard whose queue is empty steals never-started requests from
// the longest sibling queue, so work conservation (§3.3) holds
// globally. Shards: 1 is the paper's architecture unchanged.
//
// # Lifecycle
//
// A Server moves through three states: serving, draining, stopped.
// Submit never blocks: it either accepts a request (exactly one
// Response is always delivered for an accepted request) or rejects it
// immediately with ErrServerStopped (after Stop has begun) or
// ErrQueueFull (submit buffers full — explicit backpressure instead of
// unbounded blocking). Stop drains every accepted request before
// returning; Options.DrainTimeout bounds the drain, after which queued
// and parked requests are completed with ErrServerStopped and running
// requests are aborted at their next Poll. Options.RequestTimeout gives
// every request a deadline; requests that expire while queued or parked
// are completed with ErrDeadlineExceeded.
package live

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/obs"
)

// Handler is the application callback interface, mirroring the paper's
// three-callback API (§4.1): setup(), setup_worker(core), and
// handle_request(req).
type Handler interface {
	// Setup initializes global application state before serving.
	Setup()
	// SetupWorker initializes per-worker state; negative workers are
	// dispatchers (they run application code too when work-conserving):
	// -1 for shard 0 — the only dispatcher at Shards 1 — and -(s+1) for
	// shard s.
	SetupWorker(worker int)
	// Handle processes one request. Long handlers must call ctx.Poll()
	// regularly (or be instrumented with cmd/concordc) so preemption
	// works; they may bracket lock-held regions with ctx.BeginNoPreempt /
	// ctx.EndNoPreempt.
	Handle(ctx *Ctx, payload any) (any, error)
}

// Central-queue disciplines for Options.Policy, resolved through
// policy.NewQueue. The cascade disciplines serve strict SLOClass tiers
// (critical before standard before sheddable) with the named base
// discipline ordering each tier internally.
const (
	PolicyFCFS        = "fcfs"
	PolicySRPT        = "srpt"
	PolicyCascade     = "cascade"      // class tiers, FCFS within a tier
	PolicyCascadeSRPT = "cascade-srpt" // class tiers, SRPT within a tier
)

// policyHinted reports whether the discipline consumes service hints
// (and therefore needs run-time tracking and hint capture).
func policyHinted(name string) bool {
	return name == PolicySRPT || name == PolicyCascadeSRPT
}

// policyClassed reports whether the discipline orders by SLOClass tier.
func policyClassed(name string) bool {
	return name == PolicyCascade || name == PolicyCascadeSRPT
}

// ValidPolicy reports whether name is a discipline SetPolicy accepts.
func ValidPolicy(name string) bool {
	switch name {
	case PolicyFCFS, PolicySRPT, PolicyCascade, PolicyCascadeSRPT:
		return true
	}
	return false
}

// Options configures a Server.
type Options struct {
	// Workers is the number of worker goroutines. Default 2.
	Workers int
	// Shards is the number of dispatcher shards. Each shard owns a
	// disjoint contiguous subset of the workers and runs its own
	// central queue and dispatcher loop; ingest round-robins across
	// shards and an idle shard steals never-started requests from the
	// longest sibling queue. Default 1 (the paper's single dispatcher);
	// values above Workers are clamped to Workers.
	Shards int
	// Policy selects the central-queue discipline: PolicyFCFS (default),
	// PolicySRPT, or the class-tiered PolicyCascade / PolicyCascadeSRPT
	// (strict SLOClass priority, the named discipline within each
	// tier). Under SRPT, payloads implementing Hinted are
	// ordered by estimated remaining service time (hint minus
	// accumulated service); payloads that have outrun their hint order
	// by elapsed overage after every in-budget request, and unhinted
	// payloads run last among queued peers, FIFO among themselves (the
	// runtime knows nothing about them, so it must not let them starve
	// genuinely short hinted work). The policy can be switched at
	// runtime with SetPolicy.
	Policy string
	// Quantum is the initial scheduling quantum; 0 disables preemption.
	// Adjustable at runtime with SetQuantum, and refined per scheduling
	// class with SetClassQuantum.
	Quantum time.Duration
	// Adaptive declares that a control plane may retune this server at
	// runtime (SetPolicy / SetQuantum / SetClassQuantum). It enables
	// service-hint capture and run-time tracking from the start, so a
	// later switch into SRPT orders requests submitted before the
	// switch too.
	Adaptive bool
	// ServiceObserver, when non-nil, receives every successfully
	// completed request's accumulated service time in nanoseconds — the
	// feed for an online service-time estimator (e.g. the adaptive
	// controller's CV estimate). It runs on the completing executor's
	// hot path and must not block. Enables run-time tracking.
	ServiceObserver func(serviceNS int64)
	// QueueBound is k in JBSQ(k), counting the in-service request.
	// Default 2. 1 degenerates to a synchronous single queue.
	QueueBound int
	// WorkConserving lets a shard's dispatcher run requests when every
	// one of its worker queues is full.
	WorkConserving bool
	// DispatcherSlice is how long a dispatcher works on a stolen
	// request before checking for dispatcher duties. Default: Quantum,
	// or 100µs if Quantum is 0.
	DispatcherSlice time.Duration
	// CoopTimeshare makes request code call runtime.Gosched every N
	// polls so the dispatchers and workers make progress when there are
	// fewer CPUs than runtime threads. Only a dispatcher whose shard has
	// requests running or queued competes for a CPU (a drained shard's
	// dispatcher parks), and without a timeslice it cannot write the
	// preemption flags those requests need. 0 auto-detects from
	// GOMAXPROCS; negative disables.
	CoopTimeshare int
	// SubmitBuffer is the per-shard ingress channel capacity. Default
	// 4096. When every shard's buffer is full, Submit rejects with
	// ErrQueueFull rather than blocking.
	SubmitBuffer int
	// RequestTimeout bounds each request's total time at the server.
	// Requests that expire while queued or parked are completed with
	// ErrDeadlineExceeded; a request actively running handler code is
	// not interrupted (it is cooperative, like preemption). 0 disables.
	RequestTimeout time.Duration
	// DrainTimeout bounds Stop's graceful drain. When it expires,
	// queued and parked requests are completed with ErrServerStopped
	// and running requests are aborted at their next Poll. 0 waits for
	// every accepted request to finish.
	DrainTimeout time.Duration
	// Tracer, when non-nil, receives a lifecycle event at every request
	// state transition (submit, enqueue, dispatch, start, preempt
	// signal, yield, requeue, resume, completion) and enables per-request
	// latency Breakdown on every Response. It must be built with
	// obs.NewTracer (or obs.NewTracerSharded) for the same worker and
	// shard counts as this server. When nil, the cost at each
	// instrumentation point is a single predictable branch.
	Tracer *obs.Tracer
	// Tail, when non-nil, receives every delivered response's latency
	// and success at completion, feeding rolling-window tail quantiles
	// and SLO burn-rate accounting. Independent of Tracer.
	Tail *obs.TailTracker
	// Sketches, when non-nil, receives every successfully completed
	// request's (class, measured service ns, hint ns) — the per-class
	// service-time quantile sketches plus hint-error attribution that
	// the adaptive controller's class-quantum derivation and the
	// concord_svc_time_us / concord_hint_error metric families read.
	// Enables run-time tracking, hint capture, and class capture.
	Sketches *obs.ClassSketches
	// Capture, when non-nil, samples successfully completed requests
	// (arrival offset, class, hint, measured service time, achieved
	// latency, deadline) into a replayable window for counterfactual
	// shadow replay (internal/shadow). Enables run-time tracking, hint
	// capture, and class capture.
	Capture *CaptureRing
	// ClassAdmission enables per-SLOClass admission control on the
	// ingress buffers: a slice of every shard's SubmitBuffer is held in
	// reserve for ClassCritical, ClassSheddable is shed (ErrShed) at a
	// lower watermark than standard's ErrQueueFull point, and standard
	// is rejected before the critical reserve is touched. Enables class
	// capture. Off, every class sees the uniform ErrQueueFull contract.
	ClassAdmission bool
	// ClassTails, when non-nil, receives every delivered response's
	// latency and success keyed by SLOClass — one TailTracker/SLOTracker
	// per class, the per-tenant counterpart of Tail. Rejections
	// (ErrShed, ErrQueueFull, ErrServerStopped) count against the
	// rejected class's SLO. Enables class capture.
	ClassTails *obs.ClassTails
	//
	// Tail, ServiceObserver, Sketches, Capture, and ClassTails are
	// composed into one multiplexed completion observer at New, so the
	// completion path pays a single branch whether zero or all of them
	// are set.
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Shards > o.Workers {
		o.Shards = o.Workers
	}
	if o.Policy == "" {
		o.Policy = PolicyFCFS
	}
	if o.QueueBound <= 0 {
		o.QueueBound = 2
	}
	if o.DispatcherSlice <= 0 {
		if o.Quantum > 0 {
			o.DispatcherSlice = o.Quantum
		} else {
			o.DispatcherSlice = 100 * time.Microsecond
		}
	}
	if o.SubmitBuffer <= 0 {
		o.SubmitBuffer = 4096
	}
	if o.CoopTimeshare == 0 {
		if runtime.GOMAXPROCS(0) < o.Workers+o.Shards+1 {
			// Not enough CPUs to run the dispatchers, the workers, and
			// request code in parallel: timeshare cooperatively.
			o.CoopTimeshare = 64
		} else {
			o.CoopTimeshare = -1
		}
	}
	return o
}

// Response is the result of one request.
type Response struct {
	ID      uint64
	Payload any
	Err     error
	// Req echoes the submitted payload, letting a single shared
	// SubmitFunc callback correlate completions without a per-request
	// closure or channel. Always set, on rejections too.
	Req any
	// Latency is the total time at the server (sojourn).
	Latency time.Duration
	// Done is when the response was finalized (the terminal lifecycle
	// event). Connection layers use it to attribute egress time
	// (completion → bytes flushed to the socket). Always set.
	Done time.Time
	// Preemptions counts how many times the request yielded.
	Preemptions int
	// OnDispatcher reports the request was executed by a
	// work-conserving dispatcher.
	OnDispatcher bool
	// Breakdown attributes Latency to lifecycle components. It is
	// non-nil only when the server runs with Options.Tracer set.
	Breakdown *Breakdown
}

// Breakdown decomposes one request's sojourn into the paper's Table-1
// components. Handoff + Queue + Service + Preempted == Latency by
// construction (Preempted absorbs the remainder: requeue gaps plus
// scheduling jitter between timestamps). Ingress sits in front of that
// identity: it precedes the submit that Latency is measured from.
type Breakdown struct {
	// Ingress is wire read → submit: the network frontend's decode and
	// pipelined submit-path time. Zero unless the payload implements
	// NetTimed and the server runs with a Tracer.
	Ingress time.Duration
	// Handoff is submit → dispatcher ingest (notification cost).
	Handoff time.Duration
	// Queue is ingest → first time on a CPU (central + JBSQ queueing).
	Queue time.Duration
	// Service is time actually executing handler code.
	Service time.Duration
	// Preempted is time parked between a yield and the next resume.
	Preempted time.Duration
}

// Admission watermarks, as fractions of the per-shard SubmitBuffer.
// Only consulted when Options.ClassAdmission is on.
const (
	// criticalReserveFrac of each ingress buffer is reserved for
	// ClassCritical: standard and sheddable are rejected once occupancy
	// crosses 1−criticalReserveFrac, while critical admits to the brim.
	criticalReserveFrac = 8 // reserve = SubmitBuffer / 8 (12.5%)
	// shedFrac is ClassSheddable's watermark within the non-reserved
	// region: sheddable is shed once occupancy crosses 3/4 of the
	// standard limit, well before standard feels backpressure.
	shedNum, shedDen = 3, 4
)

// Stats are cumulative server counters, safe to read while serving.
// Completed counts delivered responses, including error responses for
// expired or aborted requests, so Submitted == Completed after Stop.
type Stats struct {
	Submitted   uint64
	Completed   uint64
	Rejected    uint64 // never accepted: queue full, shed, or server stopped
	Shed        uint64 // subset of Rejected: sheddable dropped by admission (ErrShed)
	Expired     uint64 // completed with ErrDeadlineExceeded
	Aborted     uint64 // completed with ErrServerStopped by drain abort
	Preemptions uint64
	// DispatcherRun counts requests completed by a work-conserving
	// dispatcher — from its own shard's queue or a sibling's. (It was
	// once named Stolen, which wrongly suggested cross-shard migration;
	// Steals is the true migration counter.)
	DispatcherRun uint64
	Steals        uint64 // never-started requests migrated between shards
	// ClassSubmitted / ClassCompleted / ClassRejected break the
	// top-line counters down by SLOClass (accepted, delivered, never
	// accepted). Indexed by SLOClass.
	ClassSubmitted [NumClasses]uint64
	ClassCompleted [NumClasses]uint64
	ClassRejected  [NumClasses]uint64
}

// Sentinel errors. Compare with errors.Is.
var (
	// ErrServerStopped is returned for submissions after Stop has begun
	// and for accepted requests abandoned when DrainTimeout expires.
	ErrServerStopped = errors.New("live: server stopped")
	// ErrQueueFull is returned when the submit buffer is full (for
	// ClassStandard under admission control: when occupancy has crossed
	// into the critical reserve).
	ErrQueueFull = errors.New("live: submit queue full")
	// ErrShed is returned for ClassSheddable requests dropped by
	// admission control under pressure — the load was shed by policy,
	// before the buffers were exhausted, so retrying immediately is
	// counterproductive; ErrQueueFull means the server is truly out of
	// room even for protected traffic.
	ErrShed = errors.New("live: sheddable request shed under load")
	// ErrDeadlineExceeded is returned when a request's RequestTimeout
	// expires before it completes.
	ErrDeadlineExceeded = errors.New("live: request deadline exceeded")
)

// cacheLinePad avoids false sharing between per-worker flags.
const cacheLinePad = 64

// Test-only scheduling gates. When non-nil they run at historically
// racy hand-off points, widening windows that are a few instructions
// wide (and unobservable on single-CPU machines) so the lifecycle
// regression tests can exercise them deterministically.
var (
	testSubmitGate   func() // between Submit's stop check and its enqueue
	testEnqueuedGate func() // between Submit's enqueue and its submit event
	testRequeueGate  func() // between a preemption park and its re-submit
	testStealGate    func() // between a steal's pop and its local dispatch
	testDrainedGate  func() // between drained's occupancy and buffer reads
)

// Server is a running Concord scheduling runtime.
type Server struct {
	opts    Options
	handler Handler

	shards  []*shard
	locals  []chan *task
	occ     []atomic.Int32 // per-worker occupancy incl. in-service
	workers []*executor
	running []runSlot // per-worker current slice, read by dispatchers
	shardOf []int     // worker index → owning shard
	// base anchors the monotonic slice-start offsets in runSlot.
	base time.Time

	// tr is Options.Tracer, kept as a concrete pointer so the disabled
	// path is one nil-check branch per event site. comp is the composed
	// completion observer (Tail + ServiceObserver + Sketches + Capture +
	// ClassTails) under the same contract: one nil check per completion.
	// tail and ctails are kept separately for the rejection paths, which
	// bypass finish.
	tr     *obs.Tracer
	tail   *obs.TailTracker
	ctails *obs.ClassTails
	comp   *compObserver

	// classLimit is the per-class ingress occupancy watermark (per
	// shard): a class is rejected once len(shard.submit) reaches its
	// limit. With ClassAdmission off every entry equals SubmitBuffer, so
	// the check degenerates to the channel's own capacity.
	classLimit [NumClasses]int

	// trackRun enables per-task service-time accumulation: needed for
	// Breakdown (tracer set), for SRPT's remaining-work keys, and for
	// ServiceObserver. Atomic because SetPolicy(srpt) enables it at
	// runtime; once on it stays on.
	trackRun atomic.Bool
	// hinted enables the Hinted type assertion on Submit; SRPT (current
	// or reachable via SetPolicy on an Adaptive server) consumes
	// service hints. Like trackRun, it only ever turns on.
	hinted atomic.Bool

	// quantum is the live preemption quantum in nanoseconds,
	// runtime-adjustable via SetQuantum; 0 disables preemption.
	quantum atomic.Int64
	// classQuanta overrides quantum per SLOClass; 0 falls back to the
	// global quantum. Consulted at preemption-signal time in the
	// dispatch layer.
	classQuanta [NumClasses]atomic.Int64
	// classed is set once anything consumes classes (a class quantum, a
	// cascade policy, admission control, class tails, or an estimator
	// sink); until then Submit skips the SLOClassed type assertion
	// entirely.
	classed atomic.Bool
	// polState is the target policy and its change epoch; each shard's
	// dispatcher swaps its queue at a quiesce point when the epoch
	// moves past the one it last applied. policyMu serializes writers.
	polState atomic.Pointer[policyState]
	policyMu sync.Mutex

	rr     atomic.Uint64 // round-robin ingest cursor (multi-shard only)
	nextID atomic.Uint64
	stats  struct {
		submitted      atomic.Uint64
		completed      atomic.Uint64
		rejected       atomic.Uint64
		shed           atomic.Uint64
		expired        atomic.Uint64
		aborted        atomic.Uint64
		preemptions    atomic.Uint64
		dispatcherRun  atomic.Uint64
		steals         atomic.Uint64
		classSubmitted [NumClasses]atomic.Uint64
		classCompleted [NumClasses]atomic.Uint64
		classRejected  [NumClasses]atomic.Uint64
	}

	// submitMu orders Submit against Stop: Submit holds the read lock
	// across the stopping check and the enqueue, so once Stop has taken
	// the write lock and set stopping, no further task can enter any
	// submit buffer and every later Submit deterministically returns
	// ErrServerStopped.
	submitMu sync.RWMutex
	stopping bool // guarded by submitMu

	started atomic.Bool
	stopped atomic.Bool // dispatcher-visible mirror of stopping
	abort   atomic.Bool // drain deadline expired: fail pending work
	wg      sync.WaitGroup

	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds a server; call Start before submitting. It panics when
// Options.Policy is unknown or Options.Tracer was built for a different
// worker or shard count.
func New(h Handler, opts Options) *Server {
	opts = opts.withDefaults()
	if opts.Tracer != nil &&
		(opts.Tracer.Workers() != opts.Workers || opts.Tracer.Shards() != opts.Shards) {
		panic(fmt.Sprintf("live: tracer built for %d workers / %d shards, server has %d / %d",
			opts.Tracer.Workers(), opts.Tracer.Shards(), opts.Workers, opts.Shards))
	}
	s := &Server{
		opts:    opts,
		tr:      opts.Tracer,
		tail:    opts.Tail,
		ctails:  opts.ClassTails,
		comp:    newCompObserver(opts),
		handler: h,
		locals:  make([]chan *task, opts.Workers),
		occ:     make([]atomic.Int32, opts.Workers),
		workers: make([]*executor, opts.Workers),
		running: make([]runSlot, opts.Workers),
		shardOf: make([]int, opts.Workers),
		base:    time.Now(),
	}
	// The estimator sinks need measured service times, submitted hints
	// (for hint-error attribution and replay), and scheduling classes.
	estimating := opts.Sketches != nil || opts.Capture != nil
	s.trackRun.Store(opts.Tracer != nil || policyHinted(opts.Policy) ||
		opts.Adaptive || opts.ServiceObserver != nil || estimating)
	s.hinted.Store(policyHinted(opts.Policy) || opts.Adaptive || estimating)
	if estimating || opts.ClassAdmission || opts.ClassTails != nil || policyClassed(opts.Policy) {
		s.classed.Store(true)
	}
	// Per-class admission watermarks (ingress occupancy at which the
	// class is rejected). Critical admits to the brim; standard stops at
	// the critical reserve; sheddable sheds at 3/4 of standard's limit.
	b := opts.SubmitBuffer
	for c := range s.classLimit {
		s.classLimit[c] = b
	}
	if opts.ClassAdmission {
		reserve := b / criticalReserveFrac
		if reserve < 1 {
			reserve = 1
		}
		std := b - reserve
		if std < 1 {
			std = 1
		}
		shed := std * shedNum / shedDen
		if shed < 1 {
			shed = 1
		}
		s.classLimit[ClassStandard] = std
		s.classLimit[ClassSheddable] = shed
	}
	s.quantum.Store(int64(opts.Quantum))
	s.polState.Store(&policyState{name: opts.Policy})
	for i := range s.locals {
		s.locals[i] = make(chan *task, opts.QueueBound)
		s.workers[i] = &executor{id: i, writer: i}
	}
	for sid := 0; sid < opts.Shards; sid++ {
		q, err := newCentralQueue(opts.Policy)
		if err != nil {
			panic("live: " + err.Error())
		}
		sh := &shard{
			id:     sid,
			writer: obs.DispatcherWriter(sid),
			q:      q,
			submit: make(chan *task, opts.SubmitBuffer),
			ex:     &executor{id: -(sid + 1), writer: obs.DispatcherWriter(sid)},
			wake:   make(chan struct{}, 1),
			done:   make(chan struct{}),
		}
		// Contiguous worker partition: shard i owns [i·W/S, (i+1)·W/S).
		lo, hi := sid*opts.Workers/opts.Shards, (sid+1)*opts.Workers/opts.Shards
		for w := lo; w < hi; w++ {
			sh.workers = append(sh.workers, w)
			s.shardOf[w] = sid
		}
		sh.lastFlagged = make([]uint64, len(sh.workers))
		s.shards = append(s.shards, sh)
	}
	return s
}

// Start launches the dispatchers and workers.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		s.started.Store(true)
		s.handler.Setup()
		for i := 0; i < s.opts.Workers; i++ {
			s.wg.Add(1)
			go s.workerLoop(i)
		}
		for _, sh := range s.shards {
			go s.dispatcherLoop(sh)
		}
	})
}

// Stop drains the server and shuts it down. Every request accepted
// before Stop gets exactly one response: with no DrainTimeout, Stop
// waits for all of them to complete; with one, requests still queued or
// parked when it expires are completed with ErrServerStopped and
// running requests are aborted at their next Poll. Submissions after
// Stop begins are rejected with ErrServerStopped. Stop is idempotent.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.submitMu.Lock()
		s.stopping = true
		s.submitMu.Unlock()
		s.stopped.Store(true)
		s.wakeAll()
		if !s.started.Load() {
			return // never started: nothing to drain
		}
		allDone := make(chan struct{})
		go func() {
			for _, sh := range s.shards {
				<-sh.done
			}
			close(allDone)
		}()
		if d := s.opts.DrainTimeout; d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-allDone:
				timer.Stop()
			case <-timer.C:
				s.abort.Store(true)
				s.wakeAll()
				<-allDone
			}
		} else {
			<-allDone
		}
		for _, ch := range s.locals {
			close(ch)
		}
		s.wg.Wait()
	})
}

// Depths is a point-in-time queue-occupancy snapshot: momentary
// overload that lifetime counters cannot show.
type Depths struct {
	// Submit is the total ingress buffer occupancy across shards
	// (accepted, not yet ingested by a dispatcher).
	Submit int
	// Central is the total central-queue length across shards.
	Central int
	// ShardQueues is the per-shard central-queue length.
	ShardQueues []int
	// ShardOcc is the per-shard sum of its workers' JBSQ occupancy.
	ShardOcc []int
	// Workers is per-worker JBSQ occupancy including the in-service
	// request.
	Workers []int
}

// Depths returns a live queue-depth snapshot. Safe to call while
// serving.
func (s *Server) Depths() Depths {
	d := Depths{
		Workers:     make([]int, len(s.occ)),
		ShardQueues: make([]int, len(s.shards)),
		ShardOcc:    make([]int, len(s.shards)),
	}
	for _, sh := range s.shards {
		d.Submit += len(sh.submit)
		q := sh.q.Len()
		d.ShardQueues[sh.id] = q
		d.Central += q
	}
	for w := range s.occ {
		o := int(s.occ[w].Load())
		d.Workers[w] = o
		d.ShardOcc[s.shardOf[w]] += o
	}
	return d
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Submitted:     s.stats.submitted.Load(),
		Completed:     s.stats.completed.Load(),
		Rejected:      s.stats.rejected.Load(),
		Shed:          s.stats.shed.Load(),
		Expired:       s.stats.expired.Load(),
		Aborted:       s.stats.aborted.Load(),
		Preemptions:   s.stats.preemptions.Load(),
		DispatcherRun: s.stats.dispatcherRun.Load(),
		Steals:        s.stats.steals.Load(),
	}
	for c := 0; c < NumClasses; c++ {
		st.ClassSubmitted[c] = s.stats.classSubmitted[c].Load()
		st.ClassCompleted[c] = s.stats.classCompleted[c].Load()
		st.ClassRejected[c] = s.stats.classRejected[c].Load()
	}
	return st
}

// Shards returns the configured dispatcher-shard count.
func (s *Server) Shards() int { return len(s.shards) }

// ---------- runtime actuators (the adaptive control plane's surface) ----------

// policyState is the target discipline and a monotonically increasing
// change epoch; dispatchers compare the epoch to the one they last
// applied and drain-and-swap their queue when it moves.
type policyState struct {
	epoch uint64
	name  string
}

// SetQuantum adjusts the preemption quantum at runtime; 0 disables
// preemption, negative values are clamped to 0. Dispatchers observe the
// new value on their next signaling pass. Safe to call while serving.
func (s *Server) SetQuantum(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.quantum.Store(int64(d))
}

// Quantum returns the current preemption quantum.
func (s *Server) Quantum() time.Duration { return time.Duration(s.quantum.Load()) }

// SetClassQuantum overrides the quantum for one SLOClass (payloads
// implementing SLOClassed, or class-stamped wire requests); 0 removes
// the override, falling back to the global quantum. Out-of-range
// classes are ignored. The table is consulted at preemption-signal
// time, so a change takes effect for requests already running.
func (s *Server) SetClassQuantum(class int, d time.Duration) {
	if class < 0 || class >= NumClasses {
		return
	}
	if d < 0 {
		d = 0
	}
	s.classQuanta[class].Store(int64(d))
	if d > 0 {
		s.classed.Store(true)
	}
}

// ClassQuantum returns the class's quantum override (0 = none).
func (s *Server) ClassQuantum(class int) time.Duration {
	if class < 0 || class >= NumClasses {
		return 0
	}
	return time.Duration(s.classQuanta[class].Load())
}

// SetPolicy switches the central-queue discipline at runtime: each
// shard's dispatcher drains its policy queue into a fresh one of the
// new discipline at a quiesce point (between dispatch decisions, under
// the queue lock), so queued requests are re-ordered rather than lost.
// Switching to SRPT enables service-hint capture and run-time tracking
// for subsequently submitted requests; on a server built without
// Options.Adaptive, requests submitted before the switch carry no hint
// and therefore run last, FIFO, under the new discipline. Safe to call
// while serving; returns an error for unknown names.
func (s *Server) SetPolicy(name string) error {
	if !ValidPolicy(name) {
		return fmt.Errorf("live: unknown policy %q (have %s, %s, %s, %s)",
			name, PolicyFCFS, PolicySRPT, PolicyCascade, PolicyCascadeSRPT)
	}
	s.policyMu.Lock()
	defer s.policyMu.Unlock()
	cur := s.polState.Load()
	if cur.name == name {
		return nil
	}
	if policyHinted(name) {
		// Order matters: hint capture must be live before any dispatcher
		// applies the SRPT queue, or a racing Submit could enqueue a
		// hinted payload without its key.
		s.trackRun.Store(true)
		s.hinted.Store(true)
	}
	if policyClassed(name) {
		// Same ordering argument for the class byte the cascade tiers on.
		s.classed.Store(true)
	}
	s.polState.Store(&policyState{epoch: cur.epoch + 1, name: name})
	s.wakeAll() // a parked dispatcher swaps its queue now, not at its next submission
	return nil
}

// Policy returns the target central-queue discipline (the last accepted
// SetPolicy value, applied by each dispatcher at its next quiesce
// point).
func (s *Server) Policy() string { return s.polState.Load().name }

// Do submits a request and waits for its response.
func (s *Server) Do(payload any) Response {
	return <-s.Submit(payload)
}
