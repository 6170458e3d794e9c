// Ingest layer: admission control. Submit builds the task, applies the
// deadline, captures the SRPT service hint and the SLOClass, checks the
// stop gate, and places the task on a shard's ingress buffer —
// round-robin across shards with fallback to any sibling with room.
//
// Admission is class-aware when Options.ClassAdmission is on: each
// class has an ingress-occupancy watermark (Server.classLimit) and is
// rejected once every shard's buffer has crossed it. Critical admits up
// to the full buffer; standard stops short of the critical reserve
// (ErrQueueFull); sheddable is shed earliest (ErrShed), so under
// sustained overload the buffers drain sheddable load first and always
// keep headroom for critical arrivals. The occupancy probe reads
// len(chan), which is racy against concurrent submitters — the race
// only ever misjudges by the handful of in-flight sends, and errs on
// whichever side the interleaving lands, so the watermark holds in
// expectation and the exactly-one-response contract is untouched.
package live

import (
	"time"

	"concord/internal/obs"
)

// Submit enqueues a request and returns a channel that will receive
// exactly one response. The channel has capacity 1; the caller need not
// read it immediately. Submit never blocks: after Stop has begun it
// responds ErrServerStopped, and when every shard's submit buffer is
// full (or past the payload's class watermark) it responds ErrQueueFull
// — ErrShed for sheddable payloads dropped by admission control.
func (s *Server) Submit(payload any) <-chan Response {
	ch := make(chan Response, 1)
	s.submit(payload, ch, nil)
	return ch
}

// SubmitFunc is Submit with a completion callback instead of a response
// channel: done is invoked exactly once with the request's Response —
// synchronously on the submitting goroutine when the request is
// rejected (stop or backpressure), on the completing executor's
// goroutine otherwise. done must not block: it runs on the worker or
// dispatcher hot path. Connection layers use it to coalesce completions
// into batched flushes without a channel allocation per request; the
// Response's Req field carries the submitted payload back so a single
// shared callback can correlate without a per-request closure.
func (s *Server) SubmitFunc(payload any, done func(Response)) {
	s.submit(payload, nil, done)
}

// submit is the shared ingest path: exactly one of ch / done carries
// the response.
func (s *Server) submit(payload any, ch chan Response, done func(Response)) {
	t := newTask()
	t.id = s.nextID.Add(1)
	t.payload = payload
	t.arrival = time.Now()
	t.result = ch
	t.done = done
	if d := s.opts.RequestTimeout; d > 0 {
		t.deadline = t.arrival.Add(d)
	}
	if s.hinted.Load() {
		if h, ok := payload.(Hinted); ok {
			if hint := int64(h.ServiceHint()); hint > 0 {
				t.hintNS = hint
			}
		}
	}
	if s.classed.Load() {
		if c, ok := payload.(SLOClassed); ok {
			if cl := c.SLOClass(); cl > 0 && cl < NumClasses {
				t.class = uint8(cl)
			}
		}
	}
	if s.tr != nil {
		// Wire-path attribution: the frontend stamped the request before
		// it had an id, so record its events retroactively. Snapshot
		// sorts by timestamp, so late recording is invisible downstream.
		if nt, ok := payload.(NetTimed); ok {
			if read, parsed := nt.NetTimes(); !read.IsZero() {
				t.readTS = read
				s.tr.RecordAt(obs.WriterNet, obs.EvFrameRead, t.id, 0, read)
				if !parsed.IsZero() {
					s.tr.RecordAt(obs.WriterNet, obs.EvParsed, t.id, 0, parsed)
				}
			}
		}
	}
	s.submitMu.RLock()
	if s.stopping {
		s.submitMu.RUnlock()
		s.reject(t, ErrServerStopped, obs.StatusStopped)
		return
	}
	if testSubmitGate != nil {
		testSubmitGate()
	}
	// Snapshot the fields needed after enqueue: the moment enqueue
	// succeeds a worker may complete the task and release it to the
	// pool, so touching t again would race with its reset.
	id, class, arrival := t.id, t.class, t.arrival
	if s.enqueue(t) {
		s.stats.submitted.Add(1)
		s.stats.classSubmitted[class].Add(1)
		if testEnqueuedGate != nil {
			testEnqueuedGate()
		}
		if s.tr != nil {
			// Stamped at arrival, not now: the dispatcher and a worker
			// may already have recorded enqueue, start and completion,
			// and a submit event after them would count ingress twice.
			s.tr.RecordAt(obs.WriterClient, obs.EvSubmit, id, 0, arrival)
		}
		s.submitMu.RUnlock()
	} else {
		s.submitMu.RUnlock()
		err, status := ErrQueueFull, int64(obs.StatusQueueFull)
		if s.opts.ClassAdmission && SLOClass(t.class) == ClassSheddable {
			err, status = ErrShed, obs.StatusShed
			s.stats.shed.Add(1)
		}
		s.reject(t, err, status)
	}
}

// reject delivers a rejection response, records it against every
// configured sink, and recycles the task (a rejected task was never
// enqueued, so nothing can alias it).
func (s *Server) reject(t *task, err error, status int64) {
	s.stats.rejected.Add(1)
	s.stats.classRejected[t.class].Add(1)
	if s.tr != nil {
		s.tr.Record(obs.WriterClient, obs.EvReject, t.id, status)
	}
	if s.tail != nil {
		s.tail.ObserveRejected()
	}
	if s.ctails != nil {
		s.ctails.ObserveRejected(int(t.class))
	}
	t.deliver(Response{ID: t.id, Err: err, Req: t.payload, Done: time.Now()})
	t.release()
}

// enqueue places t on a shard's ingress buffer and reports whether it
// found room under t's class watermark. Single-shard servers keep the
// historical one-select fast path; multi-shard servers start at the
// round-robin cursor and fall back to each sibling once.
func (s *Server) enqueue(t *task) bool {
	limit := s.classLimit[t.class]
	if len(s.shards) == 1 {
		ch := s.shards[0].submit
		if len(ch) >= limit {
			return false
		}
		select {
		case ch <- t:
			return true
		default:
			return false
		}
	}
	n := uint64(len(s.shards))
	start := s.rr.Add(1)
	for i := uint64(0); i < n; i++ {
		ch := s.shards[(start+i)%n].submit
		if len(ch) >= limit {
			continue
		}
		select {
		case ch <- t:
			return true
		default:
		}
	}
	return false
}
