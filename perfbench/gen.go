package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/live"
	"concord/internal/proto"
)

// drainWait bounds how long a phase waits for its last responses after
// its last request was sent; anything later is missing.
const drainWait = 10 * time.Second

// result is one phase's outcome, every time in ns after the phase start.
type result struct {
	s       *schedule
	sent    []int64 // when the request left the generator (write or SubmitFunc call)
	recv    []int64 // when its response was decoded; 0 = never
	status  []byte
	answers []int32
	bad     []bool // answered, but not as a correct server would

	wrong      int    // answers a correct server could not give, duplicates, strays
	firstWrong string // the first of them, for the report

	steal int64 // host CPU ticks stolen while the phase ran
}

func newResult(s *schedule) *result {
	n := s.n()
	return &result{
		s:       s,
		sent:    make([]int64, n),
		recv:    make([]int64, n),
		status:  make([]byte, n),
		answers: make([]int32, n),
		bad:     make([]bool, n),
	}
}

func (r *result) fail(msg string) {
	if r.wrong == 0 {
		r.firstWrong = msg
	}
	r.wrong++
}

// good reports whether request i got a correct, non-refused answer.
func (r *result) good(i int) bool {
	return r.answers[i] == 1 && !r.bad[i] && !refused(r.status[i])
}

// latUS is each request's latency from its due time to its response in
// µs, +Inf for a request that was refused, wrong or never answered.
func (r *result) latUS() []float64 {
	out := make([]float64, r.s.n())
	for i := range out {
		if r.good(i) {
			out[i] = float64(r.recv[i]-r.s.due[i]) / 1e3
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// lateUS is how far behind schedule each request was sent, in µs.
func (r *result) lateUS() []float64 {
	out := make([]float64, r.s.n())
	for i := range out {
		out[i] = float64(r.sent[i]-r.s.due[i]) / 1e3
	}
	return out
}

// misses counts requests without a correct, non-refused answer.
func (r *result) misses() int {
	m := 0
	for i := range r.answers {
		if !r.good(i) {
			m++
		}
	}
	return m
}

// goodBy counts correct answers decoded by ns after the phase start.
func (r *result) goodBy(ns int64) int {
	c := 0
	for i := range r.answers {
		if r.good(i) && r.recv[i] <= ns {
			c++
		}
	}
	return c
}

// lastRecv is when the phase's last response arrived.
func (r *result) lastRecv() int64 {
	var m int64
	for _, t := range r.recv {
		m = max(m, t)
	}
	return m
}

func nsSince(t time.Time) int64 { return max(time.Since(t).Nanoseconds(), 1) }

// batches walks the schedule in due order, handing fn every request
// already due as one batch [i, j) once it is due. It waits with
// time.Sleep, which releases the P: while the runtime's dispatcher keeps
// a P busy the timer fires within microseconds, while the process is idle
// it can fire up to a millisecond late. Sleeping on a thread instead
// (nanosleep) holds a P the server needs, and a timerfd wake costs the
// server about one CPU at 100k rps; both made the server's latency worse.
func batches(s *schedule, start time.Time, fn func(i, j int)) {
	for i := 0; i < s.n(); {
		now := nsSince(start)
		if d := s.due[i] - now; d > 0 {
			time.Sleep(time.Duration(d))
			now = nsSince(start)
		}
		j := i + 1
		for j < s.n() && s.due[j] <= now {
			j++
		}
		fn(i, j)
		i = j
	}
}

var errMissing = errors.New("missing responses")

// runWire drives schedule s open-loop against addr over lanes
// connections and checks every response against h (nil: expect StOK).
func runWire(addr string, s *schedule, h *history, rec *recorder) (*result, error) {
	lanes := len(s.stream)
	conns := make([]net.Conn, lanes)
	for l := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range conns[:l] {
				c.Close()
			}
			return nil, fmt.Errorf("dial: %w", err)
		}
		conns[l] = c
		if rec != nil {
			rec.lane(c.LocalAddr().String(), l)
		}
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	r := newResult(s)
	start := time.Now()
	if rec != nil {
		rec.start = start
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	readErr := make([]error, lanes)
	for l := range conns {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			readErr[l] = readLane(conns[l], l, lanes, len(s.reqs[l]), r, h, start, &mu)
		}(l)
	}
	sentTo := make([]int, lanes) // frames of each lane already written
	var werr error
	batches(s, start, func(i, j int) {
		for l, c := range conns {
			upto := (j - l + lanes - 1) / lanes
			if upto <= sentTo[l] || werr != nil {
				continue
			}
			from := 0
			if sentTo[l] > 0 {
				from = s.ends[l][sentTo[l]-1]
			}
			ws := nsSince(start)
			if _, err := c.Write(s.stream[l][from:s.ends[l][upto-1]]); err != nil {
				werr = fmt.Errorf("write lane %d: %w", l, err)
			}
			for k := sentTo[l]; k < upto; k++ {
				r.sent[s.reqs[l][k]] = ws
			}
			sentTo[l] = upto
		}
	})
	deadline := start.Add(time.Duration(s.durNS) + drainWait)
	for _, c := range conns {
		c.SetReadDeadline(deadline)
	}
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	for l, err := range readErr {
		if err != nil && !errors.Is(err, errMissing) {
			return nil, fmt.Errorf("read lane %d: %w", l, err)
		}
	}
	for i, a := range r.answers {
		if a == 0 {
			r.fail(fmt.Sprintf("request %d never answered", i+1))
		}
	}
	return r, nil
}

// readLane decodes lane l's responses until it has one per request sent
// on it, checking each as it arrives.
func readLane(c net.Conn, l, lanes, want int, r *result, h *history, start time.Time, mu *sync.Mutex) error {
	rr := proto.NewRespReader(c, 64<<10)
	for got := 0; got < want; got++ {
		resp, err := rr.Next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return errMissing
			}
			return err
		}
		t := nsSince(start)
		i := int(resp.ID) - 1
		if i < 0 || i >= r.s.n() || i%lanes != l {
			mu.Lock()
			r.fail(fmt.Sprintf("response with unknown id %d on lane %d", resp.ID, l))
			mu.Unlock()
			continue
		}
		if r.answers[i]++; r.answers[i] > 1 {
			mu.Lock()
			r.fail(fmt.Sprintf("request %d answered twice", resp.ID))
			mu.Unlock()
			continue
		}
		r.recv[i], r.status[i] = t, resp.Status
		if refused(resp.Status) {
			continue
		}
		msg := ""
		if h == nil {
			if resp.Status != proto.StOK {
				msg = "floor answered " + proto.StatusString(resp.Status)
			}
		} else {
			msg = h.check(r.s, i, resp.Status, resp.Payload)
		}
		if msg != "" {
			r.bad[i] = true
			mu.Lock()
			r.fail(fmt.Sprintf("request %d: %s", resp.ID, msg))
			mu.Unlock()
		}
	}
	return nil
}

// runInproc drives schedule s open-loop into rt.SubmitFunc. Requests
// due together are submitted back to back by one goroutine.
func runInproc(rt *live.Server, s *schedule, rec *recorder) (*result, error) {
	n := s.n()
	r := newResult(s)
	reqs := make([]spinReq, n)
	for i := range reqs {
		reqs[i] = spinReq{idx: int32(i), spin: time.Duration(s.spin[i]) * time.Microsecond}
	}
	start := time.Now()
	if rec != nil {
		rec.start = start
	}
	var left atomic.Int64
	left.Store(int64(n))
	done := make(chan struct{})
	var answers = make([]atomic.Int32, n)
	cb := func(resp live.Response) {
		t := nsSince(start)
		i := int(resp.Req.(*spinReq).idx)
		if answers[i].Add(1) > 1 {
			return // counted below
		}
		r.recv[i] = t
		r.status[i] = statusOf(resp.Err)
		if rec != nil {
			rec.finished(i, t, &resp)
		}
		if left.Add(-1) == 0 {
			close(done)
		}
	}
	batches(s, start, func(i, j int) {
		for k := i; k < j; k++ {
			t0 := nsSince(start)
			r.sent[k] = t0
			rt.SubmitFunc(&reqs[k], cb)
		}
	})
	select {
	case <-done:
	case <-time.After(time.Duration(s.durNS) + drainWait):
	}
	for i := range answers {
		r.answers[i] = answers[i].Load()
		switch {
		case r.answers[i] == 0:
			r.fail(fmt.Sprintf("request %d never answered", i+1))
		case r.answers[i] > 1:
			r.fail(fmt.Sprintf("request %d answered %d times", i+1, r.answers[i]))
		case r.answers[i] == 1 && !refused(r.status[i]) && r.status[i] != proto.StOK:
			r.bad[i] = true
			r.fail(fmt.Sprintf("request %d: SPIN answered %s", i+1, proto.StatusString(r.status[i])))
		}
	}
	return r, nil
}

// statusOf maps a runtime error onto the wire status netsrv would send.
func statusOf(err error) byte {
	switch {
	case err == nil:
		return proto.StOK
	case errors.Is(err, live.ErrQueueFull):
		return proto.StOverloaded
	case errors.Is(err, live.ErrShed):
		return proto.StShed
	case errors.Is(err, live.ErrDeadlineExceeded):
		return proto.StDeadline
	case errors.Is(err, live.ErrServerStopped):
		return proto.StStopped
	default:
		return proto.StErr
	}
}
