package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/proto"
)

// recorder holds the traced run's spans in memory. Every timestamp is ns
// after the phase start; each request's boundaries are written once, by
// the one goroutine that owns that point of its life.
//
// The points are the generator's write (sent), the wrapped conn's Read
// returning the frame (readRet), Handle entry and exit (hIn, hOut),
// netsrv's Observe or the SubmitFunc callback (obsAt), the wrapped
// conn's Write call (swStart) and the client's decode (recv).
type recorder struct {
	start time.Time
	s     *schedule

	readRet, hIn, hOut, obsAt, swStart []int64
	handoff, queue, service, preempted []int64
	preempts                           []int32

	mu     sync.Mutex
	laneOf map[string]int
	writes []int64 // duration of each server-side Write call, ns
	reads  atomic.Int64
}

func newRecorder(s *schedule) *recorder {
	n := s.n()
	mk := func() []int64 { return make([]int64, n) }
	return &recorder{
		s:       s,
		readRet: mk(), hIn: mk(), hOut: mk(), obsAt: mk(), swStart: mk(),
		handoff: mk(), queue: mk(), service: mk(), preempted: mk(),
		preempts: make([]int32, n),
		laneOf:   map[string]int{},
	}
}

func (rec *recorder) now() int64 { return nsSince(rec.start) }

// lane records which lane a client connection's local address is, so
// the server side of the connection can find its request stream.
func (rec *recorder) lane(addr string, l int) {
	rec.mu.Lock()
	rec.laneOf[addr] = l
	rec.mu.Unlock()
}

func (rec *recorder) breakdown(i int, resp *live.Response) {
	if b := resp.Breakdown; b != nil {
		rec.handoff[i], rec.queue[i] = int64(b.Handoff), int64(b.Queue)
		rec.service[i], rec.preempted[i] = int64(b.Service), int64(b.Preempted)
	}
	rec.preempts[i] = int32(resp.Preemptions)
}

// observe is netsrv.Options.Observe: the completion point of a wire
// request, just before netsrv queues it for flushing.
func (rec *recorder) observe(_ byte, resp live.Response) {
	i := int(resp.Req.(*netsrv.Request).ID) - 1
	rec.obsAt[i] = rec.now()
	rec.breakdown(i, &resp)
}

// finished is the inproc SubmitFunc callback's hook.
func (rec *recorder) finished(i int, at int64, resp *live.Response) {
	rec.obsAt[i] = at
	rec.breakdown(i, resp)
}

// tracedHandler times each Handle call.
type tracedHandler struct {
	h   live.Handler
	rec *recorder
}

func (t *tracedHandler) Setup()            { t.h.Setup() }
func (t *tracedHandler) SetupWorker(w int) { t.h.SetupWorker(w) }
func (t *tracedHandler) Handle(ctx *live.Ctx, p any) (any, error) {
	var i int
	switch r := p.(type) {
	case *netsrv.Request:
		i = int(r.ID) - 1
	case *spinReq:
		i = int(r.idx)
	}
	in := t.rec.now()
	out, err := t.h.Handle(ctx, p)
	t.rec.hIn[i], t.rec.hOut[i] = in, t.rec.now()
	return out, err
}

// tracedListener hands netsrv connections that time their reads and
// writes.
type tracedListener struct {
	net.Listener
	rec *recorder
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec, lane: -1}, nil
}

// tracedConn maps the bytes netsrv reads back to request frames: the
// lane's stream is known, so the frame whose last byte a Read returned
// was read by that Read.
type tracedConn struct {
	net.Conn
	rec  *recorder
	lane int
	got  int // bytes read so far
	next int // the lane's next frame not yet read whole
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		t := c.rec.now()
		c.rec.reads.Add(1)
		if c.lane < 0 {
			c.rec.mu.Lock()
			l, ok := c.rec.laneOf[c.RemoteAddr().String()]
			c.rec.mu.Unlock()
			if !ok {
				return n, err
			}
			c.lane = l
		}
		c.got += n
		ends, reqs := c.rec.s.ends[c.lane], c.rec.s.reqs[c.lane]
		for c.next < len(ends) && ends[c.next] <= c.got {
			c.rec.readRet[reqs[c.next]] = t
			c.next++
		}
	}
	return n, err
}

// Write attributes the write to every response frame in b.
func (c *tracedConn) Write(b []byte) (int, error) {
	ws := c.rec.now()
	n, err := c.Conn.Write(b)
	we := c.rec.now()
	for off := 0; off+proto.RespHeaderSize <= len(b); {
		i := int(binary.LittleEndian.Uint64(b[off+2:])) - 1
		if i >= 0 && i < len(c.rec.swStart) {
			c.rec.swStart[i] = ws
		}
		off += proto.RespHeaderSize + int(binary.LittleEndian.Uint32(b[off+10:]))
	}
	c.rec.mu.Lock()
	c.rec.writes = append(c.rec.writes, we-ws)
	c.rec.mu.Unlock()
	return n, err
}

// span is one interval of a request's life.
type span struct {
	name, parent string
	a, b         int64
}

// spans returns request i's spans, parents before children. The leaves
// tile [due, recv] when the recorded points are in time order, so their
// self times partition the request's latency. netsrv.deliver starts at
// the server's Write call: the client may decode a response before that
// call returns, so the Write's own duration (netsrv.write_us) is not a
// span of the tiling.
func (rec *recorder) spans(r *result, i int, wire bool) []span {
	due, recv := rec.s.due[i], r.recv[i]
	if !wire {
		return []span{
			{"request", "", due, recv},
			{"gen.late", "request", due, r.sent[i]},
			{"live.wait", "request", r.sent[i], rec.hIn[i]},
			{"live.handle", "request", rec.hIn[i], rec.hOut[i]},
			{"live.finish", "request", rec.hOut[i], recv},
		}
	}
	return []span{
		{"request", "", due, recv},
		{"gen.late", "request", due, r.sent[i]},
		{"netsrv.rx", "request", r.sent[i], rec.readRet[i]},
		{"netsrv.conn", "request", rec.readRet[i], rec.swStart[i]},
		{"live.wait", "netsrv.conn", rec.readRet[i], rec.hIn[i]},
		{"live.handle", "netsrv.conn", rec.hIn[i], rec.hOut[i]},
		{"live.finish", "netsrv.conn", rec.hOut[i], rec.obsAt[i]},
		{"netsrv.flush_wait", "netsrv.conn", rec.obsAt[i], rec.swStart[i]},
		{"netsrv.deliver", "request", rec.swStart[i], recv},
	}
}

// selfTimes is each span's duration minus the time its children cover,
// and whether the spans are well formed: every point recorded, every
// span inside its parent, siblings disjoint, and the self times summing
// to the request's latency.
func selfTimes(sp []span) ([]int64, bool) {
	self := make([]int64, len(sp))
	ok := true
	for k, s := range sp {
		if s.b <= 0 || s.b < s.a {
			ok = false
		}
		self[k] = s.b - s.a
		var last int64 = s.a
		for _, c := range sp {
			if c.parent != s.name {
				continue
			}
			if c.a < last || c.b > s.b {
				ok = false // overlaps a sibling or leaves its parent
			}
			self[k] -= c.b - c.a
			last = c.b
		}
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	return self, ok && sum == sp[0].b-sp[0].a
}

// writeSpans writes the traced phase's spans as TSV, one line per span:
// request id, span, parent, start and end in ns after the phase start.
func (rec *recorder) writeSpans(path string, r *result, wire bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "req\tspan\tparent\tstart_ns\tend_ns")
	for i := 0; i < rec.s.n(); i++ {
		if !r.good(i) {
			continue
		}
		for _, s := range rec.spans(r, i, wire) {
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", i+1, s.name, s.parent, s.a, s.b)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
