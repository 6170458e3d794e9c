package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/obs"
	"concord/internal/proto"
)

// liveOptions is concord-kvd's flag defaults: 2 workers, 1 shard, fcfs,
// 200µs quantum, JBSQ k=2, work-conserving, 5s drain.
func liveOptions() live.Options {
	return live.Options{
		Workers:        2,
		Shards:         1,
		Policy:         live.PolicyFCFS,
		Quantum:        200 * time.Microsecond,
		QueueBound:     2,
		WorkConserving: true,
		DrainTimeout:   5 * time.Second,
	}
}

// netOptions is concord-kvd's netsrv defaults (-maxreq, -wtimeout).
func netOptions() netsrv.Options {
	return netsrv.Options{MaxReq: 1 << 20, WriteTimeout: 5 * time.Second}
}

// scanBatch is concord-kvd's -scanbatch default.
const scanBatch = 256

// addSinks turns on the completion sinks kvd -obs enables, built the way
// kvd builds them, without the Tracer.
func addSinks(o *live.Options) {
	o.Tail = obs.NewTailTracker([]time.Duration{time.Second, 10 * time.Second, time.Minute},
		obs.NewSLOTracker(obs.SLOConfig{Target: 200 * time.Microsecond, Objective: 0.999, BurnAlert: 14.4}))
	o.Sketches = obs.NewClassSketches(live.NumClasses)
	slos := make([]obs.ClassSLO, live.NumClasses)
	for c := live.SLOClass(0); c < live.NumClasses; c++ {
		slos[c] = obs.ClassSLO{Target: c.DefaultObjective(), Objective: 0.999}
	}
	o.ClassTails = obs.NewClassTails(slos, nil)
}

// stack is one serving stack built through the public constructors.
type stack struct {
	rt     *live.Server
	ns     *netsrv.Server // nil for inproc workloads
	ln     net.Listener
	served chan struct{} // closed when Serve returns
}

// newStack builds the stack for w and returns it with its set-up time:
// populating the store, starting the runtime and readying the listener.
// rec, when non-nil, wraps the handler, listener and Observe hook and
// switches the runtime's Tracer on.
func newStack(w workload, rec *recorder) (*stack, time.Duration, error) {
	t0 := time.Now()
	opts := liveOptions()
	if w.sinks {
		addSinks(&opts)
	}
	if rec != nil {
		opts.Tracer = obs.NewTracerSharded(opts.Workers, opts.Shards, 4096)
	}
	st := &stack{}
	if !w.wire {
		var h live.Handler = spinHandler{}
		if rec != nil {
			h = &tracedHandler{h: h, rec: rec}
		}
		st.rt = live.New(h, opts)
		st.rt.Start()
		return st, time.Since(t0), nil
	}
	store := kv.New()
	for i := 0; i < numKeys; i++ {
		store.Put(keyBytes(i), seededValue)
	}
	var h live.Handler = &netsrv.KVHandler{Store: store, ScanBatch: scanBatch}
	if rec != nil {
		h = &tracedHandler{h: h, rec: rec}
	}
	st.rt = live.New(h, opts)
	st.rt.Start()
	nopts := netOptions()
	if rec != nil {
		nopts.Tracer = opts.Tracer
		nopts.Observe = rec.observe
	}
	st.ns = netsrv.New(st.rt, nopts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.rt.Stop()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	st.ln = ln
	if rec != nil {
		st.ln = &tracedListener{Listener: ln, rec: rec}
	}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.ns.Serve(st.ln)
	}()
	return st, time.Since(t0), nil
}

func (st *stack) addr() string { return st.ln.Addr().String() }

// stop tears the stack down and checks the runtime's exactly-once
// contract: every accepted request was completed.
func (st *stack) stop() error {
	if st.ln != nil {
		st.ln.Close()
		<-st.served
	}
	st.rt.Stop()
	if st.ns != nil {
		st.ns.Drain(time.Second)
	}
	if s := st.rt.Stats(); s.Submitted != s.Completed {
		return fmt.Errorf("after Stop: submitted %d != completed %d", s.Submitted, s.Completed)
	}
	return nil
}

// spinReq is one inproc_bimodal request: the schedule index and the
// service time the spin handler burns.
type spinReq struct {
	idx  int32
	spin time.Duration
}

// spinHandler serves inproc_bimodal: each request spins for its service
// time through Ctx.Spin, which polls for preemption.
type spinHandler struct{}

func (spinHandler) Setup()          {}
func (spinHandler) SetupWorker(int) {}
func (spinHandler) Handle(ctx *live.Ctx, p any) (any, error) {
	ctx.Spin(p.(*spinReq).spin)
	return nil, nil
}

// floorServer is the harness floor: a zero-work listener that answers
// every frame StOK with netsrv's read/coalesce/flush shape but no
// runtime, store or handler behind it.
type floorServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	pool  *proto.Pool
	mu    sync.Mutex
	conns []net.Conn
}

func newFloorServer() (*floorServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &floorServer{ln: ln, pool: proto.NewPool(4096)}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, c)
			f.mu.Unlock()
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.serve(c)
			}()
		}
	}()
	return f, nil
}

func (f *floorServer) addr() string { return f.ln.Addr().String() }

func (f *floorServer) serve(c net.Conn) {
	defer c.Close()
	var (
		mu      sync.Mutex
		pending []byte
		wake    = make(chan struct{}, 1)
		quit    = make(chan struct{})
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		var out []byte
		for {
			select {
			case <-wake:
			case <-quit:
				return
			}
			mu.Lock()
			out, pending = pending, out[:0]
			mu.Unlock()
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()
	fr := proto.NewFrameReader(c, f.pool, 1<<20)
	for {
		fm, err := fr.Next()
		if err != nil {
			break
		}
		mu.Lock()
		pending = proto.AppendResponse(pending, proto.StOK, fm.ID, nil)
		mu.Unlock()
		fm.Release()
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	fr.Close()
	close(quit)
	<-done
}

func (f *floorServer) stop() {
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}
