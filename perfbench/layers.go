package main

import (
	"bytes"
	"runtime"
	"sync"
	"time"

	"concord/internal/live"
	"concord/internal/policy"
	"concord/internal/proto"
	"concord/internal/sim"
)

// layerMetric is one per-layer figure of the traced run: which workloads
// it applies to, and which end-to-end metric it is expected to move.
type layerMetric struct {
	name, unit, better string
	applies            func(workload) bool
	moves              string
}

func always(workload) bool     { return true }
func wireOnly(w workload) bool { return w.wire }
func zippyOnly(w workload) bool {
	return w.name == "wire_zippy"
}

const (
	movesLow     = "p50_us_low, p99_us_low on wire_get and wire_zippy; not on inproc_bimodal"
	movesQueue   = "p99_us_high on all three, most on inproc_bimodal"
	movesPreempt = "p99_us_high, p999_us_high on inproc_bimodal and wire_zippy; not on wire_get"
	movesKV      = "p99_us_high on wire_zippy"
	movesFinish  = "cpu_us_per_req, goodput_rps_over on wire_zippy; not elsewhere"
	movesWire    = "cpu_us_per_req, allocs_per_req, goodput_rps_over on wire_get; not on inproc_bimodal"
	movesSubmit  = "goodput_rps_over on every workload"
	movesRuntime = "cpu_us_per_req on every workload"
	movesNone    = "none: generator and harness health"
)

// layerMetrics is the traced run's output, in BENCHMARK.json's order.
var layerMetrics = []layerMetric{
	{"netsrv.rx_us_p50", "us", "lower", wireOnly, movesLow},
	{"netsrv.rx_us_p99", "us", "lower", wireOnly, movesLow},
	{"netsrv.deliver_us_p50", "us", "lower", wireOnly, movesLow},
	{"netsrv.deliver_us_p99", "us", "lower", wireOnly, movesLow},
	{"runtime.sched_lat_us_p50", "us", "lower", always, movesLow},
	{"runtime.sched_lat_us_p99", "us", "lower", always, movesLow},
	{"runtime.cpu_busy_frac", "fraction", "lower", always, movesLow},
	{"live.wait_us_p50", "us", "lower", always, movesQueue},
	{"live.wait_us_p99", "us", "lower", always, movesQueue},
	{"live.handoff_us_p99", "us", "lower", always, movesQueue},
	{"live.queue_us_p50", "us", "lower", always, movesQueue},
	{"live.queue_us_p99", "us", "lower", always, movesQueue},
	{"live.central_depth_p99", "count", "lower", always, movesQueue},
	{"policy.push_pop_ns", "ns", "lower", always, movesQueue},
	{"live.preempts_per_req", "count", "lower", always, movesPreempt},
	{"live.preempted_us_p99", "us", "lower", always, movesPreempt},
	{"live.dispatcher_run_frac", "fraction", "lower", always, movesPreempt},
	{"kv.get_us_p50", "us", "lower", wireOnly, movesKV},
	{"kv.put_us_p50", "us", "lower", zippyOnly, movesKV},
	{"kv.del_us_p50", "us", "lower", zippyOnly, movesKV},
	{"kv.scan_us_p50", "us", "lower", zippyOnly, movesKV},
	{"live.finish_us_p50", "us", "lower", always, movesFinish},
	{"live.finish_us_p99", "us", "lower", always, movesFinish},
	{"obs.observe_ns_per_completion", "ns", "lower", always, movesFinish},
	{"proto.decode_ns_per_frame", "ns", "lower", wireOnly, movesWire},
	{"proto.decode_allocs_per_frame", "count", "lower", wireOnly, movesWire},
	{"proto.encode_ns_per_resp", "ns", "lower", wireOnly, movesWire},
	{"netsrv.reads_per_frame", "count", "lower", wireOnly, movesWire},
	{"netsrv.flush_wait_us_p50", "us", "lower", wireOnly, movesWire},
	{"netsrv.flush_wait_us_p99", "us", "lower", wireOnly, movesWire},
	{"netsrv.frames_per_flush", "count", "higher", wireOnly, movesWire},
	{"netsrv.write_us_p50", "us", "lower", wireOnly, movesWire},
	{"live.rejected_frac", "fraction", "lower", always, movesSubmit},
	{"runtime.ctxsw_per_req", "count", "lower", always, movesRuntime},
	{"runtime.gc_cycles_per_kreq", "count", "lower", always, movesRuntime},
	{"runtime.gc_pause_us_p99", "us", "lower", always, movesRuntime},
	{"gen.late_us_p50", "us", "lower", always, movesNone},
	{"gen.late_us_p99", "us", "lower", always, movesNone},
	{"gen.floor_us_p50", "us", "lower", wireOnly, movesNone},
	{"gen.floor_us_p99", "us", "lower", wireOnly, movesNone},
	{"trace.overhead_p50_x", "ratio", "lower", always, movesNone},
}

// samples pools one per-layer quantity over the traced phases.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// collect adds traced phase r's per-request layer times to s.
func (rec *recorder) collect(s samples, r *result, wire bool) (partitioned, total int) {
	for i := 0; i < rec.s.n(); i++ {
		if !r.good(i) {
			continue
		}
		total++
		if _, ok := selfTimes(rec.spans(r, i, wire)); ok {
			partitioned++
		}
		us := func(a, b int64) float64 { return float64(b-a) / 1e3 }
		s.add("live.handoff_us", float64(rec.handoff[i])/1e3)
		s.add("live.queue_us", float64(rec.queue[i])/1e3)
		s.add("live.preempted_us", float64(rec.preempted[i])/1e3)
		s.add("live.finish_us", us(rec.hOut[i], rec.obsAt[i]))
		if !wire {
			s.add("live.wait_us", us(r.sent[i], rec.hIn[i]))
			continue
		}
		s.add("live.wait_us", us(rec.readRet[i], rec.hIn[i]))
		s.add("netsrv.rx_us", us(r.sent[i], rec.readRet[i]))
		s.add("netsrv.deliver_us", us(rec.swStart[i], r.recv[i]))
		s.add("netsrv.flush_wait_us", us(rec.obsAt[i], rec.swStart[i]))
		s.add("kv."+opName(rec.s.op[i])+"_us", us(rec.hIn[i], rec.hOut[i]))
	}
	for _, d := range rec.writes {
		s.add("netsrv.write_us", float64(d)/1e3)
	}
	return partitioned, total
}

func opName(op byte) string {
	switch op {
	case proto.OpGet:
		return "get"
	case proto.OpPut:
		return "put"
	case proto.OpDel:
		return "del"
	case proto.OpScan:
		return "scan"
	}
	return "spin"
}

// sampleDepth polls the central queue's length until stop closes.
func sampleDepth(rt *live.Server, out *[]float64, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		*out = append(*out, float64(rt.Depths().Central))
		time.Sleep(200 * time.Microsecond)
	}
}

// benchLoop runs fn in growing batches until minDur has passed and
// returns ns and heap allocations per unit of work fn reports.
func benchLoop(minDur time.Duration, fn func() int) (nsPer, allocsPer float64) {
	fn() // warm pools and caches
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	units := 0
	for time.Since(t0) < minDur {
		units += fn()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(units), float64(m1.Mallocs-m0.Mallocs) / float64(units)
}

type queueItem struct{}

func (*queueItem) RemainingCycles() sim.Cycles { return 0 }

// pushPopNS times one Push and one Pop on the runtime's fcfs queue held
// at depth entries.
func pushPopNS(depth int, minDur time.Duration) float64 {
	q, _ := policy.NewQueue[*queueItem]("fcfs")
	it := &queueItem{}
	for i := 0; i < depth; i++ {
		q.Push(it, false)
	}
	ns, _ := benchLoop(minDur, func() int {
		for i := 0; i < 4096; i++ {
			q.Push(it, false)
			q.Pop()
		}
		return 4096
	})
	return ns
}

// decodeCost replays a recorded request stream through FrameReader.
func decodeCost(stream []byte, minDur time.Duration) (nsPer, allocsPer float64) {
	pool := proto.NewPool(4096)
	return benchLoop(minDur, func() int {
		fr := proto.NewFrameReader(bytes.NewReader(stream), pool, 1<<20)
		n := 0
		for {
			f, err := fr.Next()
			if err != nil {
				break
			}
			f.Release()
			n++
		}
		fr.Close()
		return n
	})
}

// encodeCost encodes the responses a traced phase received.
func encodeCost(r *result, minDur time.Duration) float64 {
	buf := make([]byte, 0, 4096)
	ns, _ := benchLoop(minDur, func() int {
		for i, st := range r.status {
			switch st {
			case proto.StCount:
				buf = proto.AppendCountResponse(buf[:0], uint64(i+1), numKeys)
			case proto.StValue:
				buf = proto.AppendResponse(buf[:0], st, uint64(i+1), seededValue)
			default:
				buf = proto.AppendResponse(buf[:0], st, uint64(i+1), nil)
			}
		}
		return len(r.status)
	})
	return ns
}

// completion is one recorded completion as the sinks see it.
type completion struct {
	latency       time.Duration
	svcNS, hintNS int64
}

// observeCost replays completions into fresh kvd -obs sinks, on as many
// goroutines as the runtime has executors contending for them, and
// returns wall ns per completion times the goroutine count.
func observeCost(cs []completion, minDur time.Duration) float64 {
	var o live.Options
	addSinks(&o)
	p := runtime.GOMAXPROCS(0)
	ns, _ := benchLoop(minDur, func() int {
		var wg sync.WaitGroup
		for g := 0; g < p; g++ {
			wg.Add(1)
			go func(part []completion) {
				defer wg.Done()
				for _, c := range part {
					o.Tail.Observe(c.latency, true)
					o.ClassTails.Observe(int(live.ClassStandard), c.latency, true)
					o.Sketches.Observe(int(live.ClassStandard), c.svcNS, c.hintNS)
				}
			}(cs[g*len(cs)/p : (g+1)*len(cs)/p])
		}
		wg.Wait()
		return len(cs)
	})
	return ns * float64(p)
}
