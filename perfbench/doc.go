// Command perfbench is the repository's serving benchmark: open-loop
// Poisson traffic against the serving stack as concord-kvd ships it,
// measured end to end, plus a separate traced run that splits each
// request's latency across the layers it crosses.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload wire_get --seed 1 --seconds 60 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. The run exits non-zero on any
// wrong, duplicated or missing response, or when Submitted != Completed
// after Stop. It is Linux-only (timerfd pacing, getrusage).
//
// # Set-up
//
// The server is built only through kv.New, live.New and netsrv.New with
// concord-kvd's flag defaults: 2 workers, 1 shard, fcfs, 200µs quantum,
// JBSQ k=2, work-conserving, 15000 keys of 64 bytes, ScanBatch 256. The
// generator runs in the same process under the default GOMAXPROCS. It
// opens one connection per CPU, starts no goroutine per request, draws
// every phase's arrival schedule and encoded request stream from --seed
// before the phase starts, sends all requests that are due in one batch
// per connection, and times each request from its due time, so a stall
// is charged to every request that waited behind it. It waits for due
// times with time.Sleep: while the runtime's dispatcher keeps a P busy
// the timer fires within microseconds (gen.late_us_p50), but in an idle
// process Go's timers have millisecond resolution, which is what
// gen.floor_us_p50 shows. A server that lets the process go idle
// between requests will need a finer pacer before its gains below a
// millisecond can show.
//
// # Workloads
//
// Each workload has three fixed offered rates, sized from the knees an
// earlier probe found on a 2-vCPU host (about 110–125k rps for
// wire_get, 80–90k for wire_zippy, 130–150k for inproc_bimodal).
// wire_get's high rate is 40k rather than 80k: from about 60k to 100k
// the stack sits between a self-sustaining regime (p50 about 0.3ms) and
// one where sockets are only polled every few milliseconds (p50
// 1–2ms), and which one a round lands in follows the host's load: ten
// runs of the same code spread by 20% of their median at 60k and five
// by 60% at 80k.
//
// BENCHMARK.json lists wire_get and wire_zippy. inproc_bimodal runs the
// same way by hand but is not listed: on a 2-vCPU guest its per-round
// p50 at the low rate ranges from 20µs to 900µs, and run-to-run spreads
// of its low-rate and tail percentiles (17–33% of the median) exceeded
// what a 25% regression bound can hold.
//
//   - wire_get (10k / 40k / 160k rps): 100% GET over loopback TCP. The
//     handler costs about 1µs, so nearly all time and CPU go to proto
//     decode, netsrv's read and flush path, goroutine hand-offs and the
//     dispatcher's idle loop. No request reaches the quantum, so
//     preemption and queue ordering are bypassed.
//   - wire_zippy (10k / 50k / 100k rps): the paper's ZippyDB mix, 78%
//     GET, 13% PUT, 6% DEL, 3% full-store SCAN, with the completion
//     sinks concord-kvd -obs turns on (Tail, Sketches, ClassTails) but
//     not its Tracer. Writes take the store's write lock beside reads;
//     SCANs overrun the quantum, so preemption, work-conserving dispatch
//     and head-of-line blocking set the tail of short requests; every
//     completion pays the sink fan-out.
//   - inproc_bimodal (20k / 100k / 200k rps): live.Server.SubmitFunc
//     called directly with the benchmark's own spin handler,
//     Bimodal(99.5% 1µs, 0.5% 500µs) — the paper's Bimodal(99.5:0.5,
//     0.5:500) with the short mode raised to 1µs. No proto, netsrv or
//     socket: ingest, central queue, JBSQ, worker hand-off, preemption
//     and finish are measured alone, so a change to the wire path only
//     should not move any number here.
//
// # Why this benchmark exists
//
// Every internal/bench live scenario is closed loop, so a slow server is
// offered less load. cmd/concord-load sleeps once per request and starts
// each request's timer when it is sent, not when it was due: on a 2-vCPU
// host it delivered only 1.1k–2.5k rps when asked for 10k–60k. An
// open-loop probe (in-process live+netsrv+KVHandler, two pipelined
// binary connections, times from due time) measured wire GET latency at
// p50 2.1–2.7ms and p99 11–17ms at 20k rps, and p50 1.1ms at 100k rps,
// while the runtime's own Response.Latency is about 10µs at p50 for
// in-process submits. Most of the time is spent where nothing else
// measures it; the traced run's ledger shows where.
//
// # End-to-end metrics (--trace 0)
//
// A run is one round per 2.5s of --seconds (24 at 60), each on a fresh
// stack: a 0.75s low-rate phase, a 1s high-rate phase and a 0.3s
// over-rate phase. Percentiles are taken per round. The quarter of the rounds during which the host stole the most
// CPU time from this guest (the steal column of /proc/stat) is set
// aside, and the rest are reported as their interquartile mean (the
// mean of the middle half), printed with every round's value, stolen
// ticks, sample count and the number of samples beyond the percentile;
// a percentile with fewer than ten samples beyond it is refused, which
// --seconds below about 10 causes. Single rounds swing by 2× or more on
// a 2-vCPU guest, with the stack's own stalls and with the host's other
// guests; combining many short rounds is what makes two runs of the
// same code agree. A refused, wrong or unanswered request counts as a
// miss in every percentile.
//
//   - setup_s: populate the store, start the runtime, ready the
//     listener; the median of at least 21 set-ups.
//   - p50_us_low, p99_us_low, p50_us_high, p99_us_high, p999_us_high:
//     due time to response decoded.
//   - goodput_rps_over: correct answers decoded per second during the
//     over-rate phase's sending window.
//   - cpu_us_per_req, allocs_per_req: process CPU (getrusage) and
//     runtime.MemStats.Mallocs per completed request at the high rate,
//     generator included.
//
// Printed but not in the result line, because each is 0 on some
// workloads and a bound relative to 0 means nothing: slo_rps, the
// highest rate on the ladder (low rate, then ×1.5 steps, then the over
// rate) with p99 ≤ 1ms (ClassCritical's default objective) and ≥95% of
// offered load answered; fail_frac, misses over requests sent in the
// low and high phases. A warning is printed when gen.late_us_p99 is
// over a quarter of p99_us_high.
//
// # Per-layer metrics (--trace 1)
//
// The traced run alternates, six times, an untraced and a traced
// high-rate phase on fresh stacks with the program's obs.Tracer on in
// the traced one only. Wire workloads first drive a zero-work stub
// listener (FrameReader in, StOK out) at the high rate for
// gen.floor_us_p50/_p99: the latency this harness would report for an
// infinitely fast server, loopback and generator included. Spans are
// recorded from the benchmark's own code around the calls into each
// layer: the generator's write, a wrapped net.Listener/net.Conn handed
// to netsrv.Server.Serve, a wrapper around the handler, netsrv's
// Options.Observe or the SubmitFunc callback, and the client's decode.
// They stay in memory and the last traced phase's are written to
// .bench_build/spans_<workload>.tsv when the run ends. A span's self
// time is its duration minus what its child spans cover; the leaf spans
// tile each request's due-to-receipt latency, the run checks that they
// do for every answered request, and prints the mean self time of each
// as a ledger. trace.overhead_p50_x is the traced p50 over the untraced
// one. Metrics that do not apply to a workload (kv.put/del/scan on
// wire_get; proto.*, netsrv.* and kv.* on inproc_bimodal) are printed as
// n/a and reported as 0.
//
// Which end-to-end metric each per-layer metric should move (the
// layerMetrics table carries the same mapping):
//
//   - netsrv.rx_us, netsrv.deliver_us, runtime.sched_lat_us,
//     runtime.cpu_busy_frac: p50_us_low and p99_us_low on wire_get and
//     wire_zippy; not on inproc_bimodal.
//   - live.wait_us, live.handoff_us_p99, live.queue_us,
//     live.central_depth_p99, policy.push_pop_ns: p99_us_high on all
//     three, most on inproc_bimodal.
//   - live.preempts_per_req, live.preempted_us_p99,
//     live.dispatcher_run_frac: p99_us_high and p999_us_high on
//     inproc_bimodal and wire_zippy; not on wire_get.
//   - kv.get/put/del/scan_us_p50: p99_us_high on wire_zippy.
//   - live.finish_us, obs.observe_ns_per_completion: cpu_us_per_req and
//     goodput_rps_over on wire_zippy; not elsewhere.
//   - proto.decode_ns_per_frame, proto.decode_allocs_per_frame,
//     proto.encode_ns_per_resp, netsrv.reads_per_frame,
//     netsrv.flush_wait_us, netsrv.frames_per_flush, netsrv.write_us_p50:
//     cpu_us_per_req, allocs_per_req and goodput_rps_over on wire_get;
//     not on inproc_bimodal.
//   - live.rejected_frac: goodput_rps_over on every workload.
//   - runtime.ctxsw_per_req, runtime.gc_cycles_per_kreq,
//     runtime.gc_pause_us_p99: cpu_us_per_req on every workload.
//   - gen.late_us, gen.floor_us, trace.overhead_p50_x: harness health.
package main
