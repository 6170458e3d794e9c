package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"concord/internal/live"
	"concord/internal/netsrv"
)

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and correctness.
type report struct {
	metrics   map[string]metricOut
	attempted int
	failed    int
	why       []string // reasons the run is not correct
}

func newReport() *report { return &report{metrics: map[string]metricOut{}} }

// set records a metric and prints it with the evidence behind it.
func (r *report) set(name string, v float64, unit, evidence string) {
	r.metrics[name] = metricOut{Value: v, Unit: unit}
	fmt.Printf("%-32s %14.6g %-8s %s\n", name, v, unit, evidence)
}

// setPct records a percentile, refusing one without enough samples
// beyond it; a miss at its rank reads as the phase's wait bound.
func (r *report) setPct(name string, p pct, unit string) {
	if !p.ok() {
		r.refuse(name, unit, fmt.Sprintf("n=%d, %d beyond", p.n, p.beyond))
		return
	}
	r.set(name, finite(p.v), unit, fmt.Sprintf("n=%d, %d beyond", p.n, p.beyond))
}

func (r *report) setRounds(name string, rs *roundStat, unit string) {
	v, ok := rs.value()
	if !ok {
		r.refuse(name, unit, rs.evidence())
		return
	}
	r.set(name, finite(v), unit, rs.evidence())
}

func (r *report) refuse(name, unit, evidence string) {
	r.why = append(r.why, fmt.Sprintf("%s: too few samples beyond the percentile (%s)", name, evidence))
	fmt.Printf("%-32s %14s %-8s %s\n", name, "refused", unit, evidence)
}

// finite reads a miss (+Inf) as the longest a phase waits for a reply.
func finite(us float64) float64 {
	if math.IsInf(us, 1) {
		return float64(drainWait.Microseconds())
	}
	return us
}

// account adds a measured phase's requests to attempted and failed.
func (r *report) account(res *result) {
	r.attempted += res.s.n()
	r.failed += res.misses()
	r.check(res)
}

// check records res's wrong answers, which fail the run.
func (r *report) check(res *result) {
	if res.wrong > 0 {
		r.why = append(r.why, fmt.Sprintf("%d wrong or missing responses, first: %s", res.wrong, res.firstWrong))
	}
}

func (r *report) print(names []string) bool {
	correct := len(r.why) == 0
	for _, w := range r.why {
		fmt.Println("FAIL", w)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, r.attempted, r.failed, map[string]metricOut{}}
	for _, n := range names {
		if m, ok := r.metrics[n]; ok {
			out.Metrics[n] = m
		}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	return correct
}

// endToEnd is the untraced run's result line, in BENCHMARK.json's order.
var endToEnd = []string{
	"setup_s", "p50_us_low", "p99_us_low", "p50_us_high", "p99_us_high", "p999_us_high",
	"goodput_rps_over", "cpu_us_per_req", "allocs_per_req",
}

func main() {
	name := flag.String("workload", "", "workload: wire_get, wire_zippy or inproc_bimodal")
	seed := flag.Uint64("seed", 1, "seed the arrival schedules and operation mixes are drawn from")
	seconds := flag.Float64("seconds", 60, "measuring time the run's phases are sized to; below about 10 the rounds are too small for their percentiles")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	stamp(w, *seed, *traced == 1)
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), rep: newReport()}
	names := endToEnd
	if *traced == 1 {
		err = b.traced()
		names = nil
		for _, m := range layerMetrics {
			names = append(names, m.name)
		}
	} else {
		err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !b.rep.print(names) {
		os.Exit(1)
	}
}

// stamp prints what the result depends on besides the code under test.
func stamp(w workload, seed uint64, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	st := map[string]any{
		"workload":   w.name,
		"rates_rps":  []float64{w.low, w.high, w.over},
		"seed":       seed,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"src_sha256": sourceHash(),
		"live":       fmt.Sprintf("%+v", liveOptions()),
		"netsrv":     fmt.Sprintf("%+v", netOptions()),
		"sinks":      w.sinks,
		"scan_batch": scanBatch,
		"keys":       numKeys,
		"value_size": valSize,
	}
	b, _ := json.Marshal(st)
	fmt.Println("stamp", string(b))
}

// sourceHash identifies the Go sources under test when the checkout
// carries no VCS metadata: a hash over go.mod and every .go file of
// internal/, in path order.
func sourceHash() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// bench is one run: a workload, a seed and a time budget.
type bench struct {
	w      workload
	seed   uint64
	budget time.Duration
	rep    *report
	phase  int
}

// next draws the next phase's schedule.
func (b *bench) next(rate float64, d time.Duration) *schedule {
	b.phase++
	return newSchedule(b.w, b.seed, b.phase, rate, d.Nanoseconds(), runtime.NumCPU())
}

// run drives one phase against st, adding what it cost to ud when ud is
// not nil. The heap is collected first so each phase starts from the
// same garbage-collector state.
func (b *bench) run(st *stack, s *schedule, h *history, rec *recorder, ud *usageDelta) (*result, error) {
	h.add(s)
	runtime.GC()
	u0 := readUsage()
	steal0 := stealTicks()
	var res *result
	var err error
	if b.w.wire {
		res, err = runWire(st.addr(), s, h, rec)
	} else {
		res, err = runInproc(st.rt, s, rec)
	}
	if err != nil {
		return nil, err
	}
	res.steal = stealTicks() - steal0
	if ud != nil {
		ud.add(u0, readUsage())
	}
	return res, nil
}

// Phase lengths of one round. A run fits as many rounds as its budget
// allows: many short rounds on fresh stacks, each round's percentile
// taken on its own, keep one stalled round from setting a figure.
const (
	roundLen   = 2500 * time.Millisecond // budget per round, phases and set-up
	lowLen     = 750 * time.Millisecond
	highLen    = 1000 * time.Millisecond
	overLen    = 300 * time.Millisecond
	rungLen    = 800 * time.Millisecond
	setupReps  = 21
	sloLimitUS = 1000 // ClassCritical's default objective
	keepUp     = 0.95 // achieved/offered a rate must reach to count as met
)

// untraced is the end-to-end run: rounds of low, high and over phases on
// fresh stacks, then the SLO ladder.
func (b *bench) untraced() error {
	var (
		setups                             []float64
		p50lo, p99lo, p50hi, p99hi, p999hi roundStat
		late                               roundStat
		goodput                            roundStat
		hi                                 usageDelta
		hiDone                             int
		lowKept                            = true
	)
	steal0 := stealTicks()
	rounds := max(4, int(b.budget/roundLen))
	for r := 0; r < rounds; r++ {
		st, setup, err := newStack(b.w, nil)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		h := newHistory()

		s := b.next(b.w.low, lowLen)
		res, err := b.run(st, s, h, nil, nil)
		if err != nil {
			return err
		}
		b.rep.account(res)
		lat := res.latUS()
		p50lo.add(percentile(lat, 0.5), res.steal)
		p99lo.add(percentileSorted(lat, 0.99), res.steal)
		lowKept = lowKept && keptUp(res)

		s = b.next(b.w.high, highLen)
		res, err = b.run(st, s, h, nil, &hi)
		if err != nil {
			return err
		}
		b.rep.account(res)
		hiDone += s.n() - res.misses()
		lat = res.latUS()
		p50hi.add(percentile(lat, 0.5), res.steal)
		p99hi.add(percentileSorted(lat, 0.99), res.steal)
		p999hi.add(percentileSorted(lat, 0.999), res.steal)
		late.add(percentile(res.lateUS(), 0.99), res.steal)

		s = b.next(b.w.over, overLen)
		res, err = b.run(st, s, h, nil, nil)
		if err != nil {
			return err
		}
		b.rep.check(res)
		goodput.addValue(float64(res.goodBy(s.durNS))/(float64(s.durNS)/1e9), res.steal)
		if err := st.stop(); err != nil {
			return err
		}
	}
	slo, err := b.ladder(&p99lo, lowKept, &setups)
	if err != nil {
		return err
	}
	for len(setups) < setupReps {
		st, setup, err := newStack(b.w, nil)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		if err := st.stop(); err != nil {
			return err
		}
	}

	// Stolen time is CPU the host gave to other guests: a run that lost
	// much of it measured the host as well as the server.
	fmt.Printf("host steal during the run: %d ticks of 10ms\n", stealTicks()-steal0)
	rep := b.rep
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.setRounds("p50_us_low", &p50lo, "us")
	rep.setRounds("p99_us_low", &p99lo, "us")
	rep.setRounds("p50_us_high", &p50hi, "us")
	rep.setRounds("p99_us_high", &p99hi, "us")
	rep.setRounds("p999_us_high", &p999hi, "us")
	rep.setRounds("goodput_rps_over", &goodput, "rps")
	rep.set("cpu_us_per_req", float64(hi.cpuNS)/1e3/float64(hiDone), "us", fmt.Sprintf("process CPU over %d completed at the high rate", hiDone))
	rep.set("allocs_per_req", float64(hi.mallocs)/float64(hiDone), "count", fmt.Sprintf("Mallocs over %d completed at the high rate", hiDone))
	rep.set("slo_rps", slo, "rps", fmt.Sprintf("highest ladder rate with p99 <= %d us and >= %.0f%% of offered load served", sloLimitUS, keepUp*100))
	rep.set("fail_frac", float64(rep.failed)/float64(rep.attempted), "fraction", fmt.Sprintf("%d of %d low and high requests refused, wrong or unanswered", rep.failed, rep.attempted))
	if v, ok := late.value(); ok {
		rep.set("gen.late_us_p99", v, "us", late.evidence()+" (high rate)")
		if hv, ok := p99hi.value(); ok && v > 0.25*hv {
			fmt.Printf("WARNING gen.late_us_p99 is %.0f%% of p99_us_high: the generator, not the server, sets part of the tail\n", 100*v/hv)
		}
	}
	return nil
}

// keptUp reports whether a phase's correct answers kept pace with its
// offered load.
func keptUp(res *result) bool {
	span := max(res.s.durNS, res.lastRecv())
	achieved := float64(res.s.n()-res.misses()) / float64(span)
	offered := float64(res.s.n()) / float64(res.s.durNS)
	return achieved >= keepUp*offered
}

// ladder finds the highest rate on a fixed ladder (the low rate, then
// ×1.5 steps, then the over rate) whose p99 stays within the limit while
// throughput keeps up. The low rungs' rounds are the first step.
func (b *bench) ladder(p99lo *roundStat, lowKept bool, setups *[]float64) (float64, error) {
	v, ok := p99lo.value()
	if !ok || v > sloLimitUS || !lowKept {
		fmt.Printf("ladder %8.0f rps: p99 %.1f us, kept up %v: miss\n", b.w.low, v, lowKept)
		return 0, nil
	}
	fmt.Printf("ladder %8.0f rps: p99 %.1f us: met\n", b.w.low, v)
	best := b.w.low
	var rungs []float64
	for r := b.w.low * 1.5; r < b.w.over; r *= 1.5 {
		rungs = append(rungs, r)
	}
	rungs = append(rungs, b.w.over)
	st, setup, err := newStack(b.w, nil)
	if err != nil {
		return 0, err
	}
	*setups = append(*setups, setup.Seconds())
	h := newHistory()
	for _, rate := range rungs {
		s := b.next(rate, rungLen)
		res, err := b.run(st, s, h, nil, nil)
		if err != nil {
			st.stop()
			return 0, err
		}
		b.rep.check(res)
		p := percentile(res.latUS(), 0.99)
		met := p.ok() && p.v <= sloLimitUS && keptUp(res)
		fmt.Printf("ladder %8.0f rps: p99 %.1f us (n=%d, %d beyond), kept up %v: %s\n",
			rate, p.v, p.n, p.beyond, keptUp(res), map[bool]string{true: "met", false: "miss"}[met])
		if !met {
			break
		}
		best = rate
	}
	return best, st.stop()
}

// traced is the per-layer run: the harness floor, then untraced and
// traced high-rate phases in alternation on fresh stacks.
func (b *bench) traced() error {
	const tracedRounds = 6
	phaseLen := b.budget / 50
	rep := b.rep
	w := b.w
	if w.wire {
		fs, err := newFloorServer()
		if err != nil {
			return err
		}
		s := b.next(w.high, 2*phaseLen)
		res, err := runWire(fs.addr(), s, nil, nil)
		fs.stop()
		if err != nil {
			return err
		}
		rep.check(res)
		lat := res.latUS()
		rep.setPct("gen.floor_us_p50", percentile(lat, 0.5), "us")
		rep.setPct("gen.floor_us_p99", percentileSorted(lat, 0.99), "us")
	}

	var (
		base, trc     roundStat
		late          []float64
		ud            usageDelta
		udDone        int
		smp           = samples{}
		depth         []float64
		partOK, partN int
		stats         live.Stats
		reads         int64
		framesIn      uint64
		framesOut     uint64
		flushes       uint64
		completions   []completion
		lastRec       *recorder
		lastRes       *result
	)
	for r := 0; r < tracedRounds; r++ {
		// Untraced reference at the high rate: the runtime-level figures
		// and the base of the tracing overhead.
		st, _, err := newStack(w, nil)
		if err != nil {
			return err
		}
		s := b.next(w.high, phaseLen)
		res, err := b.run(st, s, newHistory(), nil, &ud)
		if err != nil {
			st.stop()
			return err
		}
		if err := st.stop(); err != nil {
			return err
		}
		udDone += s.n() - res.misses()
		rep.check(res)
		base.add(percentile(res.latUS(), 0.5), res.steal)
		late = append(late, res.lateUS()...)

		// Traced: the same rate with a fresh schedule and every span on.
		s = b.next(w.high, phaseLen)
		rec := newRecorder(s)
		st, _, err = newStack(w, rec)
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var d []float64
		wg.Add(1)
		go sampleDepth(st.rt, &d, stop, &wg)
		res, err = b.run(st, s, newHistory(), rec, nil)
		close(stop)
		wg.Wait()
		if err != nil {
			st.stop()
			return err
		}
		if err := st.stop(); err != nil {
			return err
		}
		if st.ns != nil {
			n := st.ns.NetStats()
			framesIn, framesOut, flushes = framesIn+n.FramesIn, framesOut+n.FramesOut, flushes+n.Flushes
		}
		rep.account(res)
		trc.add(percentile(res.latUS(), 0.5), res.steal)
		depth = append(depth, d...)
		po, pn := rec.collect(smp, res, w.wire)
		partOK, partN = partOK+po, partN+pn
		s2 := st.rt.Stats()
		stats.Submitted += s2.Submitted
		stats.Completed += s2.Completed
		stats.Rejected += s2.Rejected
		stats.Preemptions += s2.Preemptions
		stats.DispatcherRun += s2.DispatcherRun
		reads += rec.reads.Load()
		for i := 0; i < s.n(); i++ {
			if res.good(i) {
				hint := (&netsrv.Request{Op: s.op[i], Spin: time.Duration(s.spin[i]) * time.Microsecond}).ServiceHint()
				completions = append(completions, completion{
					latency: time.Duration(rec.handoff[i] + rec.queue[i] + rec.service[i] + rec.preempted[i]),
					svcNS:   rec.service[i],
					hintNS:  int64(hint),
				})
			}
		}
		lastRec, lastRes = rec, res
	}
	if partOK != partN {
		rep.why = append(rep.why, fmt.Sprintf("spans partition the latency of only %d of %d requests", partOK, partN))
	}
	fmt.Printf("spans partition due-to-receipt latency for %d of %d answered requests\n", partOK, partN)
	if err := lastRec.writeSpans(filepath.Join(".bench_build", "spans_"+w.name+".tsv"), lastRes, w.wire); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	printLedger(lastRec, lastRes, w.wire)

	p := func(name, key string, q float64, unit string) {
		rep.setPct(name, percentile(smp[key], q), unit)
	}
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	micro := b.budget / 100
	for _, m := range layerMetrics {
		if !m.applies(w) {
			rep.metrics[m.name] = metricOut{Value: 0, Unit: m.unit}
			fmt.Printf("%-32s %14s %-8s does not apply to %s\n", m.name, "n/a", m.unit, w.name)
			continue
		}
		switch m.name {
		case "gen.floor_us_p50", "gen.floor_us_p99":
			// measured above
		case "netsrv.rx_us_p50", "netsrv.deliver_us_p50", "live.wait_us_p50", "live.queue_us_p50",
			"live.finish_us_p50", "netsrv.flush_wait_us_p50", "netsrv.write_us_p50",
			"kv.get_us_p50", "kv.put_us_p50", "kv.del_us_p50", "kv.scan_us_p50":
			p(m.name, strings.TrimSuffix(m.name, "_p50"), 0.5, m.unit)
		case "netsrv.rx_us_p99", "netsrv.deliver_us_p99", "live.wait_us_p99", "live.handoff_us_p99",
			"live.queue_us_p99", "live.preempted_us_p99", "live.finish_us_p99", "netsrv.flush_wait_us_p99":
			p(m.name, strings.TrimSuffix(m.name, "_p99"), 0.99, m.unit)
		case "runtime.sched_lat_us_p50":
			rep.setPct(m.name, histPct(ud.sched, ud.buckets.sched, 0.5), m.unit)
		case "runtime.sched_lat_us_p99":
			rep.setPct(m.name, histPct(ud.sched, ud.buckets.sched, 0.99), m.unit)
		case "runtime.cpu_busy_frac":
			rep.set(m.name, float64(ud.cpuNS)/(float64(ud.wall.Nanoseconds())*float64(runtime.NumCPU())), m.unit, "untraced high-rate phases")
		case "runtime.ctxsw_per_req":
			rep.set(m.name, float64(ud.ctxsw)/float64(udDone), m.unit, "untraced high-rate phases")
		case "runtime.gc_cycles_per_kreq":
			rep.set(m.name, float64(ud.gcs)*1000/float64(udDone), m.unit, "untraced high-rate phases")
		case "runtime.gc_pause_us_p99":
			hp := histPct(ud.pauses, ud.buckets.pauses, 0.99)
			if !hp.ok() {
				// A run with few collections cannot support a p99; its
				// worst pause is the honest figure.
				hp = histPct(ud.pauses, ud.buckets.pauses, 1)
				rep.set(m.name, hp.v, m.unit, fmt.Sprintf("max of %d pauses: too few for a p99", hp.n))
				continue
			}
			rep.setPct(m.name, hp, m.unit)
		case "live.central_depth_p99":
			rep.setPct(m.name, percentile(depth, 0.99), m.unit)
		case "policy.push_pop_ns":
			d := int(percentile(depth, 0.99).v)
			rep.set(m.name, pushPopNS(max(d, 1), micro), m.unit, fmt.Sprintf("fcfs queue held at depth %d", max(d, 1)))
		case "live.preempts_per_req":
			rep.set(m.name, frac(stats.Preemptions, stats.Completed), m.unit, "traced phases")
		case "live.dispatcher_run_frac":
			rep.set(m.name, frac(stats.DispatcherRun, stats.Completed), m.unit, "traced phases")
		case "live.rejected_frac":
			rep.set(m.name, frac(stats.Rejected, stats.Submitted+stats.Rejected), m.unit, "traced phases")
		case "obs.observe_ns_per_completion":
			rep.set(m.name, observeCost(completions, micro), m.unit, fmt.Sprintf("%d completions replayed on %d goroutines", len(completions), runtime.GOMAXPROCS(0)))
		case "proto.decode_ns_per_frame":
			ns, allocs := decodeCost(lastRec.s.stream[0], micro)
			rep.set(m.name, ns, m.unit, "FrameReader over the recorded lane-0 stream")
			rep.set("proto.decode_allocs_per_frame", allocs, "count", "FrameReader over the recorded lane-0 stream")
		case "proto.decode_allocs_per_frame":
			// set with decode_ns_per_frame
		case "proto.encode_ns_per_resp":
			rep.set(m.name, encodeCost(lastRes, micro), m.unit, "the traced phase's responses")
		case "netsrv.reads_per_frame":
			rep.set(m.name, frac(uint64(reads), framesIn), m.unit, "traced phases")
		case "netsrv.frames_per_flush":
			rep.set(m.name, frac(framesOut, flushes), m.unit, "traced phases")
		case "gen.late_us_p50":
			rep.setPct(m.name, percentile(late, 0.5), m.unit)
		case "gen.late_us_p99":
			rep.setPct(m.name, percentileSorted(late, 0.99), m.unit)
		case "trace.overhead_p50_x":
			bv, ok1 := base.value()
			tv, ok2 := trc.value()
			if !ok1 || !ok2 || bv == 0 {
				rep.refuse(m.name, m.unit, "no untraced p50")
				continue
			}
			rep.set(m.name, tv/bv, m.unit, fmt.Sprintf("traced p50 %.1f us / untraced p50 %.1f us over %d rounds each", tv, bv, tracedRounds))
		default:
			return fmt.Errorf("no measurement for %s", m.name)
		}
	}
	return nil
}

// printLedger prints each span's mean self time over the traced phase:
// the shares add up to the mean latency.
func printLedger(rec *recorder, res *result, wire bool) {
	var names []string
	sum := map[string]float64{}
	n := 0
	for i := 0; i < rec.s.n(); i++ {
		if !res.good(i) {
			continue
		}
		sp := rec.spans(res, i, wire)
		self, ok := selfTimes(sp)
		if !ok {
			continue
		}
		n++
		for k, s := range sp {
			if _, seen := sum[s.name]; !seen {
				names = append(names, s.name)
			}
			sum[s.name] += float64(self[k])
		}
	}
	if n == 0 {
		return
	}
	total := 0.0
	for _, v := range sum {
		total += v
	}
	fmt.Printf("ledger: mean self time per request over %d traced requests (mean latency %.1f us)\n", n, total/float64(n)/1e3)
	for _, name := range names {
		fmt.Printf("  %-20s %10.2f us %6.1f%%\n", name, sum[name]/float64(n)/1e3, 100*sum[name]/total)
	}
}
