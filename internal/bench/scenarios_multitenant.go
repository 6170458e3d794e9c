// The live_multitenant scenario: drive the runtime past saturation
// with mixed-class traffic and measure what the SLO-class machinery
// buys — and what it costs. Three measurements per repetition:
//
//  1. Capacity: a closed-loop classless run fixes this machine's
//     sustainable rate, so the overload point (1.5×) tracks the
//     hardware instead of hard-coding a rate that one machine can't
//     reach and another won't saturate.
//  2. Overload A/B: the same fixed request count paced open-loop at
//     1.5× capacity, once classless (fcfs, no admission) and once
//     classed (cascade queue, per-class admission, 20% critical /
//     40% standard / 40% sheddable). The classed run must hold the
//     headline: critical's SLO attainment beats sheddable's by >30%
//     while aggregate goodput stays within 5% of the classless run —
//     protection must come from shedding the right work, not from
//     serving less of it.
//  3. Disabled-overhead A/B: interleaved closed-loop batches against a
//     multitenancy-enabled and a plain server, holding the machinery
//     to the standing ≤2% loopback budget.
//
// The gated ratios (slo_gap_x, goodput_ratio, mt_overhead_x) are
// properties of the design rather than of the clock, so they are
// hermetic; raw rates are machine-bound and advisory.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
)

const (
	mtWorkers      = 2
	mtQuantum      = 100 * time.Microsecond
	mtSpin         = 20 * time.Microsecond
	mtSubmitBuffer = 256

	// Capacity probe: closed-loop, classless.
	mtCapClients    = 4
	mtCapReqsPerCli = 3000

	// Overload runs: fixed submission count paced at 1.5× capacity.
	mtOverloadFactor = 1.5
	mtRequests       = 24000
	mtPaceTick       = 2 * time.Millisecond

	// slo_gap_x saturates here: the gate cares about "critical beats
	// sheddable by >30%", and past ~3× the exact multiple is machine
	// noise that would make cross-machine comparison flaky.
	mtGapCap = 3.0

	// Disabled-overhead A/B: interleaved closed-loop batches.
	mtABBatches  = 8
	mtABPerBatch = 300
)

// mtReq is the scenario's payload: a spin under an SLO class.
type mtReq struct {
	spin  time.Duration
	class live.SLOClass
}

func (r mtReq) SLOClass() live.SLOClass { return r.class }

type mtHandler struct{}

func (mtHandler) Setup()          {}
func (mtHandler) SetupWorker(int) {}
func (mtHandler) Handle(ctx *live.Ctx, payload any) (any, error) {
	ctx.Spin(payload.(mtReq).spin)
	return nil, nil
}

// mtClassPattern is the deterministic 20/40/40 submission mix: one
// critical, two standard, two sheddable per five requests.
var mtClassPattern = [5]live.SLOClass{
	live.ClassCritical, live.ClassStandard, live.ClassSheddable,
	live.ClassStandard, live.ClassSheddable,
}

// LiveMultitenantScenario measures SLO-class isolation under overload:
// attainment gap, goodput preservation, and the disabled-path cost.
func LiveMultitenantScenario() Scenario {
	return Scenario{
		Name: "live_multitenant",
		Describe: fmt.Sprintf("mixed-class overload at %.1fx measured capacity: %d workers, %d submissions (20%% critical / 40%% standard / 40%% sheddable, %v spins), cascade+admission vs classless fcfs, plus %d×%d interleaved disabled-overhead batches",
			mtOverloadFactor, mtWorkers, mtRequests, mtSpin, mtABBatches, mtABPerBatch),
		Metrics: map[string]MetricMeta{
			"capacity_rps":          {Unit: "req/s", Better: "higher", Hermetic: false},
			"goodput_classed_rps":   {Unit: "req/s", Better: "higher", Hermetic: false},
			"goodput_classless_rps": {Unit: "req/s", Better: "higher", Hermetic: false},
			"goodput_ratio":         {Unit: "x", Better: "higher", Hermetic: true},
			"slo_gap_x":             {Unit: "x", Better: "higher", Hermetic: true},
			"crit_slo_attainment":   {Unit: "frac", Better: "higher", Hermetic: false},
			"shed_frac":             {Unit: "frac", Better: "higher", Hermetic: false},
			"mt_overhead_x":         {Unit: "x", Better: "lower", Hermetic: true},
		},
		Run: runLiveMultitenant,
	}
}

func runLiveMultitenant() (map[string]float64, error) {
	capacity, err := mtMeasureCapacity()
	if err != nil {
		return nil, err
	}
	rate := capacity * mtOverloadFactor

	classless, err := mtOverloadRun(rate, false)
	if err != nil {
		return nil, err
	}
	classed, err := mtOverloadRun(rate, true)
	if err != nil {
		return nil, err
	}
	overhead, err := mtDisabledOverhead()
	if err != nil {
		return nil, err
	}

	critAtt := classed.attainment(live.ClassCritical)
	shedAtt := classed.attainment(live.ClassSheddable)
	if shedAtt < 0.01 {
		shedAtt = 0.01 // floor: an all-shed run must not divide by zero
	}
	gap := critAtt / shedAtt
	if gap > mtGapCap {
		gap = mtGapCap
	}
	return map[string]float64{
		"capacity_rps":          capacity,
		"goodput_classed_rps":   classed.goodputRPS,
		"goodput_classless_rps": classless.goodputRPS,
		"goodput_ratio":         classed.goodputRPS / classless.goodputRPS,
		"slo_gap_x":             gap,
		"crit_slo_attainment":   critAtt,
		"shed_frac":             classed.shedFrac(),
		"mt_overhead_x":         overhead,
	}, nil
}

// mtMeasureCapacity runs the classless closed loop and returns its
// achieved rate — the definition of "capacity" the overload multiplies.
func mtMeasureCapacity() (float64, error) {
	s := live.New(mtHandler{}, live.Options{
		Workers:      mtWorkers,
		Quantum:      mtQuantum,
		SubmitBuffer: mtSubmitBuffer,
	})
	s.Start()
	defer s.Stop()

	var failed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < mtCapClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < mtCapReqsPerCli; i++ {
				if resp := s.Do(mtReq{spin: mtSpin}); resp.Err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if n := failed.Load(); n > 0 {
		return 0, fmt.Errorf("bench: live_multitenant capacity probe had %d failures", n)
	}
	return float64(mtCapClients*mtCapReqsPerCli) / wall.Seconds(), nil
}

// mtRunResult is one overload run's tally.
type mtRunResult struct {
	goodputRPS float64
	// submitted / completed-within-objective / shed, per class.
	submitted [live.NumClasses]int
	withinSLO [live.NumClasses]int
	shed      int
}

// attainment is the fraction of a class's submissions that completed
// within the class's own latency objective; shed and rejected requests
// count as misses.
func (r *mtRunResult) attainment(c live.SLOClass) float64 {
	if r.submitted[c] == 0 {
		return 0
	}
	return float64(r.withinSLO[c]) / float64(r.submitted[c])
}

func (r *mtRunResult) shedFrac() float64 {
	if n := r.submitted[live.ClassSheddable]; n > 0 {
		return float64(r.shed) / float64(n)
	}
	return 0
}

// mtOverloadRun paces mtRequests submissions open-loop at the given
// rate. With classed=false every request is standard against a plain
// fcfs server (the goodput baseline); with classed=true the 20/40/40
// mix runs against cascade + per-class admission.
func mtOverloadRun(rate float64, classed bool) (*mtRunResult, error) {
	opts := live.Options{
		Workers:      mtWorkers,
		Quantum:      mtQuantum,
		SubmitBuffer: mtSubmitBuffer,
	}
	if classed {
		opts.Policy = live.PolicyCascade
		opts.ClassAdmission = true
	}
	s := live.New(mtHandler{}, opts)
	s.Start()
	defer s.Stop()

	// Open-loop pacing: submit in mtPaceTick batches regardless of
	// completions (Submit never blocks), buffering each response
	// channel for a post-run drain — capacity-1 channels make the
	// drain order irrelevant.
	chans := make([]<-chan live.Response, 0, mtRequests)
	classes := make([]live.SLOClass, mtRequests)
	perTick := rate * mtPaceTick.Seconds()
	start := time.Now()
	var due float64
	for i := 0; i < mtRequests; {
		due += perTick
		for i < mtRequests && float64(i) < due {
			cl := live.ClassStandard
			if classed {
				cl = mtClassPattern[i%len(mtClassPattern)]
			}
			classes[i] = cl
			chans = append(chans, s.Submit(mtReq{spin: mtSpin, class: cl}))
			i++
		}
		time.Sleep(mtPaceTick)
	}

	res := &mtRunResult{}
	completed := 0
	for i, ch := range chans {
		resp := <-ch
		cl := classes[i]
		res.submitted[cl]++
		switch {
		case resp.Err == nil:
			completed++
			if resp.Latency <= cl.DefaultObjective() {
				res.withinSLO[cl]++
			}
		case resp.Err == live.ErrShed:
			res.shed++
		}
	}
	wall := time.Since(start)
	if completed == 0 {
		return nil, fmt.Errorf("bench: live_multitenant overload run (classed=%v) completed nothing", classed)
	}
	res.goodputRPS = float64(completed) / wall.Seconds()
	return res, nil
}

// mtDisabledOverhead interleaves closed-loop batches of classless
// traffic against a multitenancy-enabled server and a plain one, and
// returns the mean-latency ratio (enabled / plain). The machinery's
// cost for a classless request is the admission probe, the cascade
// tier lookup, and the per-class tail observe — the ratio holds them
// to the standing ≤2% loopback budget.
func mtDisabledOverhead() (float64, error) {
	newServer := func(enabled bool) *live.Server {
		opts := live.Options{
			Workers:      mtWorkers,
			Quantum:      mtQuantum,
			SubmitBuffer: mtSubmitBuffer,
		}
		if enabled {
			slos := make([]obs.ClassSLO, live.NumClasses)
			for c := live.SLOClass(0); c < live.NumClasses; c++ {
				slos[c] = obs.ClassSLO{Target: c.DefaultObjective(), Objective: 0.999}
			}
			opts.Policy = live.PolicyCascade
			opts.ClassAdmission = true
			opts.ClassTails = obs.NewClassTails(slos, nil)
		}
		s := live.New(mtHandler{}, opts)
		s.Start()
		return s
	}
	plain, full := newServer(false), newServer(true)
	defer plain.Stop()
	defer full.Stop()

	runBatch := func(s *live.Server) (float64, error) {
		start := time.Now()
		for i := 0; i < mtABPerBatch; i++ {
			if resp := s.Do(mtReq{spin: mtSpin}); resp.Err != nil {
				return 0, fmt.Errorf("bench: live_multitenant overhead batch failed: %w", resp.Err)
			}
		}
		return time.Since(start).Seconds(), nil
	}
	// Warm both paths, then interleave so thermal and GC drift land on
	// both sides equally.
	if _, err := runBatch(plain); err != nil {
		return 0, err
	}
	if _, err := runBatch(full); err != nil {
		return 0, err
	}
	var plainTot, fullTot float64
	for i := 0; i < mtABBatches; i++ {
		p, err := runBatch(plain)
		if err != nil {
			return 0, err
		}
		f, err := runBatch(full)
		if err != nil {
			return 0, err
		}
		plainTot += p
		fullTot += f
	}
	return fullTot / plainTot, nil
}
