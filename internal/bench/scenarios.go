// The standardized scenario suite. Per-repetition workload sizes are
// fixed constants and must never shrink in "short" runs: short runs
// reduce repetitions, not work per repetition, so the deterministic
// (hermetic) metrics stay comparable to checked-in baselines.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/core"
	"concord/internal/cost"
	"concord/internal/live"
	"concord/internal/server"
	"concord/internal/workload"
)

const (
	// Core scenario: one Concord sweep on the paper's YCSB bimodal
	// workload. Seeded, so the slowdown quantiles and SLO crossing are
	// bit-identical on every machine.
	coreRequests = 20000
	coreSeed     = 1
	coreQuantum  = 2 // µs
	coreWorkers  = 14
	// coreMidLoad is the load point the quantile metrics report; it
	// must be one of coreLoads.
	coreMidLoad = 180

	// Live scenario: closed-loop loopback clients against an
	// in-process live.Server running a spin handler. A 1-in-20 long
	// request above the quantum exercises the preempt/requeue path.
	liveWorkers    = 2
	liveQuantum    = 200 * time.Microsecond
	liveClients    = 4
	liveReqsPerCli = 8000
	liveLongEvery  = 20
	liveLongSpin   = 500 * time.Microsecond

	// Sharded live scenario: the same loopback harness pointed at a
	// sharded dispatcher. Zero-work requests isolate the dispatch path
	// (submit → policy queue → JBSQ placement → response) so the shard
	// sweep measures dispatcher throughput, not handler execution.
	shardedWorkers    = 4
	shardedQuantum    = 200 * time.Microsecond
	shardedClients    = 8
	shardedReqsPerCli = 2000
)

// shardedSweep is the dispatcher shard counts measured per repetition.
var shardedSweep = []int{1, 2, 4}

// coreLoads is the swept offered load in kRps. The top points bracket
// Concord's SLO crossing so max_load_slo_krps interpolates inside the
// sweep instead of clamping to an endpoint.
var coreLoads = []float64{60, 120, 180, 240, 300}

// Scenarios returns the standard suite in run order.
func Scenarios() []Scenario {
	return []Scenario{CoreScenario(), LiveScenario(), LiveShardedScenario(), LiveAdaptiveScenario(), NetScenario(), LiveRegretScenario(), LiveMultitenantScenario()}
}

// ByName resolves a scenario by its report name.
func ByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("bench: unknown scenario %q", name)
}

// CoreScenario benchmarks the discrete-event simulator: deterministic
// tail quantiles and SLO throughput (hermetic) plus the wall-clock
// simulation rate (machine-bound).
func CoreScenario() Scenario {
	return Scenario{
		Name: "core",
		Describe: fmt.Sprintf("Concord simulator sweep, YCSB bimodal, %d requests/load, loads %v kRps, seed %d",
			coreRequests, coreLoads, coreSeed),
		Metrics: map[string]MetricMeta{
			"sim_wall_krps":     {Unit: "kreq/s", Better: "higher", Hermetic: false},
			"p50_slowdown":      {Unit: "x", Better: "lower", Hermetic: true},
			"p99_slowdown":      {Unit: "x", Better: "lower", Hermetic: true},
			"p999_slowdown":     {Unit: "x", Better: "lower", Hermetic: true},
			"max_load_slo_krps": {Unit: "kreq/s", Better: "higher", Hermetic: true},
			"allocs_per_req":    {Unit: "allocs", Better: "lower", Hermetic: true},
		},
		Run: runCore,
	}
}

func runCore() (map[string]float64, error) {
	e := core.Experiment{
		Name:      "bench-core",
		Workload:  workload.YCSBBimodal(),
		QuantumUS: coreQuantum,
		Systems:   []server.Config{server.Concord(cost.Default(), coreWorkers, coreQuantum)},
		LoadsKRps: coreLoads,
		Params:    server.RunParams{Requests: coreRequests, Seed: coreSeed},
		Parallel:  runtime.GOMAXPROCS(0),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := e.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	if len(res.Curves) != 1 {
		return nil, fmt.Errorf("bench: core expected 1 curve, got %d", len(res.Curves))
	}
	curve := res.Curves[0]
	total := 0
	var mid *struct{ p50, p99, p999 float64 }
	for _, p := range curve.Points {
		total += p.Samples
		if p.OfferedKRps == coreMidLoad {
			mid = &struct{ p50, p99, p999 float64 }{p.P50, p.P99, p.P999}
		}
	}
	if mid == nil {
		return nil, fmt.Errorf("bench: core sweep has no %d kRps point", coreMidLoad)
	}
	maxLoad, ok := res.MaxLoadKRps[curve.System]
	if !ok {
		return nil, fmt.Errorf("bench: %s never meets the SLO in %v", curve.System, coreLoads)
	}
	return map[string]float64{
		"sim_wall_krps":     float64(total) / wall.Seconds() / 1000,
		"p50_slowdown":      mid.p50,
		"p99_slowdown":      mid.p99,
		"p999_slowdown":     mid.p999,
		"max_load_slo_krps": maxLoad,
		"allocs_per_req":    float64(after.Mallocs-before.Mallocs) / float64(total),
	}, nil
}

// benchSpin is the live scenario's handler: spin for the payload
// duration, polling for preemption.
type benchSpin struct{}

func (benchSpin) Setup()          {}
func (benchSpin) SetupWorker(int) {}
func (benchSpin) Handle(ctx *live.Ctx, payload any) (any, error) {
	d := payload.(time.Duration)
	if d > 0 {
		ctx.Spin(d)
	}
	return d, nil
}

// LiveScenario benchmarks the real serving path end to end: submit,
// dispatch, JBSQ, execution (with occasional preemption), response.
// Latency and throughput are machine-bound; the allocation count per
// request is a property of the code path and gated hermetically.
func LiveScenario() Scenario {
	return Scenario{
		Name: "live",
		Describe: fmt.Sprintf("in-process loopback, %d workers, quantum %v, %d closed-loop clients × %d requests, 1/%d spin %v",
			liveWorkers, liveQuantum, liveClients, liveReqsPerCli, liveLongEvery, liveLongSpin),
		Metrics: map[string]MetricMeta{
			"throughput_rps": {Unit: "req/s", Better: "higher", Hermetic: false},
			"p50_us":         {Unit: "us", Better: "lower", Hermetic: false},
			"p99_us":         {Unit: "us", Better: "lower", Hermetic: false},
			"p999_us":        {Unit: "us", Better: "lower", Hermetic: false},
			"allocs_per_req": {Unit: "allocs", Better: "lower", Hermetic: true},
		},
		Run: runLive,
	}
}

func runLive() (map[string]float64, error) {
	s := live.New(benchSpin{}, live.Options{
		Workers: liveWorkers,
		Quantum: liveQuantum,
	})
	s.Start()
	defer s.Stop()

	perClient := make([][]float64, liveClients)
	var failed atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < liveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats := make([]float64, 0, liveReqsPerCli)
			for i := 0; i < liveReqsPerCli; i++ {
				var d time.Duration
				if i%liveLongEvery == 0 {
					d = liveLongSpin
				}
				resp := s.Do(d)
				if resp.Err != nil {
					failed.Add(1)
					continue
				}
				lats = append(lats, float64(resp.Latency)/float64(time.Microsecond))
			}
			perClient[c] = lats
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	if n := failed.Load(); n > 0 {
		return nil, fmt.Errorf("bench: live loopback had %d failed requests", n)
	}
	var lats []float64
	for _, l := range perClient {
		lats = append(lats, l...)
	}
	sort.Float64s(lats)
	total := len(lats)
	if total != liveClients*liveReqsPerCli {
		return nil, fmt.Errorf("bench: live completed %d of %d", total, liveClients*liveReqsPerCli)
	}
	return map[string]float64{
		"throughput_rps": float64(total) / wall.Seconds(),
		"p50_us":         quantileSorted(lats, 0.50),
		"p99_us":         quantileSorted(lats, 0.99),
		"p999_us":        quantileSorted(lats, 0.999),
		"allocs_per_req": float64(after.Mallocs-before.Mallocs) / float64(total),
	}, nil
}

// LiveShardedScenario sweeps the dispatcher shard count over the same
// in-process loopback: one throughput point per shard count in
// shardedSweep, plus a single hermetic allocation count over the whole
// sweep (the per-request code path is shard-count independent, so any
// shift means the dispatch path grew an allocation).
//
// Throughput points are machine-bound. On hosts with cores to spare the
// sweep should rise monotonically with shards; on a single-core host
// the extra dispatcher loops contend instead, and the points record
// that honestly rather than gating on a shape the hardware cannot show.
func LiveShardedScenario() Scenario {
	return Scenario{
		Name: "live_sharded",
		Describe: fmt.Sprintf("in-process loopback, %d workers, shard sweep %v, %d closed-loop clients × %d zero-work requests per point",
			shardedWorkers, shardedSweep, shardedClients, shardedReqsPerCli),
		Metrics: map[string]MetricMeta{
			"throughput_rps_shards1": {Unit: "req/s", Better: "higher", Hermetic: false},
			"throughput_rps_shards2": {Unit: "req/s", Better: "higher", Hermetic: false},
			"throughput_rps_shards4": {Unit: "req/s", Better: "higher", Hermetic: false},
			"allocs_per_req":         {Unit: "allocs", Better: "lower", Hermetic: true},
		},
		Run: runLiveSharded,
	}
}

func runLiveSharded() (map[string]float64, error) {
	out := make(map[string]float64, len(shardedSweep)+1)
	var mallocs, total uint64
	for _, shards := range shardedSweep {
		rps, m, n, err := runShardedPoint(shards)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("throughput_rps_shards%d", shards)] = rps
		mallocs += m
		total += n
	}
	out["allocs_per_req"] = float64(mallocs) / float64(total)
	return out, nil
}

// runShardedPoint runs one closed-loop loopback at the given shard
// count and returns its throughput plus the raw allocation tally.
func runShardedPoint(shards int) (rps float64, mallocs, requests uint64, err error) {
	s := live.New(benchSpin{}, live.Options{
		Workers: shardedWorkers,
		Shards:  shards,
		Quantum: shardedQuantum,
	})
	s.Start()
	defer s.Stop()

	var failed atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < shardedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < shardedReqsPerCli; i++ {
				if resp := s.Do(time.Duration(0)); resp.Err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	if n := failed.Load(); n > 0 {
		return 0, 0, 0, fmt.Errorf("bench: live_sharded shards=%d had %d failed requests", shards, n)
	}
	requests = uint64(shardedClients) * uint64(shardedReqsPerCli)
	return float64(requests) / wall.Seconds(), after.Mallocs - before.Mallocs, requests, nil
}
