// Quickstart: run the live Concord runtime in-process and watch
// cooperative preemption bound tail latency.
//
// A single worker serves a bimodal stream: many 50µs requests and a few
// 5ms "scans". Without preemption the short requests get stuck behind
// the scans; with a 200µs quantum the scans yield and the short
// requests' tail collapses.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"time"

	"concord/internal/live"
	"concord/internal/trace"
)

// spinner is the synthetic service of §5.1: it spins for the requested
// duration, polling for preemption as instrumented code would.
type spinner struct{}

func (spinner) Setup()          {}
func (spinner) SetupWorker(int) {}
func (spinner) Handle(ctx *live.Ctx, payload any) (any, error) {
	ctx.Spin(payload.(time.Duration))
	return nil, nil
}

func run(name string, quantum time.Duration, workConserving bool) float64 {
	srv := live.New(spinner{}, live.Options{
		Workers:        1,
		Quantum:        quantum,
		QueueBound:     2,
		WorkConserving: workConserving,
	})
	srv.Start()
	defer srv.Stop()

	rng := rand.New(rand.NewSource(42))
	lg := trace.NewLog(256)
	var pending []<-chan live.Response
	var classes []string
	var services []time.Duration

	for i := 0; i < 200; i++ {
		service := 50 * time.Microsecond
		class := "short"
		if rng.Float64() < 0.05 {
			service = 5 * time.Millisecond
			class = "long"
		}
		pending = append(pending, srv.Submit(service))
		classes = append(classes, class)
		services = append(services, service)
		time.Sleep(time.Duration(rng.ExpFloat64() * float64(150*time.Microsecond)))
	}
	for i, ch := range pending {
		resp := <-ch
		lg.Add(trace.Record{
			Class:        classes[i],
			ServiceUS:    float64(services[i]) / float64(time.Microsecond),
			SojournUS:    float64(resp.Latency) / float64(time.Microsecond),
			Preemptions:  resp.Preemptions,
			OnDispatcher: resp.OnDispatcher,
		})
	}
	st := srv.Stats()
	sum := lg.Summarize()
	fmt.Printf("%-20s %s\n", name, sum)
	fmt.Printf("%-20s server counters: %d completed, %d preemptions, %d run by dispatcher\n\n",
		"", st.Completed, st.Preemptions, st.DispatcherRun)
	return sum.P99
}

func main() {
	fmt.Println("Concord quickstart: 1 worker, 95% x 50µs + 5% x 5ms requests")
	fmt.Println()
	fcfs := run("FCFS (q=0):", 0, false)
	concord := run("Concord (q=200µs):", 200*time.Microsecond, true)
	fmt.Printf("With preemption, short requests no longer wait out entire 5ms scans:\n")
	fmt.Printf("p99 slowdown %.0fx -> %.0fx (%.1fx better) at identical load.\n", fcfs, concord, fcfs/concord)
}
