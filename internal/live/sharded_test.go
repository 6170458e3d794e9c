package live

// Sharded-dispatcher coverage: Shards > 1 must preserve every lifecycle
// invariant the single-dispatcher runtime guarantees (exactly one
// response per Submit, Submitted == Completed after Stop), work stealing
// must never lose or double-run a task even when it races Stop, and the
// SRPT policy must order the live central queue by remaining work.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func shardedOptions(workers, shards int, quantum time.Duration) Options {
	o := testOptions(workers, quantum)
	o.Shards = shards
	return o
}

// TestShardedManyRequestsAllComplete is the basic completion invariant
// across shard counts, including shards sized so worker partitions are
// uneven (4 workers over 3 shards is exercised via clamping elsewhere).
func TestShardedManyRequestsAllComplete(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(shardName(shards), func(t *testing.T) {
			h := &spinHandler{}
			s := New(h, shardedOptions(4, shards, 200*time.Microsecond))
			if got := s.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}
			s.Start()
			const n = 300
			var chans []<-chan Response
			for i := 0; i < n; i++ {
				d := 20 * time.Microsecond
				if i%10 == 0 {
					d = 400 * time.Microsecond
				}
				chans = append(chans, s.Submit(d))
			}
			for i, ch := range chans {
				select {
				case resp := <-ch:
					if resp.Err != nil {
						t.Fatalf("request %d failed: %v", i, resp.Err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("request %d timed out", i)
				}
			}
			s.Stop()
			st := s.Stats()
			if st.Completed != n {
				t.Fatalf("completed %d of %d", st.Completed, n)
			}
			if shards == 1 && st.Steals != 0 {
				t.Fatalf("single shard recorded %d steals", st.Steals)
			}
		})
	}
}

func shardName(shards int) string {
	return map[int]string{1: "shards-1", 2: "shards-2", 4: "shards-4"}[shards]
}

// TestShardedDepthsShape: Depths exposes one queue-depth and one
// occupancy slot per shard, and the aggregate views still sum.
func TestShardedDepthsShape(t *testing.T) {
	h := &spinHandler{}
	s := New(h, shardedOptions(4, 2, 0))
	s.Start()
	defer s.Stop()
	s.Do(10 * time.Microsecond)
	d := s.Depths()
	if len(d.ShardQueues) != 2 || len(d.ShardOcc) != 2 {
		t.Fatalf("per-shard depth slices = %d/%d, want 2/2", len(d.ShardQueues), len(d.ShardOcc))
	}
	if len(d.Workers) != 4 {
		t.Fatalf("worker occupancy slots = %d, want 4", len(d.Workers))
	}
}

// TestShardsClampedToWorkers: more shards than workers degrades to one
// shard per worker rather than empty shards.
func TestShardsClampedToWorkers(t *testing.T) {
	s := New(&spinHandler{}, shardedOptions(2, 8, 0))
	if got := s.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want clamp to 2", got)
	}
	s.Start()
	defer s.Stop()
	if resp := s.Do(10 * time.Microsecond); resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

// TestShardedChaosLifecycle reruns the chaos invariant (exactly one
// response per submission; Submitted == Completed after Stop) with the
// dispatcher sharded 2 and 4 ways, including a work-conserving variant.
func TestShardedChaosLifecycle(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"shards-2", Options{Workers: 4, Shards: 2, Quantum: 100 * time.Microsecond, QueueBound: 2,
			DrainTimeout: 500 * time.Millisecond}},
		{"shards-4", Options{Workers: 4, Shards: 4, Quantum: 100 * time.Microsecond, QueueBound: 1,
			WorkConserving: true, DrainTimeout: 500 * time.Millisecond}},
		{"shards-2-srpt", Options{Workers: 4, Shards: 2, Policy: PolicySRPT,
			Quantum: 100 * time.Microsecond, QueueBound: 2,
			DrainTimeout: 500 * time.Millisecond}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			s := New(chaosHandler{}, cfg.opts)
			s.Start()
			const clients, perClient = 8, 40
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
					for i := 0; i < perClient; i++ {
						ch := s.Submit(randomChaosReq(rng))
						if !receiveExactlyOne(t, ch) {
							return
						}
					}
				}(c)
			}
			time.Sleep(2 * time.Millisecond)
			stopDone := make(chan struct{})
			go func() { s.Stop(); close(stopDone) }()
			wg.Wait()
			select {
			case <-stopDone:
			case <-time.After(15 * time.Second):
				t.Fatal("sharded chaos: Stop hung")
			}
			st := s.Stats()
			if st.Submitted != st.Completed {
				t.Fatalf("sharded chaos: submitted %d != completed %d; stats %+v",
					st.Submitted, st.Completed, st)
			}
		})
	}
}

// blockingHandler parks handler goroutines on a channel so tests can
// hold workers busy deterministically.
type blockingHandler struct {
	release chan struct{}
	order   struct {
		mu    sync.Mutex
		hints []time.Duration
	}
}

func (h *blockingHandler) Setup()          {}
func (h *blockingHandler) SetupWorker(int) {}
func (h *blockingHandler) Handle(ctx *Ctx, payload any) (any, error) {
	switch p := payload.(type) {
	case string: // "block"
		<-h.release
		return p, nil
	case hintedSpin:
		h.order.mu.Lock()
		h.order.hints = append(h.order.hints, p.hint)
		h.order.mu.Unlock()
		return p.hint, nil
	default:
		return payload, nil
	}
}

// hintedSpin is a payload carrying an SRPT service hint.
type hintedSpin struct {
	hint time.Duration
}

func (p hintedSpin) ServiceHint() time.Duration { return p.hint }

// TestSRPTLiveOrdering: with one worker held busy, queued hinted
// requests must run shortest-remaining-first once the worker frees up.
func TestSRPTLiveOrdering(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	o := testOptions(1, 0)
	o.Policy = PolicySRPT
	o.QueueBound = 1
	s := New(h, o)
	s.Start()

	blocked := s.Submit("block")
	time.Sleep(time.Millisecond) // let the blocker reach the worker

	hints := []time.Duration{400, 100, 300, 200} // microseconds, submitted out of order
	var chans []<-chan Response
	for _, us := range hints {
		chans = append(chans, s.Submit(hintedSpin{hint: us * time.Microsecond}))
	}
	time.Sleep(time.Millisecond) // let all four reach the central queue
	close(h.release)
	<-blocked
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s.Stop()

	h.order.mu.Lock()
	got := append([]time.Duration(nil), h.order.hints...)
	h.order.mu.Unlock()
	want := []time.Duration{100, 200, 300, 400}
	if len(got) != len(want) {
		t.Fatalf("ran %d hinted requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i]*time.Microsecond {
			t.Fatalf("SRPT run order %v, want %v µs", got, want)
		}
	}
}

// TestFCFSIgnoresHints: the same out-of-order submission under FCFS must
// run in arrival order — hints are policy-scoped, not a global reorder.
func TestFCFSIgnoresHints(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	o := testOptions(1, 0)
	o.QueueBound = 1
	s := New(h, o)
	s.Start()

	blocked := s.Submit("block")
	time.Sleep(time.Millisecond)
	hints := []time.Duration{400, 100, 300, 200}
	var chans []<-chan Response
	for _, us := range hints {
		chans = append(chans, s.Submit(hintedSpin{hint: us * time.Microsecond}))
	}
	time.Sleep(time.Millisecond)
	close(h.release)
	<-blocked
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s.Stop()

	h.order.mu.Lock()
	got := append([]time.Duration(nil), h.order.hints...)
	h.order.mu.Unlock()
	for i, us := range hints {
		if got[i] != us*time.Microsecond {
			t.Fatalf("FCFS run order %v, want submission order %v µs", got, hints)
		}
	}
}

// TestWorkStealingRacingStop holds one shard's worker busy so the other
// shard must steal its backlog, widens the steal window with the test
// gate, and fires Stop inside that window. Invariants: at least one
// steal happened, every submission got exactly one response, and no
// request was lost or run twice (Submitted == Completed, and each
// hinted request ran at most once).
func TestWorkStealingRacingStop(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	o := Options{Workers: 2, Shards: 2, QueueBound: 1,
		DrainTimeout: 5 * time.Second}

	var stealOnce sync.Once
	stealSeen := make(chan struct{})
	testStealGate = func() {
		stealOnce.Do(func() { close(stealSeen) })
		// Widen the pop-to-dispatch window so Stop's drain check runs
		// while the stolen task is in the thief's hands.
		time.Sleep(200 * time.Microsecond)
	}
	defer func() { testStealGate = nil }()

	s := New(h, o)
	s.Start()

	// Occupy both workers (one per shard) with blockers.
	blockers := []<-chan Response{s.Submit("block"), s.Submit("block")}
	time.Sleep(time.Millisecond)

	// Pile never-started work into both central queues.
	const n = 32
	var chans []<-chan Response
	for i := 0; i < n; i++ {
		chans = append(chans, s.Submit(hintedSpin{hint: time.Duration(i) * time.Microsecond}))
	}
	time.Sleep(time.Millisecond)

	// Free exactly one worker: its shard drains its own queue, then must
	// steal the blocked sibling's backlog.
	h.release <- struct{}{}

	stopDone := make(chan struct{})
	go func() {
		select {
		case <-stealSeen:
		case <-time.After(10 * time.Second):
		}
		go func() { s.Stop(); close(stopDone) }()
		time.Sleep(time.Millisecond)
		close(h.release) // free the second blocker so drain can finish
	}()

	select {
	case <-stealSeen:
	case <-time.After(10 * time.Second):
		t.Fatal("no steal observed")
	}
	for _, ch := range blockers {
		if !receiveExactlyOne(t, ch) {
			t.Fatal("blocker lost")
		}
	}
	for i, ch := range chans {
		if !receiveExactlyOne(t, ch) {
			t.Fatalf("request %d lost", i)
		}
	}
	select {
	case <-stopDone:
	case <-time.After(15 * time.Second):
		t.Fatal("Stop hung during steal race")
	}

	st := s.Stats()
	if st.Steals == 0 {
		t.Fatal("Steals counter is zero after an observed steal")
	}
	if st.Submitted != st.Completed {
		t.Fatalf("submitted %d != completed %d after steal race; stats %+v",
			st.Submitted, st.Completed, st)
	}
	// No double-run: each hinted request records its hint exactly once.
	h.order.mu.Lock()
	counts := map[time.Duration]int{}
	for _, hint := range h.order.hints {
		counts[hint]++
	}
	h.order.mu.Unlock()
	for hint, c := range counts {
		if c > 1 {
			t.Fatalf("request with hint %v ran %d times", hint, c)
		}
	}
}

// TestStealKeepsThroughputWhenOneShardStalls: with stealing, a stalled
// shard's backlog still completes via its siblings (global work
// conservation, §3.3 across shards).
func TestStealKeepsThroughputWhenOneShardStalls(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	s := New(h, Options{Workers: 2, Shards: 2, QueueBound: 1,
		DrainTimeout: 5 * time.Second})
	s.Start()

	// Stall both workers, queue work, then free only one.
	blockers := []<-chan Response{s.Submit("block"), s.Submit("block")}
	time.Sleep(time.Millisecond)
	const n = 24
	var chans []<-chan Response
	for i := 0; i < n; i++ {
		chans = append(chans, s.Submit(hintedSpin{hint: time.Microsecond}))
	}
	time.Sleep(time.Millisecond)
	h.release <- struct{}{}

	// Every queued request must complete even though one shard's worker
	// never frees up — the live shard steals the backlog.
	var done atomic.Int32
	var wg sync.WaitGroup
	for _, ch := range chans {
		wg.Add(1)
		go func(ch <-chan Response) {
			defer wg.Done()
			select {
			case resp := <-ch:
				if resp.Err == nil {
					done.Add(1)
				}
			case <-time.After(10 * time.Second):
			}
		}(ch)
	}
	wg.Wait()
	if got := done.Load(); got != n {
		t.Fatalf("only %d of %d requests completed with one shard stalled", got, n)
	}
	if s.Stats().Steals == 0 {
		t.Fatal("no steals recorded while draining a stalled shard's backlog")
	}
	close(h.release)
	for _, ch := range blockers {
		<-ch
	}
	s.Stop()
}
