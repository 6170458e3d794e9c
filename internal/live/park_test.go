package live

// Park-path tests: a drained shard's dispatcher blocks instead of
// spinning, and every event it must react to while blocked — a
// submission, Stop, a drain abort, SetPolicy, a backlogged sibling —
// unparks it. Each check waits on a state, never on a time bound.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"concord/internal/policy"
)

// parkHandler answers every payload at once except a chan struct{},
// which it holds (polling, so a drain abort can unwind it) until the
// channel is closed. started receives one value per held request as it
// begins.
type parkHandler struct{ started chan struct{} }

func (parkHandler) Setup()          {}
func (parkHandler) SetupWorker(int) {}
func (h parkHandler) Handle(ctx *Ctx, payload any) (any, error) {
	hold, ok := payload.(chan struct{})
	if !ok {
		return payload, nil
	}
	h.started <- struct{}{}
	for {
		select {
		case <-hold:
			return nil, nil
		default:
		}
		ctx.Poll()
		time.Sleep(20 * time.Microsecond)
	}
}

func newParkHandler() parkHandler { return parkHandler{started: make(chan struct{}, 16)} }

// waitParked blocks until each listed shard's dispatcher is parked, or
// fails the test after 10s.
func waitParked(t *testing.T, s *Server, shards ...int) {
	t.Helper()
	if len(shards) == 0 {
		for i := range s.shards {
			shards = append(shards, i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, i := range shards {
		for !s.shards[i].parked.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d's dispatcher never parked on an idle server", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// submitTo submits payload to shard sh of a two-shard server by
// positioning the ingest round-robin cursor, which picks shard
// (cursor+1) mod 2.
func submitTo(s *Server, sh int, payload any) <-chan Response {
	s.rr.Store(uint64(sh + 1))
	return s.Submit(payload)
}

// TestIdleServerParksAndServes: an idle server's dispatchers park; a
// submission to a parked server is answered; the dispatchers park
// again once it completes; Stop on a parked server returns.
func TestIdleServerParksAndServes(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			s := New(newParkHandler(), Options{Workers: 4, Shards: shards, Quantum: 100 * time.Microsecond})
			s.Start()
			waitParked(t, s)
			for i := 0; i < 2*shards; i++ {
				if !receiveExactlyOne(t, s.Submit(i)) {
					t.Fatalf("submission %d to a parked server was not answered", i)
				}
			}
			waitParked(t, s)
			stopDone := make(chan struct{})
			go func() { s.Stop(); close(stopDone) }()
			select {
			case <-stopDone:
			case <-time.After(10 * time.Second):
				t.Fatal("Stop on a parked server hung")
			}
			if st := s.Stats(); st.Submitted != st.Completed || st.Submitted != uint64(2*shards) {
				t.Fatalf("submitted %d, completed %d, want %d each", st.Submitted, st.Completed, 2*shards)
			}
		})
	}
}

// TestDrainAbortWithParkedShard: one shard is parked while its sibling
// holds a request that never finishes on its own. Stop must wake the
// parked shard (which then exits) and the drain deadline must abort the
// held request, so Stop returns and the request fails with
// ErrServerStopped.
func TestDrainAbortWithParkedShard(t *testing.T) {
	h := newParkHandler()
	s := New(h, Options{Workers: 2, Shards: 2, DrainTimeout: 20 * time.Millisecond})
	s.Start()
	waitParked(t, s)
	held := submitTo(s, 0, make(chan struct{}))
	<-h.started
	waitParked(t, s, 1)

	stopDone := make(chan struct{})
	go func() { s.Stop(); close(stopDone) }()
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung with a parked shard and a drain abort pending")
	}
	select {
	case resp := <-held:
		if !errors.Is(resp.Err, ErrServerStopped) {
			t.Fatalf("held request err = %v, want ErrServerStopped", resp.Err)
		}
	default:
		t.Fatal("held request unanswered after Stop returned")
	}
	if st := s.Stats(); st.Aborted != 1 || st.Submitted != st.Completed {
		t.Fatalf("stats %+v, want 1 aborted and submitted == completed", st)
	}
}

// TestSetPolicyWakesParkedShards: SetPolicy on a parked server is
// applied by every dispatcher at once — without a submission to wake
// it — so the first request after the switch is already dispatched
// under the new discipline.
func TestSetPolicyWakesParkedShards(t *testing.T) {
	s := New(newParkHandler(), Options{Workers: 2, Shards: 2})
	s.Start()
	defer s.Stop()
	waitParked(t, s)
	if err := s.SetPolicy(PolicySRPT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, sh := range s.shards {
		for {
			sh.q.mu.Lock()
			_, srpt := sh.q.q.(*policy.SRPT[*task])
			sh.q.mu.Unlock()
			if srpt {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("parked shard %d never applied SetPolicy(%s)", sh.id, PolicySRPT)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitParked(t, s)
}

// TestParkedShardStealsFromBackloggedSibling: shard 1 is parked and
// receives nothing; shard 0's only worker is held, so its queued
// requests can only finish if the backlogged shard wakes its parked
// sibling to steal them.
func TestParkedShardStealsFromBackloggedSibling(t *testing.T) {
	h := newParkHandler()
	s := New(h, Options{Workers: 2, Shards: 2, QueueBound: 1})
	s.Start()
	waitParked(t, s)

	release := make(chan struct{})
	held := submitTo(s, 0, release)
	<-h.started
	waitParked(t, s, 1)

	const n = 16
	var chans []<-chan Response
	for i := 0; i < n; i++ {
		chans = append(chans, submitTo(s, 0, i))
	}
	for i, ch := range chans {
		if !receiveExactlyOne(t, ch) {
			t.Fatalf("request %d stranded behind a held worker while its sibling was parked", i)
		}
	}
	if st := s.Stats(); st.Steals != n {
		t.Fatalf("Steals = %d, want %d (every queued request taken by the parked sibling)", st.Steals, n)
	}
	close(release)
	if !receiveExactlyOne(t, held) {
		t.Fatal("held request lost")
	}
	s.Stop()
	if st := s.Stats(); st.Submitted != st.Completed {
		t.Fatalf("submitted %d != completed %d", st.Submitted, st.Completed)
	}
}

// TestChaosParkWake runs the chaos invariant (exactly one response per
// submission; Submitted == Completed after Stop) through repeated
// park/wake cycles: every round starts from a fully parked server, and
// the last round races Stop.
func TestChaosParkWake(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			s := New(chaosHandler{}, Options{Workers: 4, Shards: shards,
				Quantum: 100 * time.Microsecond, QueueBound: 1, WorkConserving: shards == 4,
				DrainTimeout: 500 * time.Millisecond})
			s.Start()
			const rounds, clients, perClient = 4, 6, 10
			for r := 0; r < rounds; r++ {
				waitParked(t, s)
				var stopDone chan struct{}
				if r == rounds-1 {
					stopDone = make(chan struct{})
					go func() { s.Stop(); close(stopDone) }()
				}
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(r*clients+c)*7919 + 5))
						for i := 0; i < perClient; i++ {
							if !receiveExactlyOne(t, s.Submit(randomChaosReq(rng))) {
								return
							}
						}
					}(c)
				}
				wg.Wait()
				if stopDone != nil {
					select {
					case <-stopDone:
					case <-time.After(15 * time.Second):
						t.Fatal("Stop hung")
					}
				}
			}
			if st := s.Stats(); st.Submitted != st.Completed {
				t.Fatalf("submitted %d != completed %d; stats %+v", st.Submitted, st.Completed, st)
			}
		})
	}
}
