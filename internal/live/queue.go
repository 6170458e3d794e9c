// Scheduling-policy layer: the central queue. All queue order decisions
// live behind internal/policy.Queue[*task] (FCFS or SRPT, selected by
// Options.Policy); this file only adapts that single-goroutine
// interface for shard-concurrent access and bolts on what the policies
// deliberately don't know about: deadlines.
//
// Expiry uses a deadline min-heap plus tombstones instead of scanning:
// the old dispatcher swept the whole FIFO every millisecond (O(n)
// per sweep, O(n·m) per request lifetime at depth n) and spliced
// mid-slice on work-conserving steals. Here the sweep pops only
// already-expired heap heads (O(log n) each), the popped task is marked
// dead in place, and the policy queue drops tombstones lazily on Pop —
// no mid-structure removal ever happens, so dispatch cost stays flat
// with depth (see BenchmarkDispatchDepth10k).
package live

import (
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/policy"
)

// dlEntry is one deadline-heap element.
type dlEntry struct {
	at time.Time
	t  *task
}

// centralQueue is one shard's run queue: a policy.Queue[*task] under a
// mutex (the owning dispatcher pushes and pops; sibling shards pop
// non-started tasks when stealing), a deadline min-heap, and an atomic
// live-length mirror that Depths and steal-victim selection read
// without the lock.
type centralQueue struct {
	mu sync.Mutex
	q  policy.Queue[*task]
	dl []dlEntry
	// length counts live (non-tombstoned) queued tasks.
	length atomic.Int64
	// critical counts live queued ClassCritical tasks — the
	// dispatcher's lock-free "is protected work waiting?" probe that
	// tightens lower-class quanta while critical work is queued.
	critical atomic.Int64
}

// newCentralQueue builds a queue with the named discipline.
func newCentralQueue(name string) (*centralQueue, error) {
	q, err := policy.NewQueue[*task](name)
	if err != nil {
		return nil, err
	}
	return &centralQueue{q: q}, nil
}

// Len returns the live queue length without taking the lock.
func (c *centralQueue) Len() int { return int(c.length.Load()) }

// CriticalLen returns the live queued ClassCritical count without
// taking the lock.
func (c *centralQueue) CriticalLen() int { return int(c.critical.Load()) }

// Push enqueues t. The caller must have finished all writes to the
// task: once inside, a sibling shard may pop it — and run, complete and
// recycle it — so t is not touched after the unlock.
func (c *centralQueue) Push(t *task) {
	c.mu.Lock()
	t.inQueue = true
	c.q.Push(t, t.started)
	if !t.deadline.IsZero() && !t.inDL {
		t.inDL = true
		c.dlPush(dlEntry{at: t.deadline, t: t})
	}
	c.length.Add(1)
	if SLOClass(t.class) == ClassCritical {
		c.critical.Add(1)
	}
	c.mu.Unlock()
}

// Pop removes and returns the next live task per the discipline,
// discarding tombstones on the way.
func (c *centralQueue) Pop() (*task, bool) {
	c.mu.Lock()
	for {
		t, ok := c.q.Pop()
		if !ok {
			c.mu.Unlock()
			return nil, false
		}
		if t.dead {
			continue // expired by the sweep while queued
		}
		t.inQueue = false
		c.mu.Unlock()
		c.length.Add(-1)
		if SLOClass(t.class) == ClassCritical {
			c.critical.Add(-1)
		}
		return t, true
	}
}

// PopNonStarted removes and returns the next live never-started task —
// what the work-conserving dispatcher may run (§3.3) and what sibling
// shards may steal.
func (c *centralQueue) PopNonStarted() (*task, bool) {
	c.mu.Lock()
	for {
		t, ok := c.q.PopNonStarted()
		if !ok {
			c.mu.Unlock()
			return nil, false
		}
		if t.dead {
			continue
		}
		t.inQueue = false
		c.mu.Unlock()
		c.length.Add(-1)
		if SLOClass(t.class) == ClassCritical {
			c.critical.Add(-1)
		}
		return t, true
	}
}

// SweepExpired pops every deadline at or before now off the heap and
// returns the expired tasks that were still queued, tombstoning their
// policy-queue entries in place. Heap entries whose task has since left
// the queue are dropped (the task re-adds itself on its next Push).
func (c *centralQueue) SweepExpired(now time.Time) []*task {
	c.mu.Lock()
	var out []*task
	for len(c.dl) > 0 && !c.dl[0].at.After(now) {
		e := c.dlPop()
		e.t.inDL = false
		if e.t.inQueue && !e.t.dead {
			e.t.dead = true
			c.length.Add(-1)
			if SLOClass(e.t.class) == ClassCritical {
				c.critical.Add(-1)
			}
			out = append(out, e.t)
		}
	}
	c.mu.Unlock()
	return out
}

// SwapPolicy replaces the queue's discipline, re-enqueueing every live
// task into a fresh policy queue of the named kind under the lock (the
// dispatcher's quiesce point for runtime policy switching). Tombstoned
// tasks are dropped on the way — their deadline-sweep completion
// already happened — and the deadline heap is untouched: it orders by
// time, not discipline. Unknown names panic: SetPolicy validated the
// name, so reaching here with a bad one is a programming error.
func (c *centralQueue) SwapPolicy(name string) {
	nq, err := policy.NewQueue[*task](name)
	if err != nil {
		panic("live: " + err.Error())
	}
	c.mu.Lock()
	for {
		t, ok := c.q.Pop()
		if !ok {
			break
		}
		if t.dead {
			continue
		}
		nq.Push(t, t.started)
	}
	c.q = nq
	c.mu.Unlock()
}

// DrainAll removes and returns every live task in discipline order, for
// abort-mode failPending.
func (c *centralQueue) DrainAll() []*task {
	c.mu.Lock()
	var out []*task
	for {
		t, ok := c.q.Pop()
		if !ok {
			break
		}
		if t.dead {
			continue
		}
		t.inQueue = false
		t.inDL = false
		c.length.Add(-1)
		if SLOClass(t.class) == ClassCritical {
			c.critical.Add(-1)
		}
		out = append(out, t)
	}
	c.dl = c.dl[:0]
	c.mu.Unlock()
	return out
}

// ---------- deadline min-heap (ordered by at) ----------

func (c *centralQueue) dlPush(e dlEntry) {
	c.dl = append(c.dl, e)
	i := len(c.dl) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.dl[i].at.Before(c.dl[parent].at) {
			break
		}
		c.dl[i], c.dl[parent] = c.dl[parent], c.dl[i]
		i = parent
	}
}

func (c *centralQueue) dlPop() dlEntry {
	e := c.dl[0]
	last := len(c.dl) - 1
	c.dl[0] = c.dl[last]
	c.dl[last] = dlEntry{}
	c.dl = c.dl[:last]
	n := len(c.dl)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.dl[l].at.Before(c.dl[smallest].at) {
			smallest = l
		}
		if r < n && c.dl[r].at.Before(c.dl[smallest].at) {
			smallest = r
		}
		if smallest == i {
			return e
		}
		c.dl[i], c.dl[smallest] = c.dl[smallest], c.dl[i]
		i = smallest
	}
}
