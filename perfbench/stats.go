package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	rtm "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the fewest samples a percentile must have beyond it to be
// reported at all.
const minBeyond = 10

// pct is one percentile of a sample, with the evidence behind it.
type pct struct {
	v      float64 // +Inf when the rank lands on a miss
	n      int
	beyond int // samples ranked above it
}

func (p pct) ok() bool { return p.n > 0 && p.beyond >= minBeyond }

// percentile takes the nearest-rank q-quantile of xs, sorting xs.
func percentile(xs []float64, q float64) pct {
	sort.Float64s(xs)
	return percentileSorted(xs, q)
}

func percentileSorted(xs []float64, q float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return pct{v: xs[rank-1], n: n, beyond: n - rank}
}

// roundStat is one metric measured once per round. The rounds the host
// stole the most CPU time from (the steal column of /proc/stat, which
// other guests of the machine cause) are set aside, a quarter of them,
// and the rest are reported as their interquartile mean: the mean of
// the middle half, which keeps a stalled round from setting the figure
// while using more of the data than a median.
type roundStat struct {
	per   []pct
	steal []int64 // ticks stolen during each round's phase
	plain bool    // values, not percentiles: no sample counts to show
}

func (r *roundStat) add(p pct, steal int64) {
	r.per = append(r.per, p)
	r.steal = append(r.steal, steal)
}

// addValue records a per-round value that is not a percentile.
func (r *roundStat) addValue(v float64, steal int64) {
	r.plain = true
	r.add(pct{v: v, n: minBeyond, beyond: minBeyond}, steal)
}

// kept returns the indices of the rounds the value is taken over: all
// but the quarter with the most stolen time, ties keeping earlier rounds.
func (r *roundStat) kept() []int {
	idx := make([]int, len(r.per))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.steal[idx[a]] < r.steal[idx[b]] })
	idx = idx[:len(idx)-len(idx)/4]
	sort.Ints(idx)
	return idx
}

// value is the interquartile mean over the kept rounds; ok is false
// when any round's sample was too small for the percentile.
func (r *roundStat) value() (float64, bool) {
	var vs []float64
	for _, i := range r.kept() {
		if !r.per[i].ok() {
			return 0, false
		}
		vs = append(vs, r.per[i].v)
	}
	return iqMean(vs), len(vs) > 0
}

// iqMean is the mean of the middle half of vs: a quarter of the values
// (rounded down) is dropped from each end.
func iqMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := len(s) / 4
	sum := 0.0
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k)
}

// evidence lists every round's value with its stolen ticks, marking the
// rounds set aside with a *, and the sample counts behind them.
func (r *roundStat) evidence() string {
	if len(r.per) == 0 {
		return "no samples"
	}
	kept := map[int]bool{}
	for _, i := range r.kept() {
		kept[i] = true
	}
	nlo, nhi, blo := r.per[0].n, r.per[0].n, r.per[0].beyond
	vs := make([]string, len(r.per))
	for i, p := range r.per {
		nlo, nhi, blo = min(nlo, p.n), max(nhi, p.n), min(blo, p.beyond)
		vs[i] = fmt.Sprintf("%.0f/%d", p.v, r.steal[i])
		if !kept[i] {
			vs[i] += "*"
		}
	}
	ev := fmt.Sprintf("interquartile mean of %d of %d rounds [value/stolen ticks, * set aside: %s]",
		len(kept), len(r.per), strings.Join(vs, " "))
	if r.plain {
		return ev
	}
	return fmt.Sprintf("%s; per round n=%d..%d, >=%d beyond", ev, nlo, nhi, blo)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is a process resource snapshot: CPU time, context switches and
// the Go runtime's cumulative counters.
type usage struct {
	at      time.Time
	cpuNS   int64
	ctxsw   int64
	mallocs uint64
	gcs     uint64
	sched   *rtm.Float64Histogram
	pauses  *rtm.Float64Histogram
}

const (
	mSched  = "/sched/latencies:seconds"
	mPauses = "/sched/pauses/total/gc:seconds"
	mGCs    = "/gc/cycles/total:gc-cycles"
)

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtm.Sample{{Name: mSched}, {Name: mPauses}, {Name: mGCs}}
	rtm.Read(s)
	u := usage{
		at:      time.Now(),
		cpuNS:   ru.Utime.Nano() + ru.Stime.Nano(),
		ctxsw:   ru.Nvcsw + ru.Nivcsw,
		mallocs: ms.Mallocs,
	}
	if s[0].Value.Kind() == rtm.KindFloat64Histogram {
		u.sched = s[0].Value.Float64Histogram()
	}
	if s[1].Value.Kind() == rtm.KindFloat64Histogram {
		u.pauses = s[1].Value.Float64Histogram()
	}
	if s[2].Value.Kind() == rtm.KindUint64 {
		u.gcs = s[2].Value.Uint64()
	}
	return u
}

// usageDelta accumulates what a set of phases cost.
type usageDelta struct {
	wall    time.Duration
	cpuNS   int64
	ctxsw   int64
	mallocs uint64
	gcs     uint64
	sched   []uint64 // bucket counts over the phases
	pauses  []uint64
	buckets struct{ sched, pauses []float64 }
}

func (d *usageDelta) add(a, b usage) {
	d.wall += b.at.Sub(a.at)
	d.cpuNS += b.cpuNS - a.cpuNS
	d.ctxsw += b.ctxsw - a.ctxsw
	d.mallocs += b.mallocs - a.mallocs
	d.gcs += b.gcs - a.gcs
	d.sched = histDelta(d.sched, a.sched, b.sched)
	d.pauses = histDelta(d.pauses, a.pauses, b.pauses)
	if b.sched != nil {
		d.buckets.sched = b.sched.Buckets
	}
	if b.pauses != nil {
		d.buckets.pauses = b.pauses.Buckets
	}
}

func histDelta(acc []uint64, a, b *rtm.Float64Histogram) []uint64 {
	if a == nil || b == nil {
		return acc
	}
	if acc == nil {
		acc = make([]uint64, len(b.Counts))
	}
	for i := range b.Counts {
		acc[i] += b.Counts[i] - a.Counts[i]
	}
	return acc
}

// histPct is a percentile of a runtime/metrics histogram delta, in µs,
// taking each bucket's upper bound (its lower bound for the open top).
func histPct(counts []uint64, buckets []float64, q float64) pct {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return pct{}
	}
	rank := uint64(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			hi := buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = buckets[i]
			}
			return pct{v: hi * 1e6, n: int(n), beyond: int(n - rank)}
		}
	}
	return pct{}
}

// stealTicks reads the host's stolen CPU time (the steal column of
// /proc/stat, in clock ticks); 0 where it is unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
