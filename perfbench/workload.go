package main

import (
	"fmt"
	"math/rand/v2"

	"concord/internal/proto"
)

// Store shape: concord-kvd's -keys and -valsize defaults.
const (
	numKeys = 15000
	valSize = 64
)

// workload is one traffic mix with its three fixed offered rates (rps).
// wire_get's high rate is 40k, not 80k: from about 60k to 100k its p50
// moves between two regimes (about 0.3ms and 1–2ms) with the host's
// load, so runs of the same code disagreed by 20–60%.
type workload struct {
	name            string
	wire            bool // over loopback TCP through netsrv; else SubmitFunc
	sinks           bool // kvd -obs completion sinks (Tail, Sketches, ClassTails)
	low, high, over float64
}

var workloads = []workload{
	{name: "wire_get", wire: true, low: 10e3, high: 40e3, over: 160e3},
	{name: "wire_zippy", wire: true, sinks: true, low: 10e3, high: 50e3, over: 100e3},
	{name: "inproc_bimodal", low: 20e3, high: 100e3, over: 200e3},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have wire_get, wire_zippy, inproc_bimodal)", name)
}

// Bimodal(99.5:1µs, 0.5:500µs) service times for inproc_bimodal.
const (
	spinShortUS = 1
	spinLongUS  = 500
	longFrac    = 0.005
)

// schedule is one phase's open-loop input: every request's due time,
// operation and key, drawn from the seed before the phase starts, and
// the encoded request stream each lane (connection or submitter) sends.
// Request i has wire id i+1 and is sent on lane i%lanes.
type schedule struct {
	phase int // phase number, stamped into PUT values
	durNS int64

	due  []int64 // ns after phase start, nondecreasing
	op   []byte  // proto.Op*
	key  []int32 // key index; -1 for SCAN and SPIN
	spin []int32 // µs, SPIN only

	// stream[l] holds lane l's frames back to back; ends[l][j] is the
	// byte offset just past its j-th frame, which is request reqs[l][j].
	stream [][]byte
	ends   [][]int
	reqs   [][]int32
}

func (s *schedule) n() int { return len(s.due) }

func keyBytes(k int) []byte { return []byte(fmt.Sprintf("key%08d", k)) }

// seededValue is the value every key holds after population (kvd fills
// each key with valsize 'v' bytes).
var seededValue = func() []byte {
	v := make([]byte, valSize)
	for i := range v {
		v[i] = 'v'
	}
	return v
}()

// putValue is the value PUT request idx of a phase writes: it names its
// writer, so a GET that returns it can be traced back to the schedule.
func putValue(phase, idx int) []byte {
	v := []byte(fmt.Sprintf("p%03d:%010d:", phase, idx))
	for len(v) < valSize {
		v = append(v, 'x')
	}
	return v
}

// parsePutValue inverts putValue; ok is false for anything else.
func parsePutValue(v []byte) (phase, idx int, ok bool) {
	if len(v) != valSize || v[0] != 'p' {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(string(v[:16]), "p%03d:%010d:", &phase, &idx); err != nil {
		return 0, 0, false
	}
	return phase, idx, string(v) == string(putValue(phase, idx))
}

// newSchedule draws a phase's Poisson arrivals and operation mix from
// (seed, phase). The same arguments always give the same schedule and
// byte-identical lane streams.
func newSchedule(w workload, seed uint64, phase int, rate float64, durNS int64, lanes int) *schedule {
	rng := rand.New(rand.NewPCG(seed, uint64(phase)+1))
	s := &schedule{phase: phase, durNS: durNS}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if int64(t) >= durNS {
			break
		}
		op, key, spin := proto.OpGet, int32(rng.IntN(numKeys)), int32(0)
		switch w.name {
		case "wire_zippy":
			// ZippyDB mix: 78% GET, 13% PUT, 6% DEL, 3% full-store SCAN.
			switch u := rng.Float64(); {
			case u < 0.78:
			case u < 0.91:
				op = proto.OpPut
			case u < 0.97:
				op = proto.OpDel
			default:
				op, key = proto.OpScan, -1
			}
		case "inproc_bimodal":
			op, key, spin = proto.OpSpin, -1, spinShortUS
			if rng.Float64() < longFrac {
				spin = spinLongUS
			}
		}
		s.due = append(s.due, int64(t))
		s.op = append(s.op, op)
		s.key = append(s.key, key)
		s.spin = append(s.spin, spin)
	}
	s.stream = make([][]byte, lanes)
	s.ends = make([][]int, lanes)
	s.reqs = make([][]int32, lanes)
	for i := range s.due {
		l := i % lanes
		id := uint64(i + 1)
		var b []byte
		switch s.op[i] {
		case proto.OpSpin:
			b = proto.AppendSpinRequest(s.stream[l], id, uint32(s.spin[i]))
		case proto.OpScan:
			b = proto.AppendRequest(s.stream[l], proto.OpScan, id, nil, nil)
		case proto.OpPut:
			b = proto.AppendRequest(s.stream[l], proto.OpPut, id, keyBytes(int(s.key[i])), putValue(phase, i))
		default:
			b = proto.AppendRequest(s.stream[l], s.op[i], id, keyBytes(int(s.key[i])), nil)
		}
		s.stream[l] = b
		s.ends[l] = append(s.ends[l], len(b))
		s.reqs[l] = append(s.reqs[l], int32(i))
	}
	return s
}

// history is what a store has been asked to do across the phases run
// against it, which bounds what a correct response may say.
type history struct {
	phases  []*schedule // by phase number; nil for phases on other stores
	dels    []int32     // DEL requests per key so far
	deleted int         // distinct keys deleted so far
}

func newHistory() *history { return &history{dels: make([]int32, numKeys)} }

// add accounts a phase before it runs: with requests reordered across
// lanes and workers, any of its writes may precede any of its reads.
func (h *history) add(s *schedule) {
	for len(h.phases) <= s.phase {
		h.phases = append(h.phases, nil)
	}
	h.phases[s.phase] = s
	for i, op := range s.op {
		if op == proto.OpDel {
			k := s.key[i]
			if h.dels[k] == 0 {
				h.deleted++
			}
			h.dels[k]++
		}
	}
}

// check reports why response (st, payload) to request i of s is wrong,
// or "" when it is one a correct server could give.
func (h *history) check(s *schedule, i int, st byte, payload []byte) string {
	switch s.op[i] {
	case proto.OpGet:
		k := s.key[i]
		switch st {
		case proto.StValue:
			if string(payload) == string(seededValue) {
				return ""
			}
			ph, idx, ok := parsePutValue(payload)
			if ok && ph < len(h.phases) && h.phases[ph] != nil && idx < h.phases[ph].n() &&
				h.phases[ph].op[idx] == proto.OpPut && h.phases[ph].key[idx] == k {
				return ""
			}
			return fmt.Sprintf("GET key %d returned a value no request wrote", k)
		case proto.StNotFound:
			if h.dels[k] > 0 {
				return ""
			}
			return fmt.Sprintf("GET key %d NOTFOUND but it was never deleted", k)
		}
	case proto.OpPut:
		if st == proto.StOK {
			return ""
		}
	case proto.OpDel:
		switch st {
		case proto.StOK:
			return ""
		case proto.StNotFound:
			if h.dels[s.key[i]] > 1 {
				return ""
			}
			return fmt.Sprintf("DEL key %d NOTFOUND but deleted only once", s.key[i])
		}
	case proto.OpScan:
		if st == proto.StCount {
			n, ok := proto.DecodeCount(payload)
			if ok && n <= numKeys && n >= uint64(numKeys-h.deleted) {
				return ""
			}
			return fmt.Sprintf("SCAN counted %d keys, want [%d, %d]", n, numKeys-h.deleted, numKeys)
		}
	case proto.OpSpin:
		if st == proto.StOK {
			return ""
		}
	}
	return fmt.Sprintf("%s answered %s", proto.OpString(s.op[i]), proto.StatusString(st))
}

// refused reports whether a status is the server declining work under
// load: a miss, but not a wrong answer.
func refused(st byte) bool {
	return st == proto.StOverloaded || st == proto.StShed || st == proto.StDeadline
}
