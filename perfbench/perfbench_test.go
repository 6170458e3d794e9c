package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"

	"concord/internal/proto"
)

// digest hashes everything a schedule hands the program: due times,
// operations, keys, spins and every lane's encoded request stream.
func digest(s *schedule) [32]byte {
	h := sha256.New()
	for i := range s.due {
		binary.Write(h, binary.LittleEndian, s.due[i])
		binary.Write(h, binary.LittleEndian, s.key[i])
		binary.Write(h, binary.LittleEndian, s.spin[i])
		h.Write([]byte{s.op[i]})
	}
	for _, st := range s.stream {
		h.Write(st)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := newSchedule(w, 7, 3, w.high, 50e6, 2)
		b := newSchedule(w, 7, 3, w.high, 50e6, 2)
		c := newSchedule(w, 8, 3, w.high, 50e6, 2)
		if a.n() == 0 {
			t.Fatalf("%s: empty schedule", w.name)
		}
		if digest(a) != digest(b) {
			t.Errorf("%s: same seed gave different request streams", w.name)
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: different seeds gave the same request stream", w.name)
		}
		if d := newSchedule(w, 7, 4, w.high, 50e6, 2); digest(a) == digest(d) {
			t.Errorf("%s: different phases gave the same request stream", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w, _ := lookupWorkload("wire_zippy")
	s := newSchedule(w, 1, 1, 50e3, 1e9, 2)
	if n := float64(s.n()); math.Abs(n-50e3) > 5*math.Sqrt(50e3) {
		t.Errorf("1s at 50k rps drew %v arrivals", n)
	}
	counts := map[byte]int{}
	for i, op := range s.op {
		counts[op]++
		if i > 0 && s.due[i] < s.due[i-1] {
			t.Fatalf("due times not sorted at %d", i)
		}
	}
	for op, want := range map[byte]float64{proto.OpGet: 0.78, proto.OpPut: 0.13, proto.OpDel: 0.06, proto.OpScan: 0.03} {
		if got := float64(counts[op]) / float64(s.n()); math.Abs(got-want) > 0.01 {
			t.Errorf("op %s share %.3f, want %.2f", proto.OpString(op), got, want)
		}
	}
	// Each lane's stream decodes back to exactly its requests, in order.
	for l, st := range s.stream {
		fr := proto.NewFrameReader(bytes.NewReader(st), proto.NewPool(4096), 1<<20)
		for j, i := range s.reqs[l] {
			f, err := fr.Next()
			if err != nil {
				t.Fatalf("lane %d frame %d: %v", l, j, err)
			}
			if f.ID != uint64(i)+1 || f.Op != s.op[i] {
				t.Fatalf("lane %d frame %d is id %d op %d, want request %d", l, j, f.ID, f.Op, i)
			}
			f.Release()
		}
	}
}

func TestCheckAcceptsOnlyWhatTheScheduleAllows(t *testing.T) {
	w, _ := lookupWorkload("wire_zippy")
	s := newSchedule(w, 1, 2, 50e3, 200e6, 2)
	h := newHistory()
	h.add(s)
	find := func(op byte) int {
		for i := range s.op {
			if s.op[i] == op {
				return i
			}
		}
		t.Fatalf("no %s in schedule", proto.OpString(op))
		return -1
	}
	get, put, scan := find(proto.OpGet), find(proto.OpPut), find(proto.OpScan)
	count := func(n uint64) []byte { return proto.AppendCountResponse(nil, 1, n)[proto.RespHeaderSize:] }

	var getSamePutKey = -1
	for i := range s.op {
		if s.op[i] == proto.OpGet && s.key[i] == s.key[put] {
			getSamePutKey = i
		}
	}
	cases := []struct {
		name string
		i    int
		st   byte
		p    []byte
		ok   bool
	}{
		{"seeded value", get, proto.StValue, seededValue, true},
		{"foreign value", get, proto.StValue, bytes.Repeat([]byte("z"), valSize), false},
		{"ERR", get, proto.StErr, nil, false},
		{"BADREQUEST", put, proto.StBadRequest, nil, false},
		{"PUT OK", put, proto.StOK, nil, true},
		{"scan full", scan, proto.StCount, count(numKeys), true},
		{"scan too many", scan, proto.StCount, count(numKeys + 1), false},
		{"scan too few", scan, proto.StCount, count(uint64(numKeys - h.deleted - 1)), false},
	}
	if getSamePutKey >= 0 {
		cases = append(cases, struct {
			name string
			i    int
			st   byte
			p    []byte
			ok   bool
		}{"value of a PUT to that key", getSamePutKey, proto.StValue, putValue(s.phase, put), true})
	}
	for _, c := range cases {
		if got := h.check(s, c.i, c.st, c.p) == ""; got != c.ok {
			t.Errorf("%s: accepted=%v, want %v", c.name, got, c.ok)
		}
	}
	// NOTFOUND is only acceptable for a key the schedule deletes.
	for i := range s.op {
		if s.op[i] != proto.OpGet {
			continue
		}
		want := h.dels[s.key[i]] > 0
		if got := h.check(s, i, proto.StNotFound, nil) == ""; got != want {
			t.Fatalf("GET NOTFOUND of key %d (deleted %d times): accepted=%v", s.key[i], h.dels[s.key[i]], got)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p := percentile(xs, 0.99); p.ok() {
		t.Errorf("p99 of 999 samples has %d beyond; want refused", p.beyond)
	}
	xs = append(xs, 999)
	if p := percentile(xs, 0.99); !p.ok() || p.v != 989 || p.beyond != 10 {
		t.Errorf("p99 of 0..999 = %+v, want 989 with 10 beyond", p)
	}
}

func TestSelfTimesPartition(t *testing.T) {
	sp := []span{
		{"request", "", 10, 100},
		{"gen.late", "request", 10, 20},
		{"netsrv.conn", "request", 20, 90},
		{"live.wait", "netsrv.conn", 20, 50},
		{"netsrv.deliver", "request", 90, 100},
	}
	self, ok := selfTimes(sp)
	if !ok {
		t.Fatal("well-formed spans rejected")
	}
	if want := []int64{0, 10, 40, 30, 10}; !equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	sp[4].a = 85 // overlaps netsrv.conn
	if _, ok := selfTimes(sp); ok {
		t.Error("overlapping siblings accepted")
	}
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The result line's metric names and units are the ones BENCHMARK.json
// declares.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the run reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end_to_end %d: %s vs %s", i, m.Name, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		l := layerMetrics[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per_layer %d: %+v vs %s %s %s", i, m, l.name, l.unit, l.better)
		}
	}
}
