// The live_net scenario: the serving path measured over real TCP
// through internal/netsrv, in both wire protocols. The hermetic pair of
// metrics — allocations per request for text vs binary at the same
// fan-in — is the gate that keeps the zero-copy binary path honest: it
// must stay strictly below the text path or the pooling has regressed.
// The throughput/latency points sweep fan-in (64 and 1k connections
// in-process; 10k against a concord-kvd subprocess so each side of the
// socket pair gets its own file-descriptor budget).
package bench

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/proto"
)

const (
	// Store shape shared by every point.
	netKeys    = 1000
	netValSize = 64

	// c64: the alloc-gate point, run once per protocol in-process.
	netC64Conns = 64
	netC64Depth = 32
	netC64Reqs  = 250 // per connection → 16k requests

	// c1k: mid fan-in, binary only, in-process.
	netC1kConns = 1024
	netC1kDepth = 8
	netC1kReqs  = 16 // → 16,384 requests

	// c10k: massive fan-in, binary only, against a kvd subprocess
	// (in-process would need 2 fds per connection and blow the rlimit).
	netC10kConns = 10240
	netC10kDepth = 4
	netC10kReqs  = 8 // → 81,920 requests

	// netDialPar bounds concurrent dials so a 10k-connection ramp does
	// not overwhelm the accept queue.
	netDialPar = 256
)

// NetScenario measures the wire-protocol stack end to end over
// loopback TCP: request encode, frame decode, live scheduling, response
// batching, client-side matching.
func NetScenario() Scenario {
	return Scenario{
		Name: "live_net",
		Describe: fmt.Sprintf(
			"loopback TCP through netsrv: text+binary at %d conns, binary at %d and %d conns (×depth %d/%d/%d), %d keys × %dB",
			netC64Conns, netC1kConns, netC10kConns, netC64Depth, netC1kDepth, netC10kDepth, netKeys, netValSize),
		Metrics: map[string]MetricMeta{
			"allocs_per_req_text":   {Unit: "allocs", Better: "lower", Hermetic: true},
			"allocs_per_req_binary": {Unit: "allocs", Better: "lower", Hermetic: true},
			"rps_text_c64":          {Unit: "req/s", Better: "higher", Hermetic: false},
			"p99_us_text_c64":       {Unit: "us", Better: "lower", Hermetic: false},
			"p999_us_text_c64":      {Unit: "us", Better: "lower", Hermetic: false},
			"rps_binary_c64":        {Unit: "req/s", Better: "higher", Hermetic: false},
			"p99_us_binary_c64":     {Unit: "us", Better: "lower", Hermetic: false},
			"p999_us_binary_c64":    {Unit: "us", Better: "lower", Hermetic: false},
			"rps_binary_c1k":        {Unit: "req/s", Better: "higher", Hermetic: false},
			"p99_us_binary_c1k":     {Unit: "us", Better: "lower", Hermetic: false},
			"p999_us_binary_c1k":    {Unit: "us", Better: "lower", Hermetic: false},
			"rps_binary_c10k":       {Unit: "req/s", Better: "higher", Hermetic: false},
			"p99_us_binary_c10k":    {Unit: "us", Better: "lower", Hermetic: false},
			"p999_us_binary_c10k":   {Unit: "us", Better: "lower", Hermetic: false},
		},
		Run: runNet,
	}
}

func runNet() (map[string]float64, error) {
	out := map[string]float64{}
	for _, pt := range []struct {
		suffix string
		conns  int
		depth  int // 0 = text protocol
		reqs   int
		allocs string // metric name for allocs/req, "" to skip
	}{
		{"text_c64", netC64Conns, 0, netC64Reqs, "allocs_per_req_text"},
		{"binary_c64", netC64Conns, netC64Depth, netC64Reqs, "allocs_per_req_binary"},
		{"binary_c1k", netC1kConns, netC1kDepth, netC1kReqs, ""},
	} {
		rps, p99, p999, allocs, err := runNetPoint(pt.conns, pt.depth, pt.reqs)
		if err != nil {
			return nil, fmt.Errorf("bench: live_net %s: %w", pt.suffix, err)
		}
		out["rps_"+pt.suffix] = rps
		out["p99_us_"+pt.suffix] = p99
		out["p999_us_"+pt.suffix] = p999
		if pt.allocs != "" {
			out[pt.allocs] = allocs
		}
	}
	rps, p99, p999, err := runNetSubprocess(netC10kConns, netC10kDepth, netC10kReqs)
	if err != nil {
		return nil, fmt.Errorf("bench: live_net binary_c10k: %w", err)
	}
	out["rps_binary_c10k"] = rps
	out["p99_us_binary_c10k"] = p99
	out["p999_us_binary_c10k"] = p999
	return out, nil
}

// netMaxConns caps a point's fan-in to the process's file-descriptor
// budget: fdsPerConn is 2 in-process (both socket ends live here) and 1
// against a subprocess server.
func netMaxConns(want, fdsPerConn int) int {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return want
	}
	if max := (int(rl.Cur) - 768) / fdsPerConn; want > max {
		return max
	}
	return want
}

// runNetPoint serves one in-process point: a live runtime behind a
// netsrv listener, conns client connections each issuing reqs requests
// (depth-pipelined binary frames, or lockstep text when depth is 0).
// allocsPerReq counts both socket ends, which is exactly the
// client+server cost a colocated tier pays and keeps the text/binary
// comparison symmetric.
func runNetPoint(conns, depth, reqs int) (rps, p99, p999, allocsPerReq float64, err error) {
	conns = netMaxConns(conns, 2)
	store := kv.New()
	seedStore(store)
	rt := live.New(&netsrv.KVHandler{Store: store, ScanBatch: 256}, live.Options{
		Workers: 2,
	})
	rt.Start()
	defer rt.Stop()
	ns := netsrv.New(rt, netsrv.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	go ns.Serve(ln)
	defer func() {
		ln.Close()
		ns.Drain(time.Second)
	}()

	rps, p99, p999, allocsPerReq, err = netDrive(ln.Addr().String(), conns, depth, reqs, true)
	return rps, p99, p999, allocsPerReq, err
}

// netDrive fans conns clients into addr and aggregates their latencies.
func netDrive(addr string, conns, depth, reqs int, countAllocs bool) (rps, p99, p999, allocsPerReq float64, err error) {
	perConn := make([][]float64, conns)
	errs := make(chan error, conns)
	sem := make(chan struct{}, netDialPar)
	var before, after runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var lats []float64
			var cerr error
			if depth > 0 {
				lats, cerr = netBinaryConn(addr, depth, reqs, c)
			} else {
				lats, cerr = netTextConn(addr, reqs, c)
			}
			if cerr != nil {
				errs <- cerr
				return
			}
			perConn[c] = lats
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if countAllocs {
		runtime.ReadMemStats(&after)
	}
	select {
	case err := <-errs:
		return 0, 0, 0, 0, err
	default:
	}
	var lats []float64
	for _, l := range perConn {
		lats = append(lats, l...)
	}
	if len(lats) != conns*reqs {
		return 0, 0, 0, 0, fmt.Errorf("completed %d of %d requests", len(lats), conns*reqs)
	}
	sort.Float64s(lats)
	total := float64(len(lats))
	return total / wall.Seconds(),
		quantileSorted(lats, 0.99),
		quantileSorted(lats, 0.999),
		float64(after.Mallocs-before.Mallocs) / total,
		nil
}

// appendKey renders the store's key%08d naming without fmt.
func appendKey(dst []byte, i int) []byte {
	dst = append(dst, "key"...)
	var digits [8]byte
	for d := 7; d >= 0; d-- {
		digits[d] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, digits[:]...)
}

func seedStore(store *kv.Store) {
	val := make([]byte, netValSize)
	for i := range val {
		val[i] = 'v'
	}
	var key []byte
	for i := 0; i < netKeys; i++ {
		key = appendKey(key[:0], i)
		store.Put(key, val)
	}
}

// netBinaryConn runs one pipelined binary connection: depth requests in
// flight, slot index as request id, next request launched from the slot
// each response frees — the same discipline as concord-load's fleet,
// minus the failure plumbing a controlled benchmark does not need.
func netBinaryConn(addr string, depth, total, salt int) ([]float64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	rr := proto.NewRespReader(conn, 1<<14)
	starts := make([]time.Time, depth)
	lats := make([]float64, 0, total)
	var wbuf, key []byte
	sent := 0
	send := func(id int) error {
		key = appendKey(key[:0], (salt+sent)%netKeys)
		starts[id] = time.Now()
		wbuf = proto.AppendRequest(wbuf[:0], proto.OpGet, uint64(id), key, nil)
		sent++
		_, werr := conn.Write(wbuf)
		return werr
	}
	for id := 0; id < depth && sent < total; id++ {
		if err := send(id); err != nil {
			return nil, err
		}
	}
	for recvd := 0; recvd < total; recvd++ {
		resp, err := rr.Next()
		if err != nil {
			return nil, err
		}
		if resp.Status != proto.StValue {
			return nil, fmt.Errorf("GET replied %s", proto.StatusString(resp.Status))
		}
		id := int(resp.ID)
		if id < 0 || id >= depth {
			return nil, fmt.Errorf("response id %d out of range", resp.ID)
		}
		lats = append(lats, float64(time.Since(starts[id]))/float64(time.Microsecond))
		if sent < total {
			if err := send(id); err != nil {
				return nil, err
			}
		}
	}
	return lats, nil
}

// netTextConn runs one lockstep text connection.
func netTextConn(addr string, total, salt int) ([]float64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<12)
	lats := make([]float64, 0, total)
	var wbuf []byte
	for i := 0; i < total; i++ {
		wbuf = appendKey(append(wbuf[:0], "GET "...), (salt+i)%netKeys)
		wbuf = append(wbuf, '\n')
		start := time.Now()
		if _, err := conn.Write(wbuf); err != nil {
			return nil, err
		}
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		if len(line) < 5 || string(line[:5]) != "VALUE" {
			return nil, fmt.Errorf("GET replied %q", strings.TrimSpace(string(line)))
		}
		lats = append(lats, float64(time.Since(start))/float64(time.Microsecond))
	}
	return lats, nil
}

// kvdBuild caches the one concord-kvd build a process needs for the
// subprocess point.
var kvdBuild struct {
	once sync.Once
	path string
	err  error
}

func buildKVD() (string, error) {
	kvdBuild.once.Do(func() {
		dir, err := os.MkdirTemp("", "concord-bench-")
		if err != nil {
			kvdBuild.err = err
			return
		}
		path := filepath.Join(dir, "concord-kvd")
		cmd := exec.Command("go", "build", "-o", path, "concord/cmd/concord-kvd")
		if out, err := cmd.CombinedOutput(); err != nil {
			kvdBuild.err = fmt.Errorf("go build concord-kvd: %v\n%s", err, out)
			return
		}
		kvdBuild.path = path
	})
	return kvdBuild.path, kvdBuild.err
}

// runNetSubprocess drives the c10k point against a concord-kvd child
// process: the server's sockets come out of the child's fd budget, so
// the benchmark process only pays one descriptor per connection and 10k
// fan-in fits inside a 20k rlimit.
func runNetSubprocess(conns, depth, reqs int) (rps, p99, p999 float64, err error) {
	conns = netMaxConns(conns, 1)
	kvd, err := buildKVD()
	if err != nil {
		return 0, 0, 0, err
	}
	cmd := exec.Command(kvd,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-keys", strconv.Itoa(netKeys),
		"-valsize", strconv.Itoa(netValSize))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return 0, 0, 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The listen line ("concord-kvd on 127.0.0.1:PORT: ...") carries the
	// kernel-assigned port; keep draining stderr afterwards so the child
	// never blocks on a full pipe.
	sc := bufio.NewScanner(stderr)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "concord-kvd on "); i >= 0 {
			rest := line[i+len("concord-kvd on "):]
			if j := strings.Index(rest, ": "); j >= 0 {
				addr = rest[:j]
			}
			break
		}
	}
	if addr == "" {
		return 0, 0, 0, fmt.Errorf("concord-kvd never announced its address (scan err %v)", sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()

	rps, p99, p999, _, err = netDrive(addr, conns, depth, reqs, false)
	return rps, p99, p999, err
}
