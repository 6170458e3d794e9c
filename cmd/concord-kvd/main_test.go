package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"concord/internal/adapt"
	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/obs"
	"concord/internal/proto"
	"concord/internal/shadow"
)

// testEnv bundles the surfaces main wires together with -obs, -adaptive
// and -shadow, so tests exercise statsLine/serveControl exactly as the
// daemon calls them.
type testEnv struct {
	srv      *live.Server
	ns       *netsrv.Server
	ob       *kvObs
	ctrl     *adapt.Controller
	sketches *obs.ClassSketches
	ctails   *obs.ClassTails
	replayer *shadow.Replayer
}

func (e *testEnv) stats() string {
	return statsLine(e.srv, e.ns, e.ob, e.ctrl, e.sketches, e.ctails, e.replayer)
}

func (e *testEnv) control(out io.Writer, line string, obsOn *bool) bool {
	return serveControl(out, line, e.srv, e.ns, e.ob, e.ctrl, e.sketches, e.ctails, e.replayer, obsOn)
}

// newTestObs boots an in-process server with the full observability
// and control-plane surface, exactly as main wires it with -obs,
// -adaptive and -shadow. The controller and replayer are built but not
// run: tests drive them (or ignore them) deterministically.
func newTestObs(t *testing.T) *testEnv {
	return newTestObsSharded(t, 1)
}

func newTestObsSharded(t *testing.T, shards int) *testEnv {
	t.Helper()
	const workers = 2
	tracer := obs.NewTracerSharded(workers, shards, 1024)
	slo := obs.NewSLOTracker(obs.SLOConfig{Target: 200 * time.Microsecond, Objective: 0.999})
	tail := obs.NewTailTracker(nil, slo)
	cvEst := &adapt.CVEstimator{}
	sketches := obs.NewClassSketches(live.NumClasses)
	slos := make([]obs.ClassSLO, live.NumClasses)
	for c := live.SLOClass(0); c < live.NumClasses; c++ {
		slos[c] = obs.ClassSLO{Target: c.DefaultObjective(), Objective: 0.999}
	}
	ctails := obs.NewClassTails(slos, nil)
	ring := live.NewCaptureRing(1024, 1)
	srv := live.New(&netsrv.KVHandler{Store: kv.New(), ScanBatch: 64}, live.Options{
		Workers:         workers,
		Shards:          shards,
		Tracer:          tracer,
		Tail:            tail,
		Adaptive:        true,
		ServiceObserver: cvEst.Observe,
		Sketches:        sketches,
		Capture:         ring,
		ClassTails:      ctails,
	})
	srv.Start()
	t.Cleanup(srv.Stop)
	ns := netsrv.New(srv, netsrv.Options{})
	ctrl := adapt.New(srv, adapt.Config{SLOTarget: 200 * time.Microsecond})
	replayer := shadow.NewReplayer(ring, shadow.Config{Workers: workers, QuantumUS: 100, MinRecs: 4}, time.Hour)
	return &testEnv{
		srv:      srv,
		ns:       ns,
		ob:       newKVObs(tracer, tail, ctails, ctrl, srv, ns, sketches, replayer, workers, shards),
		ctrl:     ctrl,
		sketches: sketches,
		ctails:   ctails,
		replayer: replayer,
	}
}

func put(t *testing.T, srv *live.Server, key, val string) {
	t.Helper()
	resp := srv.Do(&netsrv.Request{Op: proto.OpPut, Key: []byte(key), Val: []byte(val)})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

// TestStatsMetricsConsistency asserts every STATS field has a /metrics
// counterpart: the drift that used to require cross-referencing
// central=/submitq= by hand now fails the build. The connection-layer
// fields (frames, flushes, pipeline depth) ride the same check.
func TestStatsMetricsConsistency(t *testing.T) {
	e := newTestObs(t)
	put(t, e.srv, "k", "v")

	line := e.stats()
	if !strings.HasPrefix(line, "STATS ") {
		t.Fatalf("statsLine = %q", line)
	}
	var sb strings.Builder
	e.ob.metrics.WritePrometheus(&sb)
	exposition := sb.String()

	fields := strings.Fields(line)[1:]
	if len(fields) < 20 {
		t.Fatalf("expected the full field set (counters+depths+net+windows+slo), got %d: %v", len(fields), fields)
	}
	for _, f := range fields {
		key, _, okSplit := strings.Cut(f, "=")
		if !okSplit {
			t.Fatalf("malformed STATS field %q", f)
		}
		family := metricFamilyForStatsKey(key)
		if family == "" {
			t.Errorf("STATS field %q has no /metrics family mapping", key)
			continue
		}
		// Strip any label selector before matching the TYPE line.
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		if !strings.Contains(exposition, "# TYPE "+family+" ") {
			t.Errorf("STATS field %q maps to family %q, absent from /metrics exposition", key, family)
		}
	}
}

// TestStatsNetFields: the connection-layer fields render with a live
// netsrv server and are absent from the bare (ns == nil) line.
func TestStatsNetFields(t *testing.T) {
	e := newTestObs(t)
	line := e.stats()
	for _, want := range []string{
		"conns=0", "pipeline=0", "frames_in=0", "frames_out=0",
		"flushes=0", "text_lines=0", "toolarge=0", "badframes=0",
		"flush_batch_mean=0.00", "flush_batch_p50=0.00", "flush_batch_p99=0.00",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	bare := statsLine(e.srv, nil, nil, nil, nil, nil, nil)
	if strings.Contains(bare, "frames_in=") || strings.Contains(bare, "conns=") {
		t.Errorf("bare STATS line has net fields: %s", bare)
	}
}

// TestStatsLineWindowedFields: rolling quantiles and burn rates show up
// in STATS once traffic has flowed, keyed per configured window.
func TestStatsLineWindowedFields(t *testing.T) {
	e := newTestObs(t)
	for i := 0; i < 20; i++ {
		if resp := e.srv.Do(&netsrv.Request{Op: proto.OpGet, Key: []byte("nope")}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	line := e.stats()
	for _, want := range []string{"p50_1s=", "p99_10s=", "p999_60s=", "burn_short=", "burn_long=", "slo_alerting=0"} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	// Without the obs surface the windowed fields must be absent but
	// the counter fields still render.
	bare := statsLine(e.srv, nil, nil, nil, nil, nil, nil)
	if strings.Contains(bare, "p50_") || strings.Contains(bare, "burn_") {
		t.Errorf("bare STATS line has windowed fields: %s", bare)
	}
	if !strings.Contains(bare, "submitted=") || !strings.Contains(bare, "occ=") {
		t.Errorf("bare STATS line missing counters: %s", bare)
	}
}

// TestStatsShardedFields: with two shards the STATS line carries one
// comma-separated slot per shard, the steals counter renders, and every
// new key maps to a /metrics family (consistency loop above only checks
// the keys present, so sharded keys get their own pass here).
func TestStatsShardedFields(t *testing.T) {
	e := newTestObsSharded(t, 2)
	put(t, e.srv, "k", "v")
	line := e.stats()
	for _, want := range []string{"steals=0", "shardq=0,0", "shardocc=0,0"} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	var sb strings.Builder
	e.ob.metrics.WritePrometheus(&sb)
	exposition := sb.String()
	for _, family := range []string{
		"concord_steals_total",
		`concord_shard_queue_depth{shard="0"}`,
		`concord_shard_queue_depth{shard="1"}`,
		`concord_shard_occupancy{shard="1"}`,
	} {
		if !strings.Contains(exposition, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
}

// TestStatsAdaptiveFields: with a controller the adapt_* fields render
// (policy encoded 0/1, quantum in µs) and each maps to a concord_adapt_*
// family; without one the bare line has none.
func TestStatsAdaptiveFields(t *testing.T) {
	e := newTestObs(t)
	line := e.stats()
	for _, want := range []string{
		"adapt_policy=0", "adapt_quantum_us=", "adapt_cv=",
		"adapt_switches=0", "adapt_quantum_changes=0", "adapt_decisions=0",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	var sb strings.Builder
	e.ob.metrics.WritePrometheus(&sb)
	exposition := sb.String()
	for _, family := range []string{
		"concord_adapt_policy", "concord_adapt_quantum_us", "concord_adapt_cv",
		"concord_adapt_switches_total", "concord_adapt_quantum_changes_total",
		"concord_adapt_decisions_total",
	} {
		if !strings.Contains(exposition, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing %q", family)
		}
	}
	// The controller switching to srpt flips the encoded policy field.
	e.ctrl.Step(adapt.Signals{SvcCount: 64, SvcCV: 5})
	for i := 0; i < 30; i++ {
		e.ctrl.Step(adapt.Signals{SvcCount: 64, SvcCV: 5})
	}
	if line := e.stats(); !strings.Contains(line, "adapt_policy=1") {
		t.Errorf("STATS line did not track the policy switch: %s", line)
	}
	// Every Step above recorded one decision.
	if line := e.stats(); !strings.Contains(line, "adapt_decisions=31") {
		t.Errorf("STATS line did not count decisions: %s", line)
	}
	bare := statsLine(e.srv, nil, nil, nil, nil, nil, nil)
	if strings.Contains(bare, "adapt_") {
		t.Errorf("bare STATS line has adaptive fields: %s", bare)
	}
}

// TestObsTrailerFormat: the trailer is the wire contract concord-load's
// parseObsTrailer consumes — every component key in order, wire phases
// at millisecond precision so sub-µs values stay visible.
func TestObsTrailerFormat(t *testing.T) {
	if got := obsTrailer(live.Response{}); got != "" {
		t.Fatalf("trailer without breakdown = %q, want empty", got)
	}
	resp := live.Response{
		Latency: 100 * time.Microsecond,
		Breakdown: &live.Breakdown{
			Ingress: 1500 * time.Nanosecond,
			Handoff: 10 * time.Microsecond,
			Queue:   20 * time.Microsecond,
			Service: 60 * time.Microsecond,
		},
		Preemptions:  2,
		OnDispatcher: true,
		Done:         time.Now(),
	}
	got := obsTrailer(resp)
	for _, want := range []string{" |OBS h=10.0 ", "q=20.0 ", "s=60.0 ", "p=0.0 ", "i=1.500 ", "e=", "n=2 ", "d=1"} {
		if !strings.Contains(got, want) {
			t.Errorf("trailer missing %q: %q", want, got)
		}
	}
	// Egress accrues from Done to render time: non-negative, and small
	// for a fresh completion.
	var h, q, s, p, i, e float64
	var n, d int
	if _, err := fmt.Sscanf(strings.TrimPrefix(got, " |OBS "),
		"h=%f q=%f s=%f p=%f i=%f e=%f n=%d d=%d", &h, &q, &s, &p, &i, &e, &n, &d); err != nil {
		t.Fatalf("trailer does not scan: %q, %v", got, err)
	}
	if e < 0 {
		t.Errorf("egress %v negative", e)
	}
}

// TestDecisionsControlVerb: DECISIONS replays the controller's recent
// ticks, honors an explicit count, terminates with END, and degrades to
// ERR without -adaptive.
func TestDecisionsControlVerb(t *testing.T) {
	e := newTestObs(t)
	for i := 0; i < 5; i++ {
		e.ctrl.Step(adapt.Signals{SvcCount: 4, SvcCV: 0.5})
	}
	var out strings.Builder
	obsOn := false
	if !e.control(&out, "DECISIONS 3", &obsOn) {
		t.Fatal("DECISIONS not handled")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 || lines[3] != "END 3" {
		t.Fatalf("DECISIONS 3 = %q", out.String())
	}
	for _, l := range lines[:3] {
		if !strings.Contains(l, "tick=") || !strings.Contains(l, "action=") || !strings.Contains(l, "quantum_us=") {
			t.Errorf("decision line missing fields: %q", l)
		}
	}
	out.Reset()
	if !e.control(&out, "DECISIONS", &obsOn) {
		t.Fatal("bare DECISIONS not handled")
	}
	if !strings.HasSuffix(strings.TrimSpace(out.String()), "END 5") {
		t.Fatalf("bare DECISIONS = %q", out.String())
	}
	out.Reset()
	if !e.control(&out, "DECISIONS nope", &obsOn) {
		t.Fatal("bad count not handled")
	}
	if !strings.HasPrefix(out.String(), "ERR ") {
		t.Fatalf("bad count reply = %q", out.String())
	}
	out.Reset()
	if !serveControl(&out, "DECISIONS", e.srv, e.ns, e.ob, nil, e.sketches, e.ctails, e.replayer, &obsOn) {
		t.Fatal("DECISIONS without controller not handled")
	}
	if !strings.HasPrefix(out.String(), "ERR ") {
		t.Fatalf("no-controller reply = %q", out.String())
	}
}

// TestRuntimeHealthFamilies: the registry carries the Go runtime health
// surface and build-info gauge, and the per-op wire-phase histogram
// components exist alongside the scheduler ones.
func TestRuntimeHealthFamilies(t *testing.T) {
	e := newTestObs(t)
	var sb strings.Builder
	e.ob.metrics.WritePrometheus(&sb)
	exposition := sb.String()
	for _, family := range []string{
		"concord_go_goroutines", "concord_go_gomaxprocs",
		"concord_go_heap_live_bytes", "concord_go_gc_cycles_total",
		"concord_build_info",
	} {
		if !strings.Contains(exposition, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing %q", family)
		}
	}
	if !strings.Contains(exposition, `concord_build_info{`) || !strings.Contains(exposition, `goversion="go`) {
		t.Errorf("build info gauge missing version labels:\n%s", exposition)
	}
	for _, series := range []string{
		`concord_request_us{op="get",component="ingress"}`,
		`concord_request_us{op="get",component="egress"}`,
	} {
		// Histogram series render with suffixed names; check the base
		// label set appears somewhere in the exposition.
		base := strings.Replace(series, "concord_request_us{", `concord_request_us_count{`, 1)
		if !strings.Contains(exposition, base) {
			t.Errorf("/metrics missing per-op wire-phase series %q", base)
		}
	}
}

// TestSLOClasses: the class is the tenant's wire declaration, not a
// property of the op — an undeclared request is standard regardless of
// operation, a declared class rides through untouched, and the tier
// order the cascade queue and controller key on is critical < standard
// < sheddable.
func TestSLOClasses(t *testing.T) {
	for _, tc := range []struct {
		req  *netsrv.Request
		want live.SLOClass
	}{
		{&netsrv.Request{Op: proto.OpGet, Key: []byte("k")}, live.ClassStandard},
		{&netsrv.Request{Op: proto.OpScan}, live.ClassStandard},
		{&netsrv.Request{Op: proto.OpSpin, Spin: 300 * time.Microsecond}, live.ClassStandard},
		{&netsrv.Request{Op: proto.OpGet, Key: []byte("k"), Class: live.ClassCritical}, live.ClassCritical},
		{&netsrv.Request{Op: proto.OpScan, Class: live.ClassSheddable}, live.ClassSheddable},
	} {
		if got := tc.req.SLOClass(); got != tc.want {
			t.Errorf("op 0x%02x class %v: SLOClass %v, want %v", tc.req.Op, tc.req.Class, got, tc.want)
		}
	}
	if !(live.ClassCritical.Tier() < live.ClassStandard.Tier() && live.ClassStandard.Tier() < live.ClassSheddable.Tier()) {
		t.Errorf("tier order: critical %d, standard %d, sheddable %d",
			live.ClassCritical.Tier(), live.ClassStandard.Tier(), live.ClassSheddable.Tier())
	}
}

// TestServiceHints: every op yields a positive hint, SPIN's equals its
// requested duration, and relative order matches relative cost. (Parse
// rejection of bad SPIN durations is covered in internal/netsrv.)
func TestServiceHints(t *testing.T) {
	spin := &netsrv.Request{Op: proto.OpSpin, Spin: 250 * time.Microsecond}
	if spin.ServiceHint() != 250*time.Microsecond {
		t.Fatalf("SPIN hint = %v, want 250µs", spin.ServiceHint())
	}
	get := &netsrv.Request{Op: proto.OpGet, Key: []byte("k")}
	scan := &netsrv.Request{Op: proto.OpScan}
	if get.ServiceHint() <= 0 || scan.ServiceHint() <= 0 {
		t.Fatal("non-positive service hint")
	}
	if !(get.ServiceHint() < scan.ServiceHint()) {
		t.Fatal("GET hinted costlier than SCAN")
	}
}

func TestParseWindows(t *testing.T) {
	got, err := parseWindows("1s, 10s,60s")
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 10 * time.Second, time.Minute}
	if len(got) != len(want) {
		t.Fatalf("parseWindows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseWindows = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "1s,", "0s", "-5s", "1s,banana"} {
		if _, err := parseWindows(bad); err == nil {
			t.Errorf("parseWindows(%q) accepted", bad)
		}
	}
}

func TestFmtWindow(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{time.Second, "1s"},
		{10 * time.Second, "10s"},
		{time.Minute, "60s"},
		{500 * time.Millisecond, "500ms"},
	} {
		if got := fmtWindow(tc.d); got != tc.want {
			t.Errorf("fmtWindow(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestStatsSketchAndRegretFields: real traffic feeds the class sketches
// and the capture ring; after a replay the STATS line carries the
// svc_*/regret_* block and /metrics exposes the matching families.
func TestStatsSketchAndRegretFields(t *testing.T) {
	e := newTestObs(t)
	put(t, e.srv, "k", "v")
	for i := 0; i < 30; i++ {
		if resp := e.srv.Do(&netsrv.Request{Op: proto.OpGet, Key: []byte("k")}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if _, ok := e.replayer.ReplayOnce(); !ok {
		t.Fatal("replay skipped a 31-request window")
	}

	line := e.stats()
	for _, want := range []string{
		"svc_p50_us=", "svc_p99_us=",
		"regret_windows=1", "regret_skipped=0", "shadow_captured=31",
		"regret_best=", "regret=", "regret_ratio_fcfs=",
		"regret_ratio_srpt_hint=", "regret_ratio_srpt_oracle=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	// Undeclared point ops are ClassStandard: its p50 slot (first of
	// three) must be positive while untouched classes stay 0.
	for _, f := range strings.Fields(line) {
		if !strings.HasPrefix(f, "svc_p50_us=") {
			continue
		}
		vals := strings.Split(strings.TrimPrefix(f, "svc_p50_us="), ",")
		if len(vals) != 3 {
			t.Fatalf("svc_p50_us has %d class slots, want 3: %q", len(vals), f)
		}
		if vals[0] == "0.0" {
			t.Errorf("standard-class p50 still zero after 30 GETs: %q", f)
		}
	}
	var sb strings.Builder
	e.ob.metrics.WritePrometheus(&sb)
	exposition := sb.String()
	for _, family := range []string{
		`concord_svc_time_us{class="standard",quantile="p99"}`,
		`concord_hint_error_count{class="standard"}`,
		`concord_regret_p99_ratio{policy="srpt_oracle"}`,
		`concord_regret_best_policy{policy="fcfs"}`,
		"concord_regret_ratio", "concord_regret_windows_total",
		`concord_shadow_captures_total{result="kept"}`,
	} {
		if !strings.Contains(exposition, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	// Without -shadow/-obs the bare line must carry none of the block.
	bare := statsLine(e.srv, nil, nil, nil, nil, nil, nil)
	if strings.Contains(bare, "svc_p50_us=") || strings.Contains(bare, "regret") {
		t.Errorf("bare STATS line has sketch/regret fields: %s", bare)
	}
}

// TestShadowControlVerb: SHADOW replays the scored windows newest
// first, honors a count, terminates with END, and degrades to ERR
// without -shadow.
func TestShadowControlVerb(t *testing.T) {
	e := newTestObs(t)
	put(t, e.srv, "k", "v")
	for i := 0; i < 20; i++ {
		if resp := e.srv.Do(&netsrv.Request{Op: proto.OpGet, Key: []byte("k")}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if _, ok := e.replayer.ReplayOnce(); !ok {
		t.Fatal("replay skipped")
	}
	var out strings.Builder
	obsOn := false
	if !e.control(&out, "SHADOW 1", &obsOn) {
		t.Fatal("SHADOW not handled")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || lines[1] != "END 1" {
		t.Fatalf("SHADOW 1 = %q", out.String())
	}
	for _, want := range []string{"achieved_p99", "fcfs", "srpt_hint", "srpt_oracle", "best"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("SHADOW line missing %q: %q", want, lines[0])
		}
	}
	out.Reset()
	if !e.control(&out, "SHADOW nope", &obsOn) {
		t.Fatal("bad count not handled")
	}
	if !strings.HasPrefix(out.String(), "ERR ") {
		t.Fatalf("bad count reply = %q", out.String())
	}
	out.Reset()
	if !serveControl(&out, "SHADOW", e.srv, e.ns, e.ob, e.ctrl, e.sketches, e.ctails, nil, &obsOn) {
		t.Fatal("SHADOW without replayer not handled")
	}
	if !strings.HasPrefix(out.String(), "ERR ") {
		t.Fatalf("no-replayer reply = %q", out.String())
	}
}
