# Tier-1 gate: everything must build and every test must pass. Tests
# run in shuffled order so inter-test ordering dependencies can't hide.
tier1:
	go build ./...
	go test -shuffle=on ./...

# Race hygiene for the concurrent packages: the parallel runner stack,
# the live serving path (runtime lifecycle + load-generator
# measurement), and the policy queues (cascade tiers + admission paths
# exercise them from many goroutines). Slower than tier1; run before
# merging changes to any of these.
race:
	go test -race ./internal/runner ./internal/server ./internal/figures ./internal/live ./internal/trace ./internal/obs ./internal/adapt ./internal/shadow ./internal/bench ./internal/proto ./internal/netsrv ./internal/policy

vet:
	go vet ./...

bench:
	go test -run xxx -bench . -benchmem .

# End-to-end observability smoke: builds concord-kvd and concord-load,
# boots the server with -obs -adaptive, scrapes /metrics, /healthz and
# pprof, pulls a TRACE and DECISIONS, asserts non-zero net-phase |OBS
# trailers, runs text -breakdown and pipelined-binary loads, and
# validates the tracedump and decisiondump written at drain.
# Out-of-process, so kept behind a build tag rather than in tier1.
obs-smoke:
	go test -tags obssmoke -run TestObsSmoke -v -timeout 120s ./internal/obs/smoke

# Continuous benchmark harness: full run of the standardized scenario
# suite. Writes into the gitignored bench-out/ scratch directory; to
# refresh the checked-in baselines, copy the BENCH_*.json you mean to
# re-baseline to the repo root and commit them deliberately.
bench-json:
	go run ./cmd/concord-bench -reps 5 -warmup 1 -outdir bench-out

# Short-rep suite run compared against the checked-in baselines on the
# hermetic metrics only (deterministic simulator quantiles, allocation
# counts — safe across machines). Exits non-zero on a regression beyond
# the noise band; machine-bound movements print as advisory.
bench-smoke:
	go run ./cmd/concord-bench -short -scenarios core,live,live_sharded,live_adaptive,live_regret,live_multitenant -outdir bench-out
	go run ./cmd/concord-bench -compare -hermetic BENCH_core.json bench-out/BENCH_core.json
	go run ./cmd/concord-bench -compare -hermetic BENCH_live.json bench-out/BENCH_live.json
	go run ./cmd/concord-bench -compare -hermetic BENCH_live_sharded.json bench-out/BENCH_live_sharded.json
	go run ./cmd/concord-bench -compare -hermetic BENCH_live_adaptive.json bench-out/BENCH_live_adaptive.json
	go run ./cmd/concord-bench -compare -hermetic BENCH_live_regret.json bench-out/BENCH_live_regret.json
	go run ./cmd/concord-bench -compare -hermetic BENCH_live_multitenant.json bench-out/BENCH_live_multitenant.json

# Wire-protocol smoke: the live_net scenario over real loopback TCP
# (text + pipelined binary, up to 10k connections), gated hermetically
# on allocations per request — the contract that the zero-copy binary
# path stays strictly leaner than the text path.
net-smoke:
	go run ./cmd/concord-bench -short -scenarios live_net -outdir bench-out
	go run ./cmd/concord-bench -compare -hermetic BENCH_live_net.json bench-out/BENCH_live_net.json
	# Absolute allocs/req floors, whatever the checked-in baseline
	# drifts to: the 5-rep baselines (text 3.17, binary 2.72) plus their
	# noise band (-short binary runs read 2.69-2.72, CI95 up to ±0.24).
	go run ./cmd/concord-bench -assert bench-out/BENCH_live_net.json 'allocs_per_req_text<3.25' 'allocs_per_req_binary<2.85'

.PHONY: tier1 race vet bench obs-smoke bench-json bench-smoke net-smoke
