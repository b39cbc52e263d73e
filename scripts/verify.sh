#!/bin/sh
# Tier-1 verification gate: build, tests (including the doc-comment and
# gofmt lints in lint_test.go), vet, and a formatting check. Run from the
# repository root. Fails fast on the first broken step.
#
# Optional flags:
#   -race   additionally run the full test suite under the race detector,
#           then repeat the aprofd profile-polling and segment-recycling
#           tests and the parallel decode fill test under it ten times
#   -fuzz   additionally run 30-second fuzz smokes of the trace decoder,
#           the recovery paths, the stream decoder, the aprofd wire
#           protocol, the aprofd tenant checkpoint and the ISPL compiler
set -eu

cd "$(dirname "$0")/.."

run_race=0
run_fuzz=0
for arg in "$@"; do
	case "$arg" in
	-race) run_race=1 ;;
	-fuzz) run_fuzz=1 ;;
	*)
		echo "usage: scripts/verify.sh [-race] [-fuzz]" >&2
		exit 2
		;;
	esac
done

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== bench module: (cd bench && go test ./...)"
# bench/ is a separate Go module that the root ./... never reaches, yet it
# depends on the pipeline's public surface (Plan.Annotated, BuildPlan,
# StreamRecorder.SetAnnotations).
(cd bench && go test ./...)

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== telemetry smoke: aprof-trace analyze -workload -telemetry"
snap="${TELEMETRY_SNAPSHOT:-/tmp/aprof_telemetry_smoke.json}"
go run ./cmd/aprof-trace analyze -workload mysqld -progress=false \
	-telemetry="$snap" -top 3 >/dev/null
# The one-shot run records, encodes, decodes and pipeline-analyzes the
# workload, so a valid snapshot must carry nonzero counters from every
# layer: guest, core, shadow, trace and pipeline.
for key in guest/mem_events core/events_consumed shadow/chunks_allocated \
	trace/events_written pipeline/events_processed; do
	if ! grep -E "\"$key\": [1-9]" "$snap" >/dev/null; then
		echo "telemetry smoke: $key missing or zero in $snap" >&2
		exit 1
	fi
done
echo "telemetry snapshot OK: $snap"

echo "== view smoke: aprof -plot/-report/-contexts, aprof-ispl -plot"
# The profile views (internal/report/view.go) have golden tests; these
# command paths into them do not, so each must at least run to exit 0.
go run ./cmd/aprof -workload mysqld -plot mysql_select >/dev/null
go run ./cmd/aprof -workload mysqld -report >/dev/null
go run ./cmd/aprof -workload mysqld -contexts >/dev/null
go run ./cmd/aprof-ispl -plot sortN examples/ispl/quicksort.ispl >/dev/null
echo "view smoke OK"

echo "== scaling smoke: pipeline speedup at GOMAXPROCS=2"
# Parallelism canary: 2 workers on 2 CPUs must beat 1 worker by > 1.2x
# on an annotated mid-size trace (self-skips on single-CPU hosts, where
# wall-clock parallel speedup is impossible — the log says so).
smoke_log="${TMPDIR:-/tmp}/aprof_scaling_smoke.log"
if ! APROF_SCALING_SMOKE=1 go test -run TestScalingSmoke -v \
	./internal/trace/pipeline >"$smoke_log" 2>&1; then
	cat "$smoke_log" >&2
	exit 1
fi
grep -E "SKIP:|skipping|speedup" "$smoke_log" || true

echo "== obs smoke: -http live scrape, byte-identical to unobserved run"
# HTTP observability gate: a subprocess runs analyze -workload with
# -http 127.0.0.1:0; the parent scrapes /metrics, /progress, /profile and
# /spans.json from the live process (the profile mid-analysis, forcing an
# on-demand snapshot capture) and requires the run's stdout to be
# byte-identical to a run without -http.
obs_log="${TMPDIR:-/tmp}/aprof_obs_smoke.log"
if ! APROF_OBS_SMOKE=1 go test -run TestObsSmoke -v \
	./internal/obs >"$obs_log" 2>&1; then
	cat "$obs_log" >&2
	exit 1
fi
grep -E "scraping|PASS" "$obs_log" || true

echo "== daemon smoke: aprofd two-guest stream, byte-identical to one-shot analyze"
# Continuous-profiling gate: a real aprofd process ingests one recorded
# mysqld execution as two concurrent guest connections; the rolling
# profile scraped from /profile?tenant= must be byte-identical to a
# one-shot `aprof-trace analyze -export` of the combined trace.
daemon_log="${TMPDIR:-/tmp}/aprof_daemon_smoke.log"
if ! APROF_DAEMON_SMOKE=1 go test -run TestDaemonSmoke -v \
	./internal/daemon >"$daemon_log" 2>&1; then
	cat "$daemon_log" >&2
	exit 1
fi
grep -E "byte-identical|PASS" "$daemon_log" || true

echo "== invariant check: aprof-trace check -suite micro"
# Full metamorphic matrix over the micro workloads: deep invariant
# checking plus profile byte-identity under perturbed don't-care
# parameters, with a small RenumberThreshold forcing many Fig. 13
# renumbering passes.
go run ./cmd/aprof-trace check -suite micro -level deep -renumber 48

if [ "$run_race" = 1 ]; then
	echo "== go test -race ./..."
	go test -race ./...
	echo "== race: /profile polled during two-guest ingest, segment recycling (x10)"
	go test -race -count=10 -run 'TestProfilePollDuringIngest|TestSegmentStorageRecycling' ./internal/daemon
	echo "== race: decode fill on one goroutine vs four (x10)"
	go test -race -count=10 -run TestDecodeParallelMatchesSerial ./internal/trace
fi

if [ "$run_fuzz" = 1 ]; then
	echo "== fuzz smoke: FuzzDecode (30s)"
	go test -fuzz=FuzzDecode -fuzztime=30s ./internal/trace
	echo "== fuzz smoke: FuzzRecover (30s)"
	go test -fuzz=FuzzRecover -fuzztime=30s ./internal/trace
	echo "== fuzz smoke: FuzzStreamDecoder (30s)"
	go test -fuzz=FuzzStreamDecoder -fuzztime=30s ./internal/trace
	echo "== fuzz smoke: FuzzProtocol (30s)"
	go test -fuzz=FuzzProtocol -fuzztime=30s ./internal/daemon
	echo "== fuzz smoke: FuzzTenantCheckpoint (30s)"
	go test -fuzz=FuzzTenantCheckpoint -fuzztime=30s ./internal/daemon
	echo "== fuzz smoke: FuzzCompile (30s)"
	go test -fuzz=FuzzCompile -fuzztime=30s ./internal/ispl
fi

echo "verify: all checks passed"
