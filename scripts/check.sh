#!/usr/bin/env bash
# Repo gate: formatting, vet, shadowlint, build, and race-enabled tests.
#
#   scripts/check.sh            # fast gate (~1 min): races everything but internal/core
#   CHECK_FULL=1 scripts/check.sh  # adds go test -race ./internal/core (~3 min)
#
# Run it from anywhere inside the repo; it cds to the module root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== shadowlint"
go run ./cmd/shadowlint ./...

echo "== shadowlint -json determinism smoke"
# Whole-program analysis runs on per-package workers; the diagnostic
# stream (and the trailing summary object) must be byte-identical at any
# worker count, mirroring the telemetry export contract.
lint1=$(mktemp) && lint2=$(mktemp)
go run ./cmd/shadowlint -json -p 1 ./... >"$lint1"
go run ./cmd/shadowlint -json -p 8 ./... >"$lint2"
if ! cmp -s "$lint1" "$lint2"; then
    echo "shadowlint -json output depends on worker count:" >&2
    diff "$lint1" "$lint2" >&2 || true
    rm -f "$lint1" "$lint2"
    exit 1
fi
rm -f "$lint1" "$lint2"

echo "== go build"
go build ./...

echo "== go test -race (fast packages)"
# internal/core is the full end-to-end world and takes minutes under the
# race detector; every other internal package races in seconds. The
# lint repo test inside this set re-runs shadowlint, so regressions are
# caught twice over.
mapfile -t fast < <(go list ./internal/... | grep -v '/internal/core$')
go test -race "${fast[@]}"

if [ "${CHECK_FULL:-0}" = "1" ]; then
    echo "== go test -race ./internal/core (full)"
    go test -race ./internal/core
fi

echo "== telemetry determinism smoke"
# The -metrics-json contract: identical seed+scale must produce
# byte-identical exports across separate processes. A diff here usually
# means a map-iteration order leaked into the event schedule.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/shadowmeter" ./cmd/shadowmeter
"$tmpdir/shadowmeter" -seed 7 -scale small -metrics-json >"$tmpdir/run1.json" 2>/dev/null
"$tmpdir/shadowmeter" -seed 7 -scale small -metrics-json >"$tmpdir/run2.json" 2>/dev/null
if ! cmp -s "$tmpdir/run1.json" "$tmpdir/run2.json"; then
    echo "telemetry export is not deterministic for the same seed:" >&2
    diff "$tmpdir/run1.json" "$tmpdir/run2.json" >&2 || true
    exit 1
fi

echo "== multi-trial determinism smoke"
# The batch runner contract: the same seeds must produce byte-identical
# merged output at any worker count. A diff here means worker scheduling
# leaked into a trial's world or into the merge order.
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 1 >"$tmpdir/batch1.json" 2>/dev/null
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 >"$tmpdir/batch2.json" 2>/dev/null
if ! cmp -s "$tmpdir/batch1.json" "$tmpdir/batch2.json"; then
    echo "batch output depends on worker count:" >&2
    diff "$tmpdir/batch1.json" "$tmpdir/batch2.json" >&2 || true
    exit 1
fi

echo "== blueprint determinism smoke"
# The shared-blueprint contract: worlds instantiated from one topology
# blueprint must be byte-identical to worlds cold-built per trial. A diff
# here means blueprint sharing leaked state between trials.
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 -cold-topology >"$tmpdir/batch3.json" 2>/dev/null
if ! cmp -s "$tmpdir/batch1.json" "$tmpdir/batch3.json"; then
    echo "blueprint-shared batch differs from cold-built topology:" >&2
    diff "$tmpdir/batch1.json" "$tmpdir/batch3.json" >&2 || true
    exit 1
fi

echo "== runstore checkpoint/resume smoke"
# The resume-determinism contract: a batch persisted with -out, torn at
# the tail (simulating a crash mid-append), then resumed must produce
# stdout byte-identical to the uninterrupted run, with the surviving
# trials served from the store — verified via runstore_resume_hits_total
# surfaced on stderr.
go build -o "$tmpdir/shadowstore" ./cmd/shadowstore
# The multi-trial smoke above already produced the uninterrupted
# reference run for these seeds: batch2.json (seed 7, 2 trials).
cp "$tmpdir/batch2.json" "$tmpdir/cold.json"
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 -out "$tmpdir/camp" >"$tmpdir/warm.json" 2>/dev/null
if ! cmp -s "$tmpdir/cold.json" "$tmpdir/warm.json"; then
    echo "-out changed batch stdout:" >&2
    diff "$tmpdir/cold.json" "$tmpdir/warm.json" >&2 || true
    exit 1
fi
truncate -s -7 "$tmpdir/camp/trials.log" # tear the tail record mid-write
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 -out "$tmpdir/camp" -resume \
    >"$tmpdir/resumed.json" 2>"$tmpdir/resume.err"
if ! cmp -s "$tmpdir/cold.json" "$tmpdir/resumed.json"; then
    echo "resumed batch differs from cold run:" >&2
    diff "$tmpdir/cold.json" "$tmpdir/resumed.json" >&2 || true
    exit 1
fi
if ! grep -q "resume hits 1" "$tmpdir/resume.err"; then
    echo "expected 1 resume hit (runstore_resume_hits_total); stderr was:" >&2
    cat "$tmpdir/resume.err" >&2
    exit 1
fi
if ! grep -q "torn-tail truncations 1" "$tmpdir/resume.err"; then
    echo "expected 1 torn-tail truncation; stderr was:" >&2
    cat "$tmpdir/resume.err" >&2
    exit 1
fi

echo "== shadowstore smoke"
"$tmpdir/shadowstore" list "$tmpdir/camp" >/dev/null
"$tmpdir/shadowstore" show "$tmpdir/camp" >/dev/null
"$tmpdir/shadowstore" show -trial 0 "$tmpdir/camp" >/dev/null
"$tmpdir/shadowstore" diff "$tmpdir/camp" "$tmpdir/camp" >/dev/null
"$tmpdir/shadowstore" retention "$tmpdir/camp" >/dev/null
"$tmpdir/shadowstore" retention -from 1s -to 240h "$tmpdir/camp" >/dev/null

echo "== watch plane smoke"
# The observability contract, both halves: the plane is LIVE (its
# endpoints answer over HTTP mid-campaign) and INERT (batch stdout is
# byte-identical with the plane on and off). The watched run reuses the
# multi-trial smoke's seeds, so its stdout must match batch2.json.
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 \
    -watch 127.0.0.1:0 -progress 1 -occupancy-json "$tmpdir/occ.json" \
    >"$tmpdir/watch.json" 2>"$tmpdir/watch.err" &
watch_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(awk -F'http://' '/watch: serving on/ {print $2; exit}' "$tmpdir/watch.err")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "watch server never announced its address; stderr was:" >&2
    cat "$tmpdir/watch.err" >&2
    exit 1
fi
curl -fsS "http://$addr/healthz" | grep -q '^ok$'
curl -fsS "http://$addr/campaign" | grep -q '"trials": 2'
curl -fsS "http://$addr/metrics" | grep -q '^watch_trials_total 2$'
curl -fsS "http://$addr/progress" | grep -q '"type": "campaign_started"'
wait "$watch_pid"
if ! cmp -s "$tmpdir/batch2.json" "$tmpdir/watch.json"; then
    echo "-watch changed batch stdout (the plane must be inert):" >&2
    diff "$tmpdir/batch2.json" "$tmpdir/watch.json" >&2 || true
    exit 1
fi
if ! grep -q "progress: trials 2/2 (100%)" "$tmpdir/watch.err"; then
    echo "batch -progress never reported completion; stderr was:" >&2
    cat "$tmpdir/watch.err" >&2
    exit 1
fi
if ! grep -q '"busy_fraction"' "$tmpdir/occ.json"; then
    echo "-occupancy-json report is missing worker occupancy:" >&2
    cat "$tmpdir/occ.json" >&2
    exit 1
fi

echo "== watch merged-telemetry inertness smoke"
# Same contract for the other stdout document: -metrics-json must be
# byte-identical with and without the plane.
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 -metrics-json >"$tmpdir/mtj_bare.json" 2>/dev/null
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 -metrics-json -watch 127.0.0.1:0 >"$tmpdir/mtj_watch.json" 2>/dev/null
if ! cmp -s "$tmpdir/mtj_bare.json" "$tmpdir/mtj_watch.json"; then
    echo "-watch changed the merged telemetry export:" >&2
    diff "$tmpdir/mtj_bare.json" "$tmpdir/mtj_watch.json" >&2 || true
    exit 1
fi

echo "== compact-then-resume smoke"
# The compaction contract: rewriting the log (newest valid record per
# trial, dead bytes dropped) must not change what a resumed batch
# prints — stdout and the merged telemetry export stay byte-identical
# to the uninterrupted run, with every trial served from the store.
"$tmpdir/shadowstore" compact "$tmpdir/camp" | grep -q "compacted"
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 -out "$tmpdir/camp" -resume \
    >"$tmpdir/compacted_resume.json" 2>"$tmpdir/compact.err"
if ! cmp -s "$tmpdir/cold.json" "$tmpdir/compacted_resume.json"; then
    echo "batch resumed over a compacted store differs from cold run:" >&2
    diff "$tmpdir/cold.json" "$tmpdir/compacted_resume.json" >&2 || true
    exit 1
fi
if ! grep -q "resume hits 2" "$tmpdir/compact.err"; then
    echo "expected 2 resume hits over the compacted store; stderr was:" >&2
    cat "$tmpdir/compact.err" >&2
    exit 1
fi
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 -out "$tmpdir/camp" -resume -metrics-json \
    >"$tmpdir/mtj_compacted.json" 2>/dev/null
if ! cmp -s "$tmpdir/mtj_bare.json" "$tmpdir/mtj_compacted.json"; then
    echo "merged telemetry resumed over a compacted store differs from bare run:" >&2
    diff "$tmpdir/mtj_bare.json" "$tmpdir/mtj_compacted.json" >&2 || true
    exit 1
fi

echo "== store O(1) indexed-read smoke"
# The offset-index contract: `show -trial N` on an indexed campaign
# reads the sidecar files plus one record frame, never the whole log.
# An 8-trial campaign (persisted with -compact to exercise that flag)
# makes one frame a small fraction of the log; -stats surfaces the
# store's read counters on stderr for the assertion.
"$tmpdir/shadowmeter" -seed 7 -trials 8 -out "$tmpdir/camp8" -compact >/dev/null 2>/dev/null
"$tmpdir/shadowstore" show -trial 3 -stats "$tmpdir/camp8" >/dev/null 2>"$tmpdir/show.err"
read -r bytes_read log_size index_hits index_rebuilds < \
    <(awk '/^store stats:/ {print $4, $6, $8, $10}' "$tmpdir/show.err")
if [ -z "${bytes_read:-}" ] || [ -z "${log_size:-}" ]; then
    echo "show -stats printed no store stats line; stderr was:" >&2
    cat "$tmpdir/show.err" >&2
    exit 1
fi
if [ "$((bytes_read * 4))" -ge "$log_size" ]; then
    echo "indexed show read $bytes_read bytes of a $log_size-byte log — not O(record)" >&2
    exit 1
fi
if [ "$index_hits" -eq 0 ] || [ "$index_rebuilds" -ne 0 ]; then
    echo "indexed show did not use the sidecar index (hits=$index_hits rebuilds=$index_rebuilds)" >&2
    exit 1
fi

echo "== shadowstore tail smoke"
# Tail of a completed campaign prints every stored record and exits;
# -follow=false on the same store takes the single-pass path.
"$tmpdir/shadowstore" tail "$tmpdir/camp" | grep -q "campaign complete: 2/2"
"$tmpdir/shadowstore" tail -follow=false "$tmpdir/camp" >/dev/null

echo "== shard fan-out / merge determinism smoke"
# The shard-union invariant: run a campaign as two shards, fold them
# with `shadowstore merge`, and a batch resumed from the merged store
# must be byte-identical to the unsharded run — stdout and the merged
# telemetry export alike — with every trial served from the store.
"$tmpdir/shadowmeter" -seed 7 -trials 4 -workers 2 >"$tmpdir/cold4.json" 2>/dev/null
"$tmpdir/shadowmeter" -seed 7 -trials 4 -workers 2 -shard 0/2 -out "$tmpdir/shard0" >/dev/null 2>/dev/null
"$tmpdir/shadowmeter" -seed 7 -trials 4 -workers 2 -shard 1/2 -out "$tmpdir/shard1" >/dev/null 2>/dev/null
"$tmpdir/shadowstore" list "$tmpdir/shard0" | grep -q 'shard 0/2'
"$tmpdir/shadowstore" merge "$tmpdir/mergedcamp" "$tmpdir/shard0" "$tmpdir/shard1" | grep -q "merged 2 shard"
"$tmpdir/shadowstore" show "$tmpdir/mergedcamp" | grep -q "merged from 2 shard stores"
"$tmpdir/shadowmeter" -seed 7 -trials 4 -workers 2 -out "$tmpdir/mergedcamp" -resume \
    >"$tmpdir/sharded.json" 2>"$tmpdir/sharded.err"
if ! cmp -s "$tmpdir/cold4.json" "$tmpdir/sharded.json"; then
    echo "batch resumed from merged shards differs from the unsharded run:" >&2
    diff "$tmpdir/cold4.json" "$tmpdir/sharded.json" >&2 || true
    exit 1
fi
if ! grep -q "resume hits 4" "$tmpdir/sharded.err"; then
    echo "expected all 4 trials served from the merged store; stderr was:" >&2
    cat "$tmpdir/sharded.err" >&2
    exit 1
fi
"$tmpdir/shadowmeter" -seed 7 -trials 4 -workers 2 -metrics-json >"$tmpdir/mtj_cold4.json" 2>/dev/null
"$tmpdir/shadowmeter" -seed 7 -trials 4 -workers 2 -out "$tmpdir/mergedcamp" -resume -metrics-json \
    >"$tmpdir/mtj_sharded.json" 2>/dev/null
if ! cmp -s "$tmpdir/mtj_cold4.json" "$tmpdir/mtj_sharded.json"; then
    echo "merged telemetry from merged shards differs from the unsharded run:" >&2
    diff "$tmpdir/mtj_cold4.json" "$tmpdir/mtj_sharded.json" >&2 || true
    exit 1
fi

echo "== campaign extension smoke"
# The extension contract: re-running the merged campaign with a larger
# -trials upgrades the manifest in place (no mismatch error) and the
# result is byte-identical to a cold run at the larger count, with the
# original trials served from the store.
"$tmpdir/shadowmeter" -seed 7 -trials 6 -workers 2 >"$tmpdir/cold6.json" 2>/dev/null
"$tmpdir/shadowmeter" -seed 7 -trials 6 -workers 2 -out "$tmpdir/mergedcamp" -resume \
    >"$tmpdir/extended.json" 2>"$tmpdir/extend.err"
if ! cmp -s "$tmpdir/cold6.json" "$tmpdir/extended.json"; then
    echo "extended campaign differs from the cold run at the larger count:" >&2
    diff "$tmpdir/cold6.json" "$tmpdir/extended.json" >&2 || true
    exit 1
fi
if ! grep -q "resume hits 4" "$tmpdir/extend.err"; then
    echo "expected the 4 pre-extension trials served from the store; stderr was:" >&2
    cat "$tmpdir/extend.err" >&2
    exit 1
fi

echo "== shadowmeterd control-plane smoke"
# The daemon contract: submit a campaign over HTTP, watch it complete,
# then SIGTERM drains gracefully (exit 0, queue persisted as done).
go build -o "$tmpdir/shadowmeterd" ./cmd/shadowmeterd
"$tmpdir/shadowmeterd" -addr 127.0.0.1:0 -root "$tmpdir/fleet" -workers 1 \
    2>"$tmpdir/daemon.err" &
daemon_pid=$!
daddr=""
for _ in $(seq 1 100); do
    daddr=$(awk -F'http://' '/shadowmeterd: serving on/ {split($2, a, " "); print a[1]; exit}' "$tmpdir/daemon.err")
    [ -n "$daddr" ] && break
    sleep 0.1
done
if [ -z "$daddr" ]; then
    echo "shadowmeterd never announced its address; stderr was:" >&2
    cat "$tmpdir/daemon.err" >&2
    exit 1
fi
curl -fsS "http://$daddr/healthz" | grep -q '^ok$'
cid=$(curl -fsS -X POST -d '{"seed":7,"trials":2,"slice_size":1}' "http://$daddr/campaigns" | jq -r .id)
if [ -z "$cid" ] || [ "$cid" = "null" ]; then
    echo "campaign submission returned no id" >&2
    exit 1
fi
state=""
for _ in $(seq 1 300); do
    state=$(curl -fsS "http://$daddr/campaigns/$cid" | jq -r .state)
    [ "$state" = "done" ] && break
    [ "$state" = "failed" ] && break
    sleep 0.2
done
if [ "$state" != "done" ]; then
    echo "campaign $cid ended as '$state', want done; daemon stderr was:" >&2
    cat "$tmpdir/daemon.err" >&2
    exit 1
fi
curl -fsS "http://$daddr/campaigns/$cid/progress" | grep -q '"type": "campaign_started"'
curl -fsS "http://$daddr/campaigns" | grep -q "\"$cid\""
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "shadowmeterd exited non-zero after SIGTERM; stderr was:" >&2
    cat "$tmpdir/daemon.err" >&2
    exit 1
fi
grep -q "drained" "$tmpdir/daemon.err"
grep -q '"state": "done"' "$tmpdir/fleet/state.json"
# The daemon's campaign store is an ordinary campaign: resumable,
# byte-identical to the same seeds run by hand.
fleet_dir=$(jq -r '.campaigns[0].dir' "$tmpdir/fleet/state.json")
"$tmpdir/shadowmeter" -seed 7 -trials 2 -workers 2 -out "$fleet_dir" -resume \
    >"$tmpdir/fleet_resume.json" 2>"$tmpdir/fleet_resume.err"
if ! cmp -s "$tmpdir/batch2.json" "$tmpdir/fleet_resume.json"; then
    echo "daemon-run campaign differs from the same seeds run by hand:" >&2
    diff "$tmpdir/batch2.json" "$tmpdir/fleet_resume.json" >&2 || true
    exit 1
fi
if ! grep -q "resume hits 2" "$tmpdir/fleet_resume.err"; then
    echo "expected both daemon-run trials served from its store; stderr was:" >&2
    cat "$tmpdir/fleet_resume.err" >&2
    exit 1
fi

echo "== benchmark smoke (netsim, wire)"
# -benchtime=1x compiles and runs each benchmark once: catches bitrot in
# the registry-backed events/sec reporting without measuring anything.
go test -run '^$' -bench . -benchtime=1x ./internal/netsim ./internal/wire

echo "== netsim allocation gate"
# The forward path is pooled (events + flights, one scratch decode): it
# must stay at single-digit allocs per delivered packet or multi-trial
# throughput regresses. Baseline after the zero-alloc pass: 1 alloc/op.
allocs=$(go test -run '^$' -bench BenchmarkPacketForwarding -benchmem ./internal/netsim |
    awk '/BenchmarkPacketForwarding/ {print $(NF-1)}')
echo "BenchmarkPacketForwarding: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 7 ]; then
    echo "forward-path allocations regressed: $allocs allocs/op (gate: 7)" >&2
    exit 1
fi

echo "== netsim event-queue allocation gate"
# At Phase II depth (65,536 pending events) the queue's steady state
# recycles pooled events and reuses the heap backing: any allocation per
# dispatch is a regression.
allocs=$(go test -run '^$' -bench BenchmarkEventQueue -benchmem ./internal/netsim |
    awk '/BenchmarkEventQueue/ {print $(NF-1)}')
echo "BenchmarkEventQueue: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 0 ]; then
    echo "event-queue allocations regressed: $allocs allocs/op (gate: 0)" >&2
    exit 1
fi

echo "== trials allocation + multi-core speedup gates"
# The multi-trial runner went through two campaign-scale allocation
# sweeps (owned-buffer injection, single-allocation packet builders,
# sniff fast paths, per-world encode scratch, interning — then scratch
# DNS decode/response reuse, pooled UDP waiters, per-worker netsim
# arenas, and static HTTP header atoms): an 8-trial batch sits around
# 3.35M allocs, down from ~9.8M before the sweeps. The ceiling leaves
# a few percent headroom for noise while catching any real regression.
bench_out=$(go test -run '^$' -bench 'BenchmarkTrials/workers=(1|4)$' -benchmem -benchtime 1x ./internal/runner)
allocs=$(echo "$bench_out" | awk '/workers=1/ {print $(NF-1)}')
echo "BenchmarkTrials/workers=1: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 3500000 ]; then
    echo "trial-loop allocations regressed: $allocs allocs/op (gate: 3500000)" >&2
    exit 1
fi

# Multi-core speedup: the streaming consumer must not serialize the
# worker pool. Gated only where parallelism can physically pay — on a
# single-CPU host w4/w1 hovers around 1.0 by construction and the gate
# would measure the scheduler, not the runner.
num_cpu=$(nproc)
w1=$(echo "$bench_out" | awk '/workers=1/ {print $3}')
w4=$(echo "$bench_out" | awk '/workers=4/ {print $3}')
if [ "$num_cpu" -ge 4 ]; then
    speedup=$(awk -v a="$w1" -v b="$w4" 'BEGIN {printf "%.3f", a / b}')
    echo "trials_speedup_w4 = $speedup (w1 ${w1} ns/op, w4 ${w4} ns/op, $num_cpu CPUs)"
    if awk -v s="$speedup" 'BEGIN {exit !(s < 0.97)}'; then
        echo "multi-core speedup regressed: trials_speedup_w4 = $speedup (gate: >= 0.97 on a >=4-CPU host)" >&2
        exit 1
    fi
else
    echo "trials_speedup_w4 gate skipped: host has $num_cpu CPU(s), needs >= 4"
fi

echo "check.sh: all gates passed"
