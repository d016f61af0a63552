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

echo "== wire per-hop decode fuzz smoke"
# Arbitrary bytes must never panic the parser, and every decodable header
# must survive the per-hop RFC 1624 TTL decrement. The seed corpus runs in
# the plain test pass; this adds a short coverage-guided search.
go test -run '^$' -fuzz '^FuzzParserDecode$' -fuzztime 10s ./internal/wire

echo "== wire checksum fuzz smoke"
# The word-wise Internet checksum must equal the 16-bit RFC 1071 loop it
# replaced for any bytes and pseudo-header, and a built packet with one
# payload bit flipped must still fail verification.
go test -run '^$' -fuzz '^FuzzChecksum$' -fuzztime 10s ./internal/wire

echo "== dnswire decode fuzz smoke"
# Arbitrary bytes (the realnet honeypot decodes whatever scanners send)
# must never panic the DNS decoder, and every message it accepts that the
# encoder can express must survive encode -> decode unchanged. A crasher
# lands in internal/dnswire/testdata/fuzz/ and belongs in the commit.
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/dnswire

echo "== dnswire canonical-name fuzz smoke"
# Canonical's 8-bytes-per-step fast path must return exactly what
# strings.ToLower of the trimmed name does, for any string.
go test -run '^$' -fuzz '^FuzzCanonical$' -fuzztime 10s ./internal/dnswire

echo "== httpwire request parse fuzz smoke"
# The realnet honeypot parses whatever a socket delivers: ParseRequest must
# never panic, and every request it accepts must re-encode and re-parse to
# an equal Request. A crasher lands in internal/httpwire/testdata/fuzz/.
go test -run '^$' -fuzz '^FuzzParseRequest$' -fuzztime 10s ./internal/httpwire

echo "== tlswire ClientHello parse fuzz smoke"
# The realnet honeypot parses whatever a socket delivers: ParseClientHello
# must never panic or return fields larger than its input, and every hello
# it accepts must re-encode and re-parse to the same ServerName and ECH
# state. A crasher lands in internal/tlswire/testdata/fuzz/.
go test -run '^$' -fuzz '^FuzzParseClientHello$' -fuzztime 10s ./internal/tlswire

echo "== decoy sniff differential fuzz smoke"
# The observer-tap fast paths (QueryNameFromBytes, HostFromBytes,
# SNIFromBytes, behind PortProtocol) must extract what the full DNS, HTTP
# and TLS decoders do on every port, or both must reject: a disagreement
# attributes a shadowed capture to the wrong decoy.
go test -run '^$' -fuzz '^FuzzSniffAgree$' -fuzztime 10s ./internal/decoy

echo "== identifier round-trip fuzz smoke"
# Encode -> Decode must return the same ID for any fields in the epoch
# window, and Decode must never panic on an arbitrary label: the send log
# and the honeypot pre-filter key on these labels.
go test -run '^$' -fuzz '^FuzzIdentifierRoundTrip$' -fuzztime 10s ./internal/identifier

echo "== send log differential fuzz smoke"
# The send log finds a record from a label's decoded identifier, keeping
# no label text: SentByLabel and Classify on any string must answer what
# the label-hash reference log in sendlog_ref_test.go does, and never
# panic.
go test -run '^$' -fuzz '^FuzzSendLog$' -fuzztime 10s ./internal/correlate

echo "== runstore frame decoder differential fuzz smoke"
# Every store read (resume, show, retention, tail, compact, merge) decodes
# frames with the schema-specific record decoder: it must accept exactly
# what json.Unmarshal accepts and return the same TrialRecord, refusing
# only objects that name a field twice; its summary mode must give the
# same verdict and the same record without events. One seed is a real
# 137 KB record, and minimizing each input it grows would eat the whole
# smoke, so minimization is capped. A crasher lands in
# internal/runstore/testdata/fuzz/ and belongs in the commit.
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 10s -fuzzminimizetime 200x ./internal/runstore

echo "== runstore sidecar decode fuzz smoke"
# headlines.col, the one per-trial index, is read on every open: any
# body behind a valid header and CRC must decode without panic or an
# allocation its size cannot back, and what decodes must survive
# encode -> decode.
go test -run '^$' -fuzz '^FuzzDecodeSidecars$' -fuzztime 10s ./internal/runstore

echo "== runstore salvage fuzz smoke"
# Compact and Merge rebuild logs through one salvage pass: on any bytes
# it must not panic, and what it keeps must be one decodable frame per
# trial, in trial order, copied unchanged from the input and on the
# campaign plan, and salvaging its output again must change nothing. A
# crasher lands in internal/runstore/testdata/fuzz/ and belongs in the
# commit.
go test -run '^$' -fuzz '^FuzzSalvage$' -fuzztime 10s ./internal/runstore

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

echo "== packet-buffer poison smoke"
# A delivered packet's buffer returns to the network's pool once its
# handler returns, so taps, handlers and callbacks may read payload bytes
# only during their call. Built with -tags netsimpoison, the pool fills
# every released buffer with 0xA5: code that kept payload bytes past its
# call would read that instead of the packet, and its output would differ
# from the untagged build's.
go build -tags netsimpoison -o "$tmpdir/shadowmeter_poison" ./cmd/shadowmeter
for args in "-seed 42 -metrics-json" "-seed 42" "-mitigations"; do
    # $args is unquoted on purpose: it splits into the run's flags.
    "$tmpdir/shadowmeter" $args >"$tmpdir/plain.out" 2>/dev/null
    "$tmpdir/shadowmeter_poison" $args >"$tmpdir/poison.out" 2>/dev/null
    if ! cmp -s "$tmpdir/plain.out" "$tmpdir/poison.out"; then
        echo "shadowmeter $args: output differs with released packet buffers poisoned:" >&2
        diff "$tmpdir/plain.out" "$tmpdir/poison.out" | head -20 >&2 || true
        exit 1
    fi
done
"$tmpdir/shadowmeter_poison" -seed 7 -trials 2 -workers 2 >"$tmpdir/batch_poison.json" 2>/dev/null
if ! cmp -s "$tmpdir/batch2.json" "$tmpdir/batch_poison.json"; then
    echo "batch output differs with released packet buffers poisoned:" >&2
    diff "$tmpdir/batch2.json" "$tmpdir/batch_poison.json" | head -20 >&2 || true
    exit 1
fi
go test -tags netsimpoison ./internal/...

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
# An 8-trial campaign (compacted, so the read follows compaction's
# republished sidecars) makes one frame a small fraction of the log;
# -stats surfaces the store's read counters on stderr for the assertion.
"$tmpdir/shadowmeter" -seed 7 -trials 8 -out "$tmpdir/camp8" >/dev/null 2>/dev/null
"$tmpdir/shadowstore" compact "$tmpdir/camp8" >/dev/null
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

echo "== benchmark smoke (netsim, wire)"
# -benchtime=1x compiles and runs each benchmark once: catches bitrot in
# the registry-backed events/sec reporting without measuring anything.
go test -run '^$' -bench . -benchtime=1x ./internal/netsim ./internal/wire

echo "== netsim allocation gates"
# The forward path is pooled (events, flights and packet buffers, one
# scratch decode): once warm, injecting, forwarding and delivering a
# packet allocates nothing, and neither does a whole UDP request/reply
# exchange between two hosts.
bench_out=$(go test -run '^$' -bench 'BenchmarkPacketForwarding|BenchmarkEndToEndUDP' -benchmem ./internal/netsim)
for bench in BenchmarkPacketForwarding BenchmarkEndToEndUDP; do
    allocs=$(echo "$bench_out" | awk -v p="$bench-" 'index($1, p) == 1 {print $(NF-1)}')
    echo "$bench: $allocs allocs/op"
    if [ -z "$allocs" ] || [ "$allocs" -gt 0 ]; then
        echo "$bench allocations regressed: $allocs allocs/op (gate: 0)" >&2
        exit 1
    fi
done

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
# The same depth on Phase II's mix (about 91% of events one hop latency
# ahead) runs mostly through the hop-lane ring, which must also reuse its
# backing in the steady state.
allocs=$(go test -run '^$' -bench BenchmarkHopLane -benchmem ./internal/netsim |
    awk '/BenchmarkHopLane/ {print $(NF-1)}')
echo "BenchmarkHopLane: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 0 ]; then
    echo "hop-lane allocations regressed: $allocs allocs/op (gate: 0)" >&2
    exit 1
fi

echo "== dnswire scratch-encode allocation gate"
# Resolvers, honeypots and exhibitors encode every DNS message into a
# reused Encoder; once warmed, its buffer and compression table must
# absorb a message without allocating.
allocs=$(go test -run '^$' -bench BenchmarkAppendEncode -benchmem ./internal/dnswire |
    awk '/BenchmarkAppendEncode/ {print $(NF-1)}')
echo "BenchmarkAppendEncode: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 0 ]; then
    echo "scratch DNS encode allocations regressed: $allocs allocs/op (gate: 0)" >&2
    exit 1
fi

echo "== observer filtered-packet allocation gate"
# A tap checks port, watch list, destination and path sample before it
# parses a payload; a packet it cannot record (an unwatched protocol, an
# unsampled path) must pass without allocating.
allocs=$(go test -run '^$' -bench BenchmarkObserveFiltered -benchmem ./internal/observer |
    awk '/BenchmarkObserveFiltered/ {print $(NF-1)}')
echo "BenchmarkObserveFiltered: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 0 ]; then
    echo "filtered-packet allocations regressed: $allocs allocs/op (gate: 0)" >&2
    exit 1
fi

echo "== decoy generate allocation gate"
# A decoy costs three allocations whatever its protocol: the Decoy, its
# domain string, and a payload encoded straight into a buffer of exactly
# its size (no intermediate DNS message, header map or ClientHello).
bench_out=$(go test -run '^$' -bench BenchmarkGenerate -benchmem ./internal/decoy)
for proto in DNS HTTP TLS; do
    allocs=$(echo "$bench_out" | awk -v p="BenchmarkGenerate/$proto-" 'index($1, p) == 1 {print $(NF-1)}')
    echo "BenchmarkGenerate/$proto: $allocs allocs/op"
    if [ -z "$allocs" ] || [ "$allocs" -gt 3 ]; then
        echo "$proto decoy generation allocations regressed: $allocs allocs/op (gate: 3)" >&2
        exit 1
    fi
done

echo "== resolver cache-hit allocation gate"
# A query answered from cache decodes into the service's scratch message
# and encodes its reply from scratch: the query name, which the cache and
# exhibitors may keep, is its only allocation.
allocs=$(go test -run '^$' -bench BenchmarkCacheHit -benchmem ./internal/resolversim |
    awk '/BenchmarkCacheHit/ {print $(NF-1)}')
echo "BenchmarkCacheHit: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 1 ]; then
    echo "resolver cache-hit allocations regressed: $allocs allocs/op (gate: 1)" >&2
    exit 1
fi

echo "== runstore record-decode allocation gate"
# A 20,000-event frame decodes into an exactly sized events slice, one
# string holding every label, and interned protocol and destination
# names: 132 allocations, where json.Unmarshal makes about 88,000. The
# pooled scratch is sized from the first event, so the count holds when
# the GC has emptied the pool. The ceiling leaves about 5% headroom;
# per-event allocations would add thousands.
bench_out=$(go test -run '^$' -bench BenchmarkDecodeFrame -benchmem ./internal/runstore)
allocs=$(echo "$bench_out" | awk 'index($1, "BenchmarkDecodeFrame/full-") == 1 {print $(NF-1)}')
echo "BenchmarkDecodeFrame/full: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 139 ]; then
    echo "record-decode allocations regressed: $allocs allocs/op (gate: 139)" >&2
    exit 1
fi
# A summary decode (resume, open's rebuild scan, salvage) checks every
# event but keeps none: its 86 allocations are the headline, metrics and
# spans, whatever the number of events. The ceiling leaves about 5%
# headroom; an allocation per event would add 20,000.
allocs=$(echo "$bench_out" | awk 'index($1, "BenchmarkDecodeFrame/summary-") == 1 {print $(NF-1)}')
echo "BenchmarkDecodeFrame/summary: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 90 ]; then
    echo "summary-decode allocations regressed: $allocs allocs/op (gate: 90)" >&2
    exit 1
fi

echo "== trials allocation + multi-core speedup gates"
# The multi-trial runner went through two campaign-scale allocation
# sweeps (owned-buffer injection, single-allocation packet builders,
# sniff fast paths, per-world encode scratch, interning — then scratch
# DNS decode/response reuse, pooled UDP waiters, per-worker netsim
# arenas, and static HTTP header atoms) and a Phase II allocation diet
# (zero-copy delivery, chunked capture log, scratch DNS encodes), then
# the question-name reuse in DNS decode, then filter-before-parse observer
# taps, then one allocation per message (exactly sized decoy encoders,
# scratch-decoding resolvers and HTTP servers, pooled TCP request flows),
# then pooled packet buffers: an 8-trial batch sits at about 1.00M allocs,
# down from ~9.8M before the sweeps. The ceiling leaves about 6% headroom
# for noise while catching any real regression.
bench_out=$(go test -run '^$' -bench 'BenchmarkTrials/workers=(1|4)$' -benchmem -benchtime 1x ./internal/runner)
allocs=$(echo "$bench_out" | awk '/workers=1/ {print $(NF-1)}')
echo "BenchmarkTrials/workers=1: $allocs allocs/op"
if [ -z "$allocs" ] || [ "$allocs" -gt 1060000 ]; then
    echo "trial-loop allocations regressed: $allocs allocs/op (gate: 1060000)" >&2
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

echo "== bench module vet + build"
# shadowbench (bench/) is a module of its own that compiles against the
# internal APIs; the root go vet/build above do not reach it.
(cd bench && go vet ./... && go build ./...)

echo "check.sh: all gates passed"
