#!/bin/sh
# ci.sh — the canonical tier-1+ gate (see ROADMAP.md).
#
#   go vet           static checks
#   gofmt            formatting gate: `gofmt -l .` must list no file
#   go build         tier-1, part 1
#   inlining         the fast paths of fp.Env's Add, Sub, Mul, Div and
#                    MulAdd must inline into the MFEM, Laghos and LULESH
#                    kernels (the compiler's -m report names each at least
#                    once per package): a fast path grown past the inlining
#                    budget, or an app package that no longer imports fp,
#                    would make every one of them a call again
#   go test -race    tier-1, part 2, with the race detector and -cover (the
#                    parallel execution engine must be data-race-free at
#                    every -j; per-package statement coverage is printed)
#   micro-bench      BenchmarkMachineFn, BenchmarkPlanKey,
#                    BenchmarkLinkMix, BenchmarkEnvOps,
#                    BenchmarkAssembleDiffusion2D, BenchmarkMatrixCosts,
#                    BenchmarkDiskPut, BenchmarkDiskGet and
#                    BenchmarkCoordHeartbeat at a fixed 100 iterations, so
#                    the simulated-call dispatch, bisect probe plan key and
#                    link, fp operation (each records the semantics fields
#                    it reads), sparse assembly, matrix cost model, store
#                    segment and coordinator heartbeat benchmarks keep
#                    compiling and running (a heartbeat renews its lease in
#                    memory, so its time must not grow with the shards), and
#                    BenchmarkSpeculativeSearcher at 10 iterations, so the
#                    speculative bisect searcher's benchmark runs too
#   journal fuzz     FuzzJournalDecode for 2000 inputs: whatever bytes
#                    coord.json holds, recovery never panics and never
#                    makes a quarantined shard leasable again
#   record fuzz      FuzzRemoteDecode for 2000 inputs: whatever bytes a
#                    remote store answers, the record decoder never panics
#                    and returns a payload only for an intact record of
#                    the requested key
#   decoder fuzz     FuzzRecordDecodeMatchesJSON for 2000 inputs: whatever
#                    bytes an artifact or store payload holds, the
#                    schema-specific record decoder accepts them only when
#                    encoding/json decodes the same value, and ReadArtifact
#                    returns encoding/json's value or error text
#   boundary fuzz    FuzzSegmentDecode, FuzzArtifactDecode,
#                    FuzzRunKeyInjective, FuzzPlanKeyInjective and
#                    FuzzPlanKeyMatchesReference for 2000 inputs each: a
#                    store segment or an artifact of any bytes never panics
#                    or replays a damaged record, distinct run coordinates
#                    or build plans never share a cache key, and every
#                    plan keys to the bytes of the map-based reference
#   kernel fuzz      FuzzKernelsMatchReference for 2000 inputs: every fp
#                    operation of an Env without injection, which takes
#                    the inline fast paths, returns the same bits (NaN sign
#                    and payload included) and records the same reads as
#                    the reference code an injected Env runs, at every
#                    reduction width from 1 to 17, with FMA, extended
#                    precision and flush-to-zero each on and off
#   shard-set fuzz   FuzzShardSetFold for 2000 inputs: two artifacts of
#                    any bytes, taken as shards 0/2 and 1/2, validate
#                    exactly when both pass Check, record one command and
#                    agree on the bits of every run key they share, and a
#                    merge of a valid set exports exactly the union of
#                    their records
#   bench module     vet + race tests of the nested bench/ module (root
#                    ./... skips it), so the benchmark harness cannot rot
#   shard smoke      the distributed protocol end to end through real
#                    binaries: quickstart as 2 shards + merge must be
#                    byte-identical to the unsharded run
#   incremental      the incremental-campaign engine end to end: a warmed
#                    re-run of the identical command reports an empty
#                    delta, a one-flag mutation reports exactly the
#                    mutated cells, `flit delta` agrees offline, and
#                    `flit gc` prunes only the superseded generation
#   bisect smoke     the speculative bisect engine end to end through a
#                    real binary: the laghos-bisect example at -j 1 (the
#                    paper's sequential probe order) and -j 8 (speculative)
#                    must print byte-identical output
#   store smoke      the persistent run store cross-process through the
#                    real flit binary: two identical runs sharing only a
#                    -store directory must print byte-identical output, the
#                    first sharing some executions between equally behaving
#                    executables, the second materializing zero builds and
#                    running zero tests, with nonzero store hits;
#                    `flit store stats`/`gc` must see and compact the
#                    entries (one intact entry and no corruption left), and
#                    a third run over the compacted store must still print
#                    the cold output byte for byte
#   remote smoke     the remote store tier cross-machine through real
#                    binaries: `flit store serve` on a loopback port, then
#                    two runs sharing nothing but the URL — the second must
#                    print byte-identical output materializing zero builds
#                    with nonzero remote hits; SIGTERM must drain and exit 0
#   coord smoke      the multi-tenant campaign coordinator end to end
#                    through real binaries, worker crash and poisoned
#                    shard included: `flit coord serve` owns a table4
#                    campaign held open by a stalling worker while two
#                    more campaigns are submitted over HTTP — a healthy
#                    table3 and a table2 whose shard 1 is poisoned
#                    (FLIT_WORK_FAIL) under an attempt budget of 2. The
#                    poisoned shard must be quarantined and its campaign
#                    declared terminally FAILED while the tenancy is
#                    still live (status views render the quarantine,
#                    budget, and failure excerpt), then the stalling
#                    worker is SIGKILLed so its lease expires and is
#                    re-leased. The coordinator exits NON-zero naming
#                    the quarantined shard; the healthy campaigns merge
#                    byte-identical to unsharded runs with zero
#                    re-leases on table3 (cross-campaign isolation), and
#                    merging the failed campaign's partial artifact set
#                    must fail naming exactly the missing shard
#   instruction set  flit built a second time with GOAMD64=v3 (FMA, AVX2)
#                    must write a -j 1 table1 shard artifact identical to
#                    the default build's: `flit delta` reports nothing new,
#                    dropped or changed, and the runs match byte for byte —
#                    the Go compiler may fuse x*y+z into an FMA on v3, and
#                    an unconverted product in the simulated fp arithmetic
#                    would show here. Artifacts carry no runtimes, so
#                    TestMatrixCostsMatchFullBuilds runs under GOAMD64=v3
#                    too: the MFEM and quickstart matrix runtimes must equal
#                    their linked full builds' costs and a digest of their
#                    bits pinned from the default build. So do the digests
#                    of result bits pinned from the default build: every
#                    run record of a -j 1 sweep (TestSweepRunBitsPinned),
#                    every fp operation on special operands
#                    (TestOpsBitsPinned) and every MFEM example under
#                    sampled and injected builds (TestKernelBitsPinned)
#   table5           the paper's full Table 5 injection campaign (4,376
#                    runs) through the real flit binary: zero wrong finds
#                    and zero missed finds, the precision/recall headline
#
# Run from the repository root: ./scripts/ci.sh
set -eux

go vet ./...
test -z "$(gofmt -l .)"
go build ./...
for app in mfem laghos lulesh; do
	for op in Add Sub Mul Div MulAdd; do
		go build -gcflags="repro/internal/apps/$app=-m" ./internal/apps/$app 2>&1 |
			grep -q "inlining call to fp\.(\*Env)\.$op\$"
	done
done

go test -race -cover ./...
go test -run '^$' -bench 'Benchmark(MachineFn|PlanKey|LinkMix)$' -benchtime 100x ./internal/link
go test -run '^$' -bench BenchmarkEnvOps -benchtime 100x ./internal/fp
go test -run '^$' -bench BenchmarkAssembleDiffusion2D -benchtime 100x ./internal/apps/mfem
go test -run '^$' -bench BenchmarkMatrixCosts -benchtime 100x ./internal/flit
go test -run '^$' -bench 'BenchmarkDisk(Put|Get)$' -benchtime 100x ./internal/store
go test -run '^$' -bench BenchmarkCoordHeartbeat -benchtime 100x ./internal/coord
go test -run '^$' -bench BenchmarkSpeculativeSearcher -benchtime 10x ./internal/bisect
go test -run '^$' -fuzz '^FuzzJournalDecode$' -fuzztime 2000x ./internal/coord
go test -run '^$' -fuzz '^FuzzRemoteDecode$' -fuzztime 2000x ./internal/store
go test -run '^$' -fuzz '^FuzzRecordDecodeMatchesJSON$' -fuzztime 2000x ./internal/flit
go test -run '^$' -fuzz '^FuzzSegmentDecode$' -fuzztime 2000x ./internal/store
go test -run '^$' -fuzz '^FuzzArtifactDecode$' -fuzztime 2000x ./internal/flit
go test -run '^$' -fuzz '^FuzzRunKeyInjective$' -fuzztime 2000x ./internal/flit
go test -run '^$' -fuzz '^FuzzPlanKeyInjective$' -fuzztime 2000x ./internal/link
go test -run '^$' -fuzz '^FuzzPlanKeyMatchesReference$' -fuzztime 2000x ./internal/link
go test -run '^$' -fuzz '^FuzzShardSetFold$' -fuzztime 2000x ./internal/flit
go test -run '^$' -fuzz '^FuzzKernelsMatchReference$' -fuzztime 2000x ./internal/fp
(cd bench && go vet . && go test -race .)

SHARD_TMP=$(mktemp -d)
trap 'rm -rf "$SHARD_TMP"' EXIT

# Shard-equivalence smoke: two shards + merge == unsharded, byte for byte.
go build -o "$SHARD_TMP/quickstart" ./examples/quickstart
"$SHARD_TMP/quickstart" >"$SHARD_TMP/unsharded.txt"
"$SHARD_TMP/quickstart" -shard 0/2 -shard-out "$SHARD_TMP/s0.json"
"$SHARD_TMP/quickstart" -shard 1/2 -shard-out "$SHARD_TMP/s1.json"
"$SHARD_TMP/quickstart" -merge "$SHARD_TMP/s0.json,$SHARD_TMP/s1.json" >"$SHARD_TMP/merged.txt"
diff "$SHARD_TMP/unsharded.txt" "$SHARD_TMP/merged.txt"

# Incremental-campaign smoke. Generation 1 of the quickstart campaign,
# then a re-run with one mutated compiler flag (-unroll moves the plain
# g++ -O3 row): the warm-started run must report exactly one new and one
# dropped cell — the mutated compilation — and name the flag in the
# report. A same-command second generation must diff empty offline via
# `flit delta`, and `flit gc` must prune only the superseded generation —
# never a file the -warm-start manifest still references.
go build -o "$SHARD_TMP/flit" ./cmd/flit
ART_DIR="$SHARD_TMP/campaign"
mkdir -p "$ART_DIR"
"$SHARD_TMP/quickstart" -shard 0/1 -shard-out "$ART_DIR/gen1.json"
"$SHARD_TMP/quickstart" -unroll -warm-start "$ART_DIR/gen1.json" \
	-delta-out "$SHARD_TMP/delta.json" >"$SHARD_TMP/delta.txt"
grep 'delta: new=1 dropped=1 changed=0' "$SHARD_TMP/delta.txt"
grep funroll-loops "$SHARD_TMP/delta.json" >/dev/null
"$SHARD_TMP/quickstart" -shard 0/1 -shard-out "$ART_DIR/gen2.json"
"$SHARD_TMP/flit" delta -baseline "$ART_DIR/gen1.json" "$ART_DIR/gen2.json" \
	>"$SHARD_TMP/delta-same.txt"
grep 'delta: new=0 dropped=0 changed=0' "$SHARD_TMP/delta-same.txt"
"$SHARD_TMP/flit" gc -dir "$ART_DIR" -keep 1 -dry-run -warm-start "$ART_DIR/gen1.json" \
	| grep "protected $ART_DIR/gen1.json"
test -f "$ART_DIR/gen1.json"
"$SHARD_TMP/flit" gc -dir "$ART_DIR" -keep 1 | grep "pruned $ART_DIR/gen1.json"
test ! -f "$ART_DIR/gen1.json"
test -f "$ART_DIR/gen2.json"

# Speculative-bisect smoke: j1 vs j8 through a real binary, byte for byte.
go build -o "$SHARD_TMP/laghos-bisect" ./examples/laghos-bisect
"$SHARD_TMP/laghos-bisect" -j 1 >"$SHARD_TMP/laghos-j1.txt"
"$SHARD_TMP/laghos-bisect" -j 8 >"$SHARD_TMP/laghos-j8.txt"
diff "$SHARD_TMP/laghos-j1.txt" "$SHARD_TMP/laghos-j8.txt"

# Persistent-store smoke: two processes sharing only a -store directory.
# The second run must reproduce the first byte for byte without building a
# single executable — no artifact export, no -warm-start manifest — and the
# store subcommands must see and compact the persisted entries: after
# `store gc -max-entries 1` exactly one intact entry is left, and a third
# run over the compacted store recomputes the rest and still reproduces the
# cold output byte for byte.
STORE_DIR="$SHARD_TMP/runstore"
"$SHARD_TMP/flit" experiments -j 2 -store "$STORE_DIR" -stats table4 \
	>"$SHARD_TMP/store-cold.txt" 2>"$SHARD_TMP/store-cold-stats.txt"
"$SHARD_TMP/flit" experiments -j 2 -store "$STORE_DIR" -stats table4 \
	>"$SHARD_TMP/store-warm.txt" 2>"$SHARD_TMP/store-warm-stats.txt"
diff "$SHARD_TMP/store-cold.txt" "$SHARD_TMP/store-warm.txt"
grep 'executions: ran=[0-9]* shared=[1-9]' "$SHARD_TMP/store-cold-stats.txt"
grep 'builds: materialized=0' "$SHARD_TMP/store-warm-stats.txt"
grep 'executions: ran=0 ' "$SHARD_TMP/store-warm-stats.txt"
grep 'store: hits=[1-9]' "$SHARD_TMP/store-warm-stats.txt"
"$SHARD_TMP/flit" store stats -store "$STORE_DIR" | grep 'corrupt=0'
"$SHARD_TMP/flit" store gc -store "$STORE_DIR" -max-entries 1 | grep 'kept=1'
"$SHARD_TMP/flit" store stats -store "$STORE_DIR" >"$SHARD_TMP/store-gc-stats.txt"
grep 'entries=1 ' "$SHARD_TMP/store-gc-stats.txt"
grep 'corrupt=0' "$SHARD_TMP/store-gc-stats.txt"
"$SHARD_TMP/flit" experiments -j 2 -store "$STORE_DIR" table4 >"$SHARD_TMP/store-third.txt"
diff "$SHARD_TMP/store-cold.txt" "$SHARD_TMP/store-third.txt"

# Remote-store smoke: `flit store serve` on a loopback port, then two runs
# sharing nothing but the URL — no -store directory, no artifact, no
# manifest. The second must reproduce the first byte for byte with zero
# materialized builds, every hit arriving over the wire. The announced URL
# is read off the server's first stdout line (-addr :0 picks a free port).
REMOTE_DIR="$SHARD_TMP/remotestore"
"$SHARD_TMP/flit" store serve -dir "$REMOTE_DIR" -addr 127.0.0.1:0 \
	>"$SHARD_TMP/serve.txt" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SHARD_TMP"' EXIT
REMOTE_URL=""
for _ in $(seq 1 100); do
	REMOTE_URL=$(sed -n 's|.*on \(http://.*\)|\1|p' "$SHARD_TMP/serve.txt")
	if [ -n "$REMOTE_URL" ]; then break; fi
	sleep 0.1
done
test -n "$REMOTE_URL"
"$SHARD_TMP/flit" experiments -j 2 -remote "$REMOTE_URL" -stats table4 \
	>"$SHARD_TMP/remote-cold.txt" 2>"$SHARD_TMP/remote-cold-stats.txt"
"$SHARD_TMP/flit" experiments -j 2 -remote "$REMOTE_URL" -stats table4 \
	>"$SHARD_TMP/remote-warm.txt" 2>"$SHARD_TMP/remote-warm-stats.txt"
diff "$SHARD_TMP/remote-cold.txt" "$SHARD_TMP/remote-warm.txt"
grep 'builds: materialized=0' "$SHARD_TMP/remote-warm-stats.txt"
grep 'remote: hits=[1-9]' "$SHARD_TMP/remote-warm-stats.txt"
# Graceful shutdown: SIGTERM must drain and exit 0, not die mid-response.
kill "$SERVE_PID"
wait "$SERVE_PID"
grep 'shutting down' "$SHARD_TMP/serve.txt"

# Multi-tenant campaign-coordinator smoke: the full distributed protocol
# through real binaries, including a worker crash, a second campaign
# sharing the coordinator, and a third campaign with a deterministically
# poisoned shard. `flit coord serve` owns a 2-shard table4 campaign;
# worker A leases its shards and stalls forever (FLIT_WORK_STALL) while
# heartbeating, holding table4 open. While it stalls, `flit coord
# status` polls the fleet (a pure read: it must not release anything)
# and `flit coord submit` adds a healthy 2-shard table3 campaign plus a
# 2-shard table2 campaign whose shard 1 is poisoned (FLIT_WORK_FAIL)
# under an attempt budget of 2. Worker B fails the poisoned shard on
# both budgeted attempts — the coordinator quarantines it and declares
# table2 terminally FAILED while table4 is still held, so the status
# views render the quarantine live. Only then is worker A SIGKILLed —
# the crash the lease protocol exists for — and worker B re-leases and
# drains the healthy campaigns. The coordinator exits NON-zero
# (-exit-when-done) naming the quarantined shard, table3 finishes with
# zero re-leases (cross-campaign isolation), both healthy campaigns'
# merged artifact sets are byte-identical to their unsharded runs, and
# merging the failed campaign's partial artifact set must fail naming
# exactly the missing shard.
COORD_DIR="$SHARD_TMP/campaign-coord"
"$SHARD_TMP/flit" coord serve -dir "$COORD_DIR" -addr 127.0.0.1:0 \
	-shards 2 -lease-ttl 2s -exit-when-done experiments table4 \
	>"$SHARD_TMP/coord.txt" 2>&1 &
COORD_PID=$!
trap 'kill "$COORD_PID" 2>/dev/null || true; rm -rf "$SHARD_TMP"' EXIT
COORD_URL=""
for _ in $(seq 1 100); do
	COORD_URL=$(sed -n 's|.*on \(http://.*\)|\1|p' "$SHARD_TMP/coord.txt")
	if [ -n "$COORD_URL" ]; then break; fi
	sleep 0.1
done
test -n "$COORD_URL"
CAMPAIGN4=$(sed -n 's/^campaign \(c[0-9a-f]*\): submitted "experiments table4".*/\1/p' "$SHARD_TMP/coord.txt")
test -n "$CAMPAIGN4"
FLIT_WORK_STALL=60s "$SHARD_TMP/flit" work -coord "$COORD_URL" -j 2 -v \
	-name straggler >"$SHARD_TMP/workA.txt" 2>&1 &
WORKA_PID=$!
for _ in $(seq 1 100); do
	if grep -q 'leased shard' "$SHARD_TMP/workA.txt"; then break; fi
	sleep 0.1
done
grep 'leased shard' "$SHARD_TMP/workA.txt"
# Status is a pure read: polling it mid-stall must not touch the live
# leases (their revival is the heartbeat path's job, reclaim is Lease's).
"$SHARD_TMP/flit" coord status -coord "$COORD_URL" >"$SHARD_TMP/coord-fleet.txt"
grep "campaign $CAMPAIGN4: \"experiments table4\"" "$SHARD_TMP/coord-fleet.txt"
"$SHARD_TMP/flit" coord status -coord "$COORD_URL" -campaign "$CAMPAIGN4" \
	>"$SHARD_TMP/coord-detail.txt"
grep 'leased to straggler' "$SHARD_TMP/coord-detail.txt"
CAMPAIGN3=$("$SHARD_TMP/flit" coord submit -coord "$COORD_URL" \
	-shards 2 experiments table3 | sed -n 's/^campaign \(c[0-9a-f]*\):.*/\1/p')
test -n "$CAMPAIGN3"
CAMPAIGN2=$("$SHARD_TMP/flit" coord submit -coord "$COORD_URL" \
	-shards 2 -max-shard-attempts 2 experiments table2 \
	| sed -n 's/^campaign \(c[0-9a-f]*\):.*/\1/p')
test -n "$CAMPAIGN2"
FLIT_WORK_FAIL=table2:1 "$SHARD_TMP/flit" work -coord "$COORD_URL" -j 2 -v \
	-stats -name finisher >"$SHARD_TMP/workB.txt" 2>"$SHARD_TMP/workB-stats.txt" &
WORKB_PID=$!
# Worker A still holds table4, so the tenancy cannot reach all-terminal:
# the quarantine of table2 shard 1 stays observable through the status
# views for as long as the poll needs.
QUARANTINED=""
for _ in $(seq 1 300); do
	"$SHARD_TMP/flit" coord status -coord "$COORD_URL" >"$SHARD_TMP/coord-fail-fleet.txt"
	if grep -q 'quarantined' "$SHARD_TMP/coord-fail-fleet.txt"; then
		QUARANTINED=yes
		break
	fi
	sleep 0.1
done
test -n "$QUARANTINED"
grep "campaign $CAMPAIGN2: .*1 quarantined.*FAILED:" "$SHARD_TMP/coord-fail-fleet.txt"
grep 'shards \[1\] quarantined after exhausting their attempt budget' "$SHARD_TMP/coord-fail-fleet.txt"
"$SHARD_TMP/flit" coord status -coord "$COORD_URL" -campaign "$CAMPAIGN2" \
	>"$SHARD_TMP/coord-fail-detail.txt"
grep 'attempt budget 2' "$SHARD_TMP/coord-fail-detail.txt"
grep 'shard 1: QUARANTINED after 2 attempts' "$SHARD_TMP/coord-fail-detail.txt"
grep 'FLIT_WORK_FAIL: injected deterministic failure' "$SHARD_TMP/coord-fail-detail.txt"
# Now the crash the lease protocol exists for: SIGKILL the straggler so
# its table4 leases expire and worker B re-leases and drains them.
kill -9 "$WORKA_PID"
wait "$WORKB_PID"
grep 'campaigns terminal (5 shards completed here, 0 lost to re-lease, 2 failed)' "$SHARD_TMP/workB.txt"
grep 'quarantined (attempt budget exhausted)' "$SHARD_TMP/workB-stats.txt"
grep 'coord: completed=5 lost=0 failed=2' "$SHARD_TMP/workB-stats.txt"
# A terminally failed campaign makes the coordinator's own exit non-zero.
COORD_EXIT=0
wait "$COORD_PID" || COORD_EXIT=$?
test "$COORD_EXIT" -ne 0
grep "campaign $CAMPAIGN4: 2/2 shards complete, [1-9][0-9]* re-leases" "$SHARD_TMP/coord.txt"
grep "campaign $CAMPAIGN3: 2/2 shards complete, 0 re-leases" "$SHARD_TMP/coord.txt"
grep "campaign $CAMPAIGN2: FAILED" "$SHARD_TMP/coord.txt"
grep 'failed terminally' "$SHARD_TMP/coord.txt"
test "$(grep -c 'artifact set validated' "$SHARD_TMP/coord.txt")" -eq 2
"$SHARD_TMP/flit" experiments -j 2 table4 >"$SHARD_TMP/coord-unsharded.txt"
"$SHARD_TMP/flit" merge -j 2 "$COORD_DIR/artifacts/$CAMPAIGN4"/shard-*.json \
	>"$SHARD_TMP/coord-merged.txt"
diff "$SHARD_TMP/coord-unsharded.txt" "$SHARD_TMP/coord-merged.txt"
"$SHARD_TMP/flit" experiments -j 2 table3 >"$SHARD_TMP/coord-unsharded3.txt"
"$SHARD_TMP/flit" merge -j 2 "$COORD_DIR/artifacts/$CAMPAIGN3"/shard-*.json \
	>"$SHARD_TMP/coord-merged3.txt"
diff "$SHARD_TMP/coord-unsharded3.txt" "$SHARD_TMP/coord-merged3.txt"
# The failed campaign's surviving partial artifact set refuses to merge,
# naming the quarantined shard exactly.
FAILMERGE=0
"$SHARD_TMP/flit" merge "$COORD_DIR/artifacts/$CAMPAIGN2"/shard-*.json \
	>/dev/null 2>"$SHARD_TMP/coord-fail-merge.txt" || FAILMERGE=$?
test "$FAILMERGE" -ne 0
grep 'missing shard indices \[1\]' "$SHARD_TMP/coord-fail-merge.txt"

# Bit-exactness across instruction sets: a GOAMD64=v3 build may contract
# x*y+z into one FMA wherever the fp simulation or the cost model leaves a
# product unconverted. Its table1 artifact must equal the default build's
# byte for byte, and its matrix runtimes and result bits the pinned digests.
GOAMD64=v3 go build -o "$SHARD_TMP/flit-v3" ./cmd/flit
"$SHARD_TMP/flit" experiments -j 1 -shard 0/1 -shard-out "$SHARD_TMP/isa-default.json" table1
"$SHARD_TMP/flit-v3" experiments -j 1 -shard 0/1 -shard-out "$SHARD_TMP/isa-v3.json" table1
"$SHARD_TMP/flit" delta -baseline "$SHARD_TMP/isa-default.json" "$SHARD_TMP/isa-v3.json" \
	| grep 'delta: new=0 dropped=0 changed=0'
cmp "$SHARD_TMP/isa-default.json" "$SHARD_TMP/isa-v3.json"
GOAMD64=v3 go test -count=1 \
	-run '^(TestMatrixCostsMatchFullBuilds|TestSweepRunBitsPinned|TestOpsBitsPinned|TestKernelBitsPinned)$' \
	./internal/fp ./internal/apps/mfem ./internal/experiments ./examples/quickstart

# The paper's Table 5 headline: the full 1,094-site x 4-OP' injection
# campaign, every injection found — no wrong finds, no missed finds.
"$SHARD_TMP/flit" experiments -j 2 table5 >"$SHARD_TMP/table5.txt"
cat "$SHARD_TMP/table5.txt"
grep -E '^total +4376$' "$SHARD_TMP/table5.txt"
grep -E '^wrong finds +0$' "$SHARD_TMP/table5.txt"
grep -E '^missed finds +0$' "$SHARD_TMP/table5.txt"
