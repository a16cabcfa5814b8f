#!/usr/bin/env bash
# CI gate: tier-1 build + tests, the perfbench benchmark's self-test so
# the benchmark cannot bit-rot, the cross-thread-count determinism suite
# under both pool configurations, a `lgg-sim sweep --smoke` whose
# internal serial-vs-parallel digest check fails on any divergence, the
# trace/chaos/guard/resume smoke legs, and last the `lgg-sim bench`
# disabled-observer regression gate.
# (Bench/sweep results go to temp files and are discarded; the checked-in
# BENCH_throughput.json is refreshed manually.)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# Determinism across thread counts: the same suite must pass with the
# pool pinned to one worker and fanned across several. The test compares
# 1-thread and 4-thread output internally; running it under both env
# settings also exercises the LGG_THREADS resolution path end to end.
LGG_THREADS=1 cargo test -q --test determinism
LGG_THREADS=4 cargo test -q --test determinism

# The benchmark (`perfbench/`, its own workspace) builds and passes its
# self-test: every workload reproduces its recorded digests.
cargo test --release --manifest-path perfbench/Cargo.toml

# Sweep smoke: runs the scenario x seed x rate x engine grid serially and
# in parallel and exits nonzero if the two result digests differ.
cargo run --release -p lgg-cli -- sweep --smoke --out "$(mktemp)"

# Trace smoke: captures the built-in scenario's JSONL event stream twice
# and fails unless the two captures are byte-identical; the golden-trace
# test additionally pins the stream against tests/golden/trace_small.jsonl.
cargo run --release -p lgg-cli -- trace --smoke
cargo test -q --test golden_trace

# Chaos smoke: a small guarded adversarial campaign, run at both pool
# widths; every trial is invariant-checked and the campaign digest must
# be identical regardless of thread count (the chaos analogue of the
# sweep determinism gate). A clean engine exits 0 with zero violations.
CHAOS_1="$(LGG_THREADS=1 cargo run --release -p lgg-cli -- chaos --smoke \
    --out "$(mktemp -d)" 2>/dev/null | head -1)"
CHAOS_4="$(LGG_THREADS=4 cargo run --release -p lgg-cli -- chaos --smoke \
    --out "$(mktemp -d)" 2>/dev/null | head -1)"
echo "$CHAOS_1"
[ "$CHAOS_1" = "$CHAOS_4" ] || {
    echo "ci: chaos campaign diverged across LGG_THREADS: '$CHAOS_1' vs '$CHAOS_4'" >&2
    exit 1
}

# Reproducer replay: the checked-in shrunk reproducer (a planted
# conservation fault) must still re-trigger its recorded violation at the
# recorded step — replay exits with the invariant-violation code 9.
cargo run --release -p lgg-cli -- chaos \
    --replay results/chaos/repro_conservation_fault.json && {
    echo "ci: chaos replay: expected exit 9 (violation reproduced)" >&2
    exit 1
} || [ $? -eq 9 ] || {
    echo "ci: chaos replay: expected exit 9, got $?" >&2
    exit 1
}

# Guard abort path end to end: a guarded run hitting an injected
# conservation bug must abort with exit code 9 and dump a replayable
# reproducer + checkpoint.
GUARD_DUMP="$(mktemp -d)"
cargo run --release -p lgg-cli -- run scenarios/saturated_dumbbell.json \
    --guard --guard-dump "$GUARD_DUMP" --inject-fault 120 --steps 500 && {
    echo "ci: guard: expected exit 9 on the injected fault" >&2
    exit 1
} || [ $? -eq 9 ] || {
    echo "ci: guard: expected exit 9, got $?" >&2
    exit 1
}
[ -f "$GUARD_DUMP/repro_conservation_t0.json" ] || {
    echo "ci: guard: missing dumped reproducer" >&2
    exit 1
}
rm -rf "$GUARD_DUMP"

# Kill-and-resume smoke: run the smoke scenario uninterrupted, then run it
# again but abort() the process hard mid-run (--kill-after skips all
# flushes and destructors), resume from the surviving snapshot, and
# require the two trace artifacts to be byte-identical. Repeated at both
# pool widths: a snapshot written under one LGG_THREADS must replay the
# same bytes under any other.
SMOKE_SCENARIO="$(mktemp -d)/smoke.json"
cargo run --release -p lgg-cli -- --template | sed 's/"steps": 50000/"steps": 2000/' \
    > "$SMOKE_SCENARIO"
for threads in 1 4; do
    WORK="$(mktemp -d)"
    LGG_THREADS=$threads cargo run --release -p lgg-cli -- run "$SMOKE_SCENARIO" \
        --trace "$WORK/full.jsonl"
    # The killed leg exits via abort (SIGABRT, status 134) by design.
    LGG_THREADS=$threads cargo run --release -p lgg-cli -- run "$SMOKE_SCENARIO" \
        --checkpoint-every 300 --checkpoint-dir "$WORK/ckpts" \
        --trace "$WORK/resumed.jsonl" --kill-after 1000 && {
        echo "ci: kill-and-resume: expected the killed leg to abort" >&2
        exit 1
    } || true
    LGG_THREADS=$threads cargo run --release -p lgg-cli -- run "$SMOKE_SCENARIO" \
        --checkpoint-every 300 --checkpoint-dir "$WORK/ckpts" --resume \
        --trace "$WORK/resumed.jsonl"
    cmp "$WORK/full.jsonl" "$WORK/resumed.jsonl" || {
        echo "ci: kill-and-resume: trace diverged at LGG_THREADS=$threads" >&2
        exit 1
    }
    rm -rf "$WORK"
done
rm -rf "$(dirname "$SMOKE_SCENARIO")"

# Observer/guard overhead legs, gated against the checked-in baseline:
# the run fails if the disabled-observer engine drops >2% below the
# recorded numbers. Last, because the baseline was recorded on a faster
# host: a slower host fails this gate, and under `set -e` it must not
# keep the legs above from running.
cargo run --release -p lgg-cli -- bench --out "$(mktemp)" \
    --baseline BENCH_throughput.json

echo "ci: OK"
