#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green (see ROADMAP.md).
#
#   release build + the full test suite of every workspace crate, run
#   once per engine backend: the sequential OS-thread oracle and the
#   green-thread parallel backend with its determinism audits
#   (CABLES_ENGINE_MODE=parallel_det). The two runs must both pass — the
#   suite itself asserts the backends produce bit-identical results.
#
# Pass --smoke to additionally compile-and-run every bench target in its
# `--test` smoke mode (tiny sizes, same code paths and determinism
# assertions) — what the CI workflow runs.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}

echo "==> cargo build --release"
cargo build $CARGO_FLAGS --release

echo "==> cargo test --workspace (engine: sequential oracle)"
CABLES_ENGINE_MODE=sequential cargo test $CARGO_FLAGS --workspace -q

echo "==> cargo test --workspace (engine: parallel_det, audited green threads)"
CABLES_ENGINE_MODE=parallel_det cargo test $CARGO_FLAGS --workspace -q

if [[ "${1:-}" == "--smoke" ]]; then
    # Every bench target in its smoke mode; each must write a BENCH_*.json
    # (the full-size-only ones land under target/artifacts/). Stale
    # exports are dropped first so a bench that stopped writing cannot
    # pass on a leftover file.
    rm -rf target/artifacts
    source scripts/benches.sh
    run_benches --test
    # (The protocol_opt smoke run itself enforces the protocol-traffic
    # ceilings: all-on must beat all-off on message counts and stay
    # under the smoke-size ceilings, or the bench panics.)
    # Every JSON artifact must parse against the repo's own JSON grammar
    # (obs::json, via cablestat) — the same parser the diff gate relies
    # on. The NDJSON metric streams are held to the stream grammar too,
    # including the frames-fold-to-final-snapshot exactness check.
    echo "==> cablestat check BENCH_*.json target/artifacts/*.json target/artifacts/*.ndjson"
    ./target/release/cablestat check BENCH_*.json target/artifacts/*.json target/artifacts/*.ndjson
    # The stream tooling itself: `series` must fold + verify each stream
    # (exit 1 on divergence), `tail` must render a completed stream.
    echo "==> cablestat series / tail smoke"
    for s in target/artifacts/stream_*.ndjson; do
        ./target/release/cablestat series "$s" --json > /dev/null
        ./target/release/cablestat tail "$s" > /dev/null
    done
    # The same artifacts must also be machine-readable by an independent
    # parser: python is the neutral referee, and a missing referee is a
    # failure, not a skip.
    if ! command -v python3 >/dev/null 2>&1; then
        echo "tier1: python3 is required to referee the JSON artifacts" >&2
        exit 1
    fi
    for f in BENCH_*.json target/artifacts/*.json; do
        echo "==> python3 -m json.tool $f"
        python3 -m json.tool "$f" > /dev/null
    done
    # The repository benchmark is a workspace of its own that reads the
    # crates' public stats API: build it against its committed lock file
    # (a stale perfbench/Cargo.lock fails here) and run one short RADIX
    # measurement, whose JSON line must report a correct result.
    echo "==> perfbench smoke (radix, seed 1, 1 s)"
    cargo build $CARGO_FLAGS --locked --release --manifest-path perfbench/Cargo.toml
    perfbench_out=$(cargo run $CARGO_FLAGS --locked --release --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload radix --seed 1 --seconds 1 --trace 0)
    printf '%s\n' "$perfbench_out" | grep '^{' | tail -n 1 | python3 -c '
import json, sys
line = json.loads(sys.stdin.read())
sys.exit(0 if line.get("correct") is True else "tier1: perfbench radix smoke is not correct")'
    # Causal edges must survive export: the trace carries Perfetto flow
    # events (ph "s"/"f" pairs) linking cause to effect across lanes.
    echo "==> check flow events in target/artifacts/trace_fft.json"
    grep -q '"ph":"s"' target/artifacts/trace_fft.json
    grep -q '"ph":"f"' target/artifacts/trace_fft.json
    # Performance gate: the smoke artifacts the loop above just produced
    # are compared against the committed baselines/, after the gate
    # proves it trips on an injected regression.
    ./scripts/perfgate.sh --no-regen --selftest
fi

echo "tier1: OK"
