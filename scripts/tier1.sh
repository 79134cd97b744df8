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
    for bench in table3 table4 table5 table6 fig5 fig6 ablations engine_wall obs_report critpath chaos_soak protocol_opt service_bench placement; do
        echo "==> cargo bench --bench $bench -- --test"
        cargo bench $CARGO_FLAGS -p cables-bench --bench "$bench" -- --test
    done
    # (The protocol_opt smoke run itself enforces the protocol-traffic
    # ceilings: all-on must beat all-off on message counts and stay
    # under the smoke-size ceilings, or the bench panics.)
    # Every BENCH artifact must parse against the repo's own JSON
    # grammar (obs::json, via cablestat) — the same validator the diff
    # gate relies on. The NDJSON metric streams the obs_report and
    # chaos_soak smokes just produced are held to the stream grammar too,
    # including the frames-fold-to-final-snapshot exactness check.
    echo "==> cablestat check BENCH_*.json + stream_*.ndjson"
    ./target/release/cablestat check BENCH_*.json target/artifacts/trace_fft.json
    ./target/release/cablestat check --dir target/artifacts \
        stream_FFT.ndjson stream_RADIX.ndjson stream_CHAOS_FFT.ndjson \
        stream_service.ndjson
    # The stream tooling itself: `series` must fold + verify each stream
    # (exit 1 on divergence), `tail` must render a completed stream.
    echo "==> cablestat series / tail smoke"
    ./target/release/cablestat series stream_FFT.ndjson > /dev/null
    ./target/release/cablestat series stream_CHAOS_FFT.ndjson --json > /dev/null
    ./target/release/cablestat series stream_service.ndjson > /dev/null
    ./target/release/cablestat tail stream_RADIX.ndjson > /dev/null
    ./target/release/cablestat tail stream_service.ndjson > /dev/null
    # The observability artifacts must also be machine-readable by an
    # independent parser (python is the neutral referee; skip quietly if
    # it is unavailable).
    if command -v python3 >/dev/null 2>&1; then
        for f in BENCH_obs_FFT.json BENCH_obs_RADIX.json BENCH_obs_stream.json BENCH_critpath.json BENCH_chaos.json BENCH_protocol.json BENCH_ablations.json BENCH_service.json BENCH_placement.json BENCH_table3.json BENCH_table4.json BENCH_table5.json target/artifacts/trace_fft.json; do
            echo "==> validate $f"
            python3 -m json.tool "$f" > /dev/null
        done
    fi
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
