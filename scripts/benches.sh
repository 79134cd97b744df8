# Sourced by tier1.sh, perfgate.sh and report.sh: the bench list is the
# set of targets in crates/bench/benches/, never a copy in a script.
#
#   run_benches [--skip NAME] [ARGS...]
#       run every bench but NAME (ARGS go after `--`, e.g. --test for
#       smoke mode); fail if a bench exits non-zero or writes no
#       BENCH_*.json artifact (at the repo root or under target/artifacts/)
run_benches() {
    local marker src bench skip=""
    if [[ "${1:-}" == --skip ]]; then
        skip=$2
        shift 2
    fi
    marker=$(mktemp)
    for src in crates/bench/benches/*.rs; do
        bench=$(basename "$src" .rs)
        if [[ "$bench" == "$skip" ]]; then
            continue
        fi
        touch "$marker"
        echo "==> cargo bench --bench $bench -- $*"
        cargo bench $CARGO_FLAGS -p cables-bench --bench "$bench" -- "$@"
        if [[ -z $(find . target/artifacts -maxdepth 1 -name 'BENCH_*.json' -newer "$marker" 2>/dev/null) ]]; then
            echo "benches: $bench wrote no BENCH_*.json artifact" >&2
            rm -f "$marker"
            return 1
        fi
    done
    rm -f "$marker"
}
