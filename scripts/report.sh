#!/usr/bin/env bash
# Regenerate every quantitative artifact at full size:
#
#   BENCH_obs_FFT.json    layer breakdown + metric snapshot, FFT m=12
#   BENCH_obs_RADIX.json  layer breakdown + metric snapshot, RADIX 64K keys
#   BENCH_critpath.json   critical-path profile + blame table, both kernels
#   BENCH_chaos.json      fault-injection ladder: completion, retries and
#                         recovery latencies per escalating fault level
#   BENCH_protocol.json   protocol-traffic ablation: batched diffs x
#                         stride prefetch, full 2x2 grid at 16 nodes
#                         with per-point message counts
#                         and the critical-path blame of both corners
#   BENCH_table3.json     paper Table 3: basic VMMC costs
#   BENCH_table4.json     paper Table 4: CableS basic-event costs
#   BENCH_table5.json     paper Table 5: pthreads/OpenMP API usage + op times
#   BENCH_table6.json     paper Table 6: OpenMP SPLASH-2 speedups
#   BENCH_fig5.json       paper Fig. 5: M4 vs M4-on-pthreads exec times
#   BENCH_fig6.json       paper Fig. 6: misplaced-page percentages
#   BENCH_ablations.json  design-space ablations: sharing granularity,
#                         write-through, NIC pressure, barrier builds,
#                         home migration
#   BENCH_service.json    sharded KV service under generated traffic:
#                         throughput + p50/p95/p99 per arrival pattern x
#                         node count, replay identity, chaos crash cell
#                         with windowed recovery (stream_service.ndjson
#                         is its live metric series)
#   BENCH_placement.json  sharing-aware placement policy: off/on message
#                         and time deltas for OCEAN, RADIX and the
#                         zipfian service (bit-identical results), plus
#                         the migration x prefetch interaction grid
#   target/artifacts/trace_fft.json
#                         Chrome-trace timeline of the FFT run on 8 nodes
#                         (load in chrome://tracing or ui.perfetto.dev;
#                         causal edges render as Perfetto flow arrows)
#   target/artifacts/stall_{FFT,RADIX}.collapsed
#                         collapsed-stack stall exports for flamegraphs
#   BENCH_obs_stream.json + target/artifacts/stream_*.ndjson
#                         live NDJSON metric streams captured during the
#                         obs and chaos runs, plus their fold summary
#                         (replay with `cablestat tail` / `series`)
#
# The obs/protocol runs execute each kernel twice (bus off, then on) and
# assert the simulated result is bit-identical, so a successful exit also
# re-proves the observability layer is free. The script fails (non-zero
# exit) if any expected artifact is missing or empty afterwards — a bench
# that silently stopped emitting is a broken report, not a quiet success.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS:---offline}

# The full-size grids are what the green-thread parallel engine backend
# exists for: every run is bit-identical to the sequential oracle (the
# test suite enforces it), so the report uses the fast backend by
# default. Override with CABLES_ENGINE_MODE=sequential to cross-check.
export CABLES_ENGINE_MODE=${CABLES_ENGINE_MODE:-parallel}

ARTIFACTS=(BENCH_obs_FFT.json BENCH_obs_RADIX.json BENCH_obs_stream.json
           BENCH_chaos.json BENCH_protocol.json BENCH_critpath.json
           BENCH_table3.json BENCH_table4.json BENCH_table5.json
           BENCH_table6.json BENCH_fig5.json BENCH_fig6.json
           BENCH_ablations.json BENCH_service.json BENCH_placement.json
           target/artifacts/trace_fft.json
           target/artifacts/stream_FFT.ndjson
           target/artifacts/stream_RADIX.ndjson
           target/artifacts/stream_CHAOS_FFT.ndjson
           target/artifacts/stream_service.ndjson)

# Drop stale copies first so a bench that no longer writes its artifact
# cannot pass the check below on a leftover file.
rm -f "${ARTIFACTS[@]}"

cargo bench $CARGO_FLAGS -p cables-bench --bench obs_report
cargo bench $CARGO_FLAGS -p cables-bench --bench critpath
cargo bench $CARGO_FLAGS -p cables-bench --bench chaos_soak
cargo bench $CARGO_FLAGS -p cables-bench --bench protocol_opt
cargo bench $CARGO_FLAGS -p cables-bench --bench table3
cargo bench $CARGO_FLAGS -p cables-bench --bench table4
cargo bench $CARGO_FLAGS -p cables-bench --bench table5
cargo bench $CARGO_FLAGS -p cables-bench --bench table6
cargo bench $CARGO_FLAGS -p cables-bench --bench fig5
cargo bench $CARGO_FLAGS -p cables-bench --bench fig6
cargo bench $CARGO_FLAGS -p cables-bench --bench ablations
cargo bench $CARGO_FLAGS -p cables-bench --bench service_bench
cargo bench $CARGO_FLAGS -p cables-bench --bench placement

status=0
for f in "${ARTIFACTS[@]}"; do
    if [[ ! -s "$f" ]]; then
        echo "report: missing or empty artifact: $f" >&2
        status=1
    fi
done

# Cross-PR summary: one table over every BENCH_*.json in the repo root
# (including artifacts produced by earlier PRs' benches, e.g.
# BENCH_hotpath.json), so one `scripts/report.sh` run ends with the
# repo's whole quantitative story in ~a screenful.
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'PYEOF'
import glob, json

def ms(ns):
    return f"{ns / 1e6:.2f} ms"

print()
print("=" * 72)
print("cross-PR artifact summary")
print("=" * 72)
print(f"{'artifact':<24} {'subject':<16} headline")
print("-" * 72)
for path in sorted(glob.glob("BENCH_*.json")):
    d = json.load(open(path))
    name = path[len("BENCH_"):-len(".json")]
    rows = []
    if "layers_ns" in d:  # obs_report: per-kernel layer breakdown
        rows.append((d["kernel"], f"sim {ms(d['sim_time_ns'])}, "
                     f"{d['events_recorded']} events"))
    elif name == "chaos":
        for k in d["kernels"]:
            rows.append((k["kernel"], f"clean {ms(k['clean_ns'])}, "
                         f"{len(k['levels'])} fault levels, "
                         f"completion {k['completion_rate']:.2f}"))
    elif name == "critpath":
        for k in d["kernels"]:
            rows.append((k["kernel"], f"sim {ms(k['sim_time_ns'])}, "
                         f"{k['causal_edges']} causal edges"))
    elif name == "hotpath":
        for w in d["workloads"]:
            par = (f", par {w['par_wall_ms']:.0f} ms ({w['par_speedup']:.2f}x)"
                   if "par_wall_ms" in w else "")
            rows.append((f"{w['kernel']}/{w['mode']}",
                         f"wall {w['slow_wall_ms']:.0f} -> "
                         f"{w['fast_wall_ms']:.0f} ms "
                         f"({w['speedup']:.2f}x){par}, "
                         f"TLB {w['tlb_hit_pct']:.1f}%"))
        for w in d.get("eight_node", []):
            rows.append((f"{w['kernel']}@8n",
                         f"parallel engine {w['seq_wall_ms']:.0f} -> "
                         f"{w['par_wall_ms']:.0f} ms ({w['speedup']:.2f}x, "
                         f"floor {w['floor']}x)"))
    elif name == "protocol":
        for k in d["kernels"]:
            g = {(p["batch_diffs"], p["prefetch"]): p for p in k["grid"]}
            off, on = g[(False, False)], g[(True, True)]
            rows.append((k["kernel"],
                         f"fetches {off['remote_fetches']} -> {on['remote_fetches']}, "
                         f"diffs {off['diffs_sent']} -> {on['diffs_sent']}, "
                         f"time {ms(off['sim_time_ns'])} -> {ms(on['sim_time_ns'])}"))
    elif name == "table3":
        g = {r["op"]: r for r in d["rows"]}
        send = g["1-word send (one-way lat)"]
        bw = g["maximum ping-pong bandwidth"]
        rows.append(("vmmc", f"{len(d['rows'])} ops; 1-word send "
                     f"{send['value'] / 1e3:.1f} us (paper {send['paper']}), "
                     f"bw {bw['value']:.0f} MB/s (paper {bw['paper']})"))
    elif name == "table4":
        g = {r["mechanism"]: r for r in d["rows"]}
        rows.append(("mechanisms", f"{len(d['rows'])} rows; attach "
                     f"{ms(g['attach node']['measured_ns'])}, GeNIMA barrier "
                     f"{g['GeNIMA barrier']['measured_ns'] / 1e3:.0f} us, remote lock "
                     f"{g['remote mutex lock']['measured_ns'] / 1e3:.0f} us"))
    elif name == "table5":
        for p in d["programs"]:
            c = p["calls"]
            lock = p["avg_ns"]["lock"]
            lock = f"{lock / 1e3:.1f} us" if lock is not None else "-"
            rows.append((p["program"], f"{c['create']} creates, {c['lock']} locks, "
                         f"{c['barrier']} barriers; avg lock {lock}"))
    elif name == "table6":
        for p in d["programs"]:
            ours = "/".join(f"{q['speedup']:.2f}" for q in p["points"])
            paper = "/".join(f"{q['paper_speedup']:.2f}" for q in p["points"])
            procs = "/".join(str(q["procs"]) for q in p["points"])
            rows.append((p["program"], f"speedup @{procs}p: {ours} (paper {paper})"))
    elif name == "fig5":
        for a in d["apps"]:
            top = max(r["procs"] for r in a["runs"])
            cell = {}
            for r in a["runs"]:
                if r["procs"] == top:
                    cell[r["mode"]] = "FAILED" if r["failed"] else ms(r["parallel_ns"])
            rows.append((a["app"], f"@{top}p base {cell.get('Base', '?')}, "
                         f"cables {cell.get('Cables', '?')}"))
    elif name == "ablations":
        for g in d["granularity"]:
            rows.append((g["kernel"],
                         f"node-track {ms(g['nt_parallel_ns'])} "
                         f"({g['nt_misplaced_pct']:.0f}% misplaced) vs "
                         f"page {ms(g['pg_parallel_ns'])} "
                         f"({g['pg_misplaced_pct']:.0f}%)"))
        mig = {m["mode"]: m for m in d["migration"]}
        off, on = mig["off"], mig["policy"]
        rows.append(("migration", f"diffs {off['diffs_sent']} -> "
                     f"{on['diffs_sent']}, time {ms(off['total_ns'])} -> "
                     f"{ms(on['total_ns'])}"))
        nic = {m["mode"]: m for m in d["nic_pressure"]}
        rows.append(("nic", f"max regions Base {nic['Base']['max_nic_regions']}"
                     f" -> Cables {nic['Cables']['max_nic_regions']}"))
    elif name == "fig6":
        for a in d["apps"]:
            pts = a["points"]
            rows.append((a["app"], f"misplaced {pts[0]['misplaced_pct']:.1f}% @"
                         f"{pts[0]['procs']}p -> {pts[-1]['misplaced_pct']:.1f}% @"
                         f"{pts[-1]['procs']}p"))
    elif name == "service":
        for c in d["cells"]:
            rows.append((f"{c['pattern']}/{c['driver']}@{c['nodes']}n",
                         f"{c['throughput_rps']:.0f} rps, p50 {ms(c['p50_ns'])}, "
                         f"p99 {ms(c['p99_ns'])}"))
        ch = d["chaos"]
        rows.append(("chaos", f"crash node {ch['crash_node']}, "
                     f"{ch['served']}+{ch['direct_served']} of {ch['requests']} "
                     f"answered, {ch['post_crash_window_completions']} post-crash"))
    elif name == "placement":
        for w in d["workloads"]:
            off, on = w["off"], w["on"]
            rows.append((w["workload"],
                         f"msgs {off['remote_fetches'] + off['diffs_sent']} -> "
                         f"{on['remote_fetches'] + on['diffs_sent']}, "
                         f"time {ms(off['sim_time_ns'])} -> {ms(on['sim_time_ns'])}"))
        g = {(p["migration"], p["prefetch"]): p
             for p in d["migration_prefetch_grid"]}
        rows.append(("mig x prefetch",
                     f"migrations {g[(True, False)]['migrations']} alone, "
                     f"{g[(True, True)]['migrations']} with prefetch "
                     f"({g[(True, True)]['prefetch_issued']} issued)"))
    else:  # future artifacts: stay visible even before a custom row
        rows.append(("-", f"keys: {', '.join(list(d)[:6])}"))
    for subject, headline in rows:
        print(f"{name:<24} {subject:<16} {headline}")
        name = ""
print("=" * 72)
PYEOF
fi

exit $status
