//! Protocol-traffic ablation: batched diffs × stride prefetch.
//!
//! Runs FFT and RADIX (32 processors → 16 nodes at full size; 16
//! processors → 8 nodes in smoke mode) over the full 2×2 on/off grid
//! of the two protocol optimizations and produces
//! `BENCH_protocol.json` with per-point message counts and simulated
//! times, plus a critical-path blame comparison of the all-off and
//! all-on corners. The grid runs on the green-thread parallel engine
//! backend — the 16-node promotion is what that backend exists to make
//! affordable — and every determinism assertion below therefore also
//! exercises the parallel scheduler.
//!
//! Asserted invariants:
//!
//! - the optimizations are value-preserving: every grid point computes a
//!   bit-identical application result (FFT checksum bits, RADIX key sum);
//! - the all-off corner reports zero for every new counter (the baseline
//!   protocol is untouched);
//! - all-on vs all-off: fewer `remote_fetches` messages, fewer
//!   `diffs_sent` messages, and (at full sizes) a shorter simulated
//!   end-to-end time;
//! - in smoke mode, the all-on corner stays under hard message-count
//!   ceilings (`Workload::smoke_ceilings`): a protocol change that
//!   re-inflates traffic fails here;
//! - observability stays inert on both corners (same SimTime on vs off).
//!
//! Run with `--test` for the CI smoke mode: tiny sizes, same artifact,
//! same assertions except the end-to-end time comparison (µs-scale
//! noise at smoke sizes).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use apps::splash::{fft, radix};
use apps::{M4Ctx, M4System};
use cables::CablesConfig;
use cables_bench::{cluster_for, fmt_ns, header, smoke_mode};
use obs::critpath;
use sim::EngineMode;
use svm::{Cluster, NodeStats, SvmConfig};

struct Workload {
    name: &'static str,
    procs: usize,
    body: fn(&M4Ctx, bool) -> u64,
    /// All-on `(remote_fetches, diffs_sent)` ceilings at smoke sizes,
    /// snapshotted when the optimizations landed. The simulator is
    /// deterministic, so the ceilings are tight.
    smoke_ceilings: (u64, u64),
}

fn fft_body(ctx: &M4Ctx, smoke: bool) -> u64 {
    // Sizes chosen so each processor's chunk spans several pages: stride
    // runs must cross page boundaries for prefetch to engage, and the
    // all-on corner must win simulated time robustly, not by luck.
    let p = fft::FftParams {
        m: if smoke { 10 } else { 14 },
        nprocs: if smoke { 16 } else { 32 },
        verify: false,
    };
    fft::fft(ctx, &p).checksum.to_bits()
}

fn radix_body(ctx: &M4Ctx, smoke: bool) -> u64 {
    let p = radix::RadixParams {
        keys: if smoke { 16_384 } else { 65_536 },
        digit_bits: 8,
        max_key: 1 << 16,
        nprocs: if smoke { 16 } else { 32 },
    };
    let r = radix::radix(ctx, &p);
    assert!(r.sorted, "RADIX output not sorted");
    r.key_sum
}

struct GridRun {
    total_ns: u64,
    checksum: u64,
    stats: NodeStats,
    events: Vec<obs::EventRecord>,
    dropped: u64,
}

fn run_point(w: &Workload, toggles: (bool, bool), observe: bool, smoke: bool) -> GridRun {
    // The 16-node grid runs on the green-thread backend; determinism
    // means the artifact is identical to a sequential-oracle run.
    let mut cluster_cfg = cluster_for(w.procs);
    cluster_cfg.engine = EngineMode::Parallel;
    let cluster = Cluster::build(cluster_cfg);
    let cfg = CablesConfig {
        svm: SvmConfig::cables().with_protocol_opts(toggles.0, toggles.1),
        ..CablesConfig::paper()
    };
    let sys = M4System::cables_with(Arc::clone(&cluster), cfg);
    sys.svm().set_obs(observe);
    let body = w.body;
    let result: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let end = sys
        .run(move |ctx| {
            *slot.lock().unwrap() = Some(body(ctx, smoke));
        })
        .expect("workload run");
    let checksum = result.lock().unwrap().take().expect("workload result");
    let svm = sys.svm();
    let sink = svm.obs();
    GridRun {
        total_ns: end.as_nanos(),
        checksum,
        stats: svm.total_stats(),
        events: sink.events(),
        dropped: sink.dropped_events(),
    }
}

/// Returns the blame JSON plus the diff lane's share of the critical
/// path (`proto.release` by-kind blame: time the path spent building and
/// fencing release diffs).
fn critpath_json(events: &[obs::EventRecord], total_ns: u64, dropped: u64) -> (String, u64) {
    let cp = critpath::analyze(events, total_ns, dropped).expect("critical-path analysis");
    assert_eq!(cp.layer_sum_ns(), total_ns, "critpath must partition the run");
    let release_ns = cp
        .by_kind
        .iter()
        .find(|(k, _)| k == "proto.release")
        .map_or(0, |(_, v)| *v);
    (cp.to_json().trim_end().to_string(), release_ns)
}

fn repo_root_path(name: &str) -> String {
    format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), name)
}

fn main() {
    let smoke = smoke_mode();
    header(
        "protocol_opt: batched diffs x stride prefetch",
        "no paper table; the GCS-style traffic reductions of §2.2, ablated",
    );
    // Full size runs the promoted 16-node grid (32 processors); smoke
    // keeps the original 8-node shape so CI stays fast.
    let procs = if smoke { 16 } else { 32 };
    let workloads = [
        Workload {
            name: "FFT",
            procs,
            body: fft_body,
            // Measured 124/74 (m=10, 16 procs on 8 nodes).
            smoke_ceilings: (130, 78),
        },
        Workload {
            name: "RADIX",
            procs,
            body: radix_body,
            // Measured 553/61 (16K keys, 16 procs on 8 nodes).
            smoke_ceilings: (560, 70),
        },
    ];
    // Grid order: (batch_diffs, prefetch).
    let grid = [(false, false), (true, false), (false, true), (true, true)];

    let mut artifact = String::from("{\n  \"bench\": \"protocol_opt\",\n");
    let _ = write!(artifact, "  \"smoke\": {smoke},\n  \"kernels\": [");

    for (wi, w) in workloads.iter().enumerate() {
        println!("--- {} ({} procs, {} nodes) ---", w.name, w.procs, w.procs / 2);
        println!(
            "{:<22} {:>12} {:>14} {:>11} {:>10} {:>9}",
            "point", "sim time", "remote_fetches", "diffs_sent", "prefetch", "pf hits"
        );

        let mut points = Vec::new();
        for &(b, p) in &grid {
            let r = run_point(w, (b, p), false, smoke);
            let label = format!("batch={} prefetch={}", b as u8, p as u8);
            println!(
                "{:<22} {:>15} {:>14} {:>11} {:>10} {:>9}",
                label,
                r.total_ns,
                r.stats.remote_fetches,
                r.stats.diffs_sent,
                r.stats.prefetch_issued,
                r.stats.prefetch_hits
            );
            points.push(((b, p), r));
        }

        // Value preservation: every grid point computes the same bits.
        let baseline_sum = points[0].1.checksum;
        for ((b, p), r) in &points {
            assert_eq!(
                r.checksum, baseline_sum,
                "{}: result differs at batch={b} prefetch={p}",
                w.name
            );
        }

        let off = &points[0].1;
        let on = &points[3].1;
        // The baseline protocol is untouched: no new counter moves.
        assert_eq!(off.stats.diff_batches, 0, "{}: all-off batched a diff", w.name);
        assert_eq!(off.stats.prefetch_issued, 0, "{}: all-off prefetched", w.name);
        // The headline traffic reductions.
        assert!(
            on.stats.remote_fetches < off.stats.remote_fetches,
            "{}: remote fetch messages did not drop ({} -> {})",
            w.name,
            off.stats.remote_fetches,
            on.stats.remote_fetches
        );
        assert!(
            on.stats.diffs_sent < off.stats.diffs_sent,
            "{}: diff messages did not drop ({} -> {})",
            w.name,
            off.stats.diffs_sent,
            on.stats.diffs_sent
        );
        // Protocol-traffic regression guard: the all-on corner must stay
        // under the ceilings its smoke-size counts were snapshotted at.
        if smoke {
            let (fetch_cap, diff_cap) = w.smoke_ceilings;
            for (name, o0, o1, cap) in [
                ("remote_fetches", off.stats.remote_fetches, on.stats.remote_fetches, fetch_cap),
                ("diffs_sent", off.stats.diffs_sent, on.stats.diffs_sent, diff_cap),
            ] {
                println!(
                    "    {:<6} {name:<15} off={o0:>5} on={o1:>5} ceiling={cap:>5}",
                    w.name
                );
                assert!(o1 <= cap, "{}: all-on {name} {o1} over ceiling {cap}", w.name);
            }
        }
        // The end-to-end timing claim only holds at representative sizes:
        // at smoke sizes each processor chunk is under a page, prefetch
        // mostly wastes its fetches, and the µs-scale deltas are barrier
        // straggler noise. Smoke still asserts every value-preservation
        // and message-count invariant above.
        if !smoke {
            assert!(
                on.total_ns < off.total_ns,
                "{}: simulated time did not drop ({} -> {})",
                w.name,
                off.total_ns,
                on.total_ns
            );
        }
        println!(
            "{}: remote fetches {} -> {} ({:.1}%), diff messages {} -> {} ({:.1}%), time {} -> {}",
            w.name,
            off.stats.remote_fetches,
            on.stats.remote_fetches,
            100.0 * on.stats.remote_fetches as f64 / off.stats.remote_fetches.max(1) as f64,
            off.stats.diffs_sent,
            on.stats.diffs_sent,
            100.0 * on.stats.diffs_sent as f64 / off.stats.diffs_sent.max(1) as f64,
            fmt_ns(off.total_ns),
            fmt_ns(on.total_ns)
        );
        println!();

        // Critical-path blame, all-off vs all-on corners, with the
        // obs-inertness double-run both times.
        let off_obs = run_point(w, (false, false), true, smoke);
        let on_obs = run_point(w, (true, true), true, smoke);
        assert_eq!(
            off_obs.total_ns, off.total_ns,
            "{}: observability changed the all-off run",
            w.name
        );
        assert_eq!(
            on_obs.total_ns, on.total_ns,
            "{}: observability changed the all-on run",
            w.name
        );
        assert_eq!(off_obs.dropped, 0, "{}: obs overflow (all-off)", w.name);
        assert_eq!(on_obs.dropped, 0, "{}: obs overflow (all-on)", w.name);
        let (cp_off, release_off) = critpath_json(&off_obs.events, off_obs.total_ns, off_obs.dropped);
        let (cp_on, release_on) = critpath_json(&on_obs.events, on_obs.total_ns, on_obs.dropped);
        // The blame table must show the diff lane shrinking: batching
        // collapses the per-page release fence the path used to wait on.
        if !smoke {
            assert!(
                release_on < release_off,
                "{}: critpath release-lane blame did not shrink ({} -> {})",
                w.name,
                release_off,
                release_on
            );
        }

        if wi > 0 {
            artifact.push(',');
        }
        let _ = write!(
            artifact,
            "\n    {{\n      \"kernel\": \"{}\",\n      \"procs\": {},\n      \"grid\": [",
            w.name, w.procs
        );
        for (pi, ((b, p), r)) in points.iter().enumerate() {
            if pi > 0 {
                artifact.push(',');
            }
            let _ = write!(
                artifact,
                "\n        {{\"batch_diffs\": {b}, \"prefetch\": {p}, \
                 \"sim_time_ns\": {}, \"remote_fetches\": {}, \"fetch_bytes\": {}, \
                 \"diffs_sent\": {}, \"diff_bytes\": {}, \"diff_batches\": {}, \
                 \"batched_diff_bytes\": {}, \"prefetch_issued\": {}, \"prefetch_hits\": {}, \
                 \"prefetch_wasted\": {}, \"checksum\": {}}}",
                r.total_ns,
                r.stats.remote_fetches,
                r.stats.fetch_bytes,
                r.stats.diffs_sent,
                r.stats.diff_bytes,
                r.stats.diff_batches,
                r.stats.batched_diff_bytes,
                r.stats.prefetch_issued,
                r.stats.prefetch_hits,
                r.stats.prefetch_wasted,
                r.checksum
            );
        }
        artifact.push_str("\n      ],\n      \"critpath_all_off\": ");
        artifact.push_str(&cp_off);
        artifact.push_str(",\n      \"critpath_all_on\": ");
        artifact.push_str(&cp_on);
        artifact.push_str("\n    }");
    }

    artifact.push_str("\n  ]\n}\n");
    obs::json::validate(&artifact).expect("protocol_opt artifact JSON is well-formed");
    let path = repo_root_path("BENCH_protocol.json");
    std::fs::write(&path, &artifact).expect("write BENCH_protocol.json");
    println!("ablation grid written to BENCH_protocol.json");
    println!("determinism: all 4 grid points produced bit-identical application");
    println!("results per kernel, and the all-on corner beat all-off on remote");
    if smoke {
        println!("fetch messages and diff messages (time asserted at full sizes).");
    } else {
        println!("fetch messages, diff messages, and simulated end-to-end time.");
    }
}
