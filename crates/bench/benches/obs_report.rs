//! Observability-layer report: runs instrumented SPLASH kernels with the
//! cluster-wide event bus enabled and produces the layer's artifacts:
//!
//! - `BENCH_obs_<kernel>.json` — simulated time broken down by layer
//!   (san / vmmc / proto / sync / rt / sched) per node, plus the full
//!   metric snapshot (kind latencies, page activity, gauges), the
//!   per-thread stall profile (`obs::stall`), the windowed metric series
//!   (`obs::series`), and the top-10 page-sharing ranking
//!   (`obs::sharing`);
//! - `target/artifacts/stream_<kernel>.ndjson` — the online metric
//!   series, streamed *during* the run by a drain thread (watch a live
//!   run with `cablestat tail --follow stream_FFT.ndjson`);
//! - `BENCH_obs_stream.json` — streaming-path accounting per kernel
//!   (frames, overflow merges, fold exactness), perfgate-tracked;
//! - `target/artifacts/trace_fft.json` — a Chrome-trace / Perfetto
//!   timeline of the FFT run on an 8-node cluster, one process per node,
//!   one track per simulated thread plus the NIC lane;
//! - `target/artifacts/stall_<kernel>.collapsed` — collapsed-stack stall
//!   export (`node;thread;bucket value`) for flamegraph tooling.
//!
//! Every run executes twice — observability off, then on *with the
//! streaming series enabled* — and asserts the final virtual time is
//! bit-identical (recording and streaming charge no simulated time).
//! Every stream is parsed back and its frames must fold byte-exactly to
//! the embedded final snapshot. Both JSON artifacts are validated before
//! they are written.
//!
//! Run with `--test` for the CI smoke mode (tiny sizes, same assertions,
//! same artifacts).

use std::sync::Arc;

use apps::splash::{fft, radix};
use apps::{M4Ctx, M4System};
use cables_bench::{
    cluster_for, header, smoke_mode, write_artifact, write_aux_artifact, StreamExport,
    StreamExporter,
};
use obs::json::Value;
use obs::obj;
use obs::series::{self, SeriesSummary};
use obs::stream::parse_stream;
use obs::{chrome, report, stall, Layer, MetricsSnapshot};
use svm::Cluster;

struct Workload {
    name: &'static str,
    procs: usize,
    body: fn(&M4Ctx, bool),
}

fn fft_body(ctx: &M4Ctx, smoke: bool) {
    let p = fft::FftParams {
        m: if smoke { 8 } else { 12 },
        nprocs: 16,
        verify: false,
    };
    fft::fft(ctx, &p);
}

fn radix_body(ctx: &M4Ctx, smoke: bool) {
    let p = radix::RadixParams {
        keys: if smoke { 4_096 } else { 65_536 },
        digit_bits: 8,
        max_key: 1 << 16,
        nprocs: 8,
    };
    radix::radix(ctx, &p);
}

struct ObsRun {
    total_ns: u64,
    snapshot: MetricsSnapshot,
    events: Vec<obs::EventRecord>,
}

/// Runs one workload; `stream_sample_ns` additionally turns on the online
/// metric series and exports it live to `stream_<kernel>.ndjson`.
fn run_once(
    w: &Workload,
    observe: bool,
    smoke: bool,
    stream_sample_ns: Option<u64>,
) -> (ObsRun, Option<(SeriesSummary, StreamExport)>) {
    let cluster = Cluster::build(cluster_for(w.procs));
    let sys = M4System::cables(Arc::clone(&cluster));
    sys.svm().set_obs(observe);
    let exporter = stream_sample_ns.map(|sample_ns| {
        let ring = sys.svm().obs().series_start(sample_ns);
        StreamExporter::start(w.name, sample_ns, ring)
    });
    let body = w.body;
    let end = sys.run(move |ctx| body(ctx, smoke)).expect("workload run");
    let svm = sys.svm();
    let sink = svm.obs();
    let run = ObsRun {
        total_ns: end.as_nanos(),
        snapshot: sink.snapshot(),
        events: sink.events(),
    };
    let streamed = exporter.map(|e| {
        let summary = sink.series_finish().expect("series was running");
        let export = e.finish(&summary, run.total_ns, &run.snapshot);
        (summary, export)
    });
    (run, streamed)
}

/// The `BENCH_obs_<kernel>.json` document: run identity, per-layer totals,
/// the embedded metric snapshot, the per-thread stall profile, the
/// windowed series, and the top-10 sharing ranking.
fn artifact_value(
    w: &Workload,
    smoke: bool,
    run: &ObsRun,
    stall: &stall::StallProfile,
    series: Value,
    sharing: Value,
) -> Value {
    let layers_ns: Value = Layer::ALL
        .iter()
        .map(|l| (l.name(), run.snapshot.layer_total_ns(*l)))
        .collect();
    obj! {
        "kernel" => w.name,
        "mode" => "cables",
        "smoke" => smoke,
        "procs" => w.procs,
        "sim_time_ns" => run.total_ns,
        "events_recorded" => run.events.len(),
        "layers_ns" => layers_ns,
        "snapshot" => run.snapshot.to_value(),
        "stall" => stall.to_value(),
        "series" => series,
        "sharing" => sharing,
    }
}

/// One kernel's row in `BENCH_obs_stream.json`.
struct StreamRow {
    kernel: &'static str,
    sample_ns: u64,
    frames: u64,
    overflow_merges: u64,
    windows: usize,
    sim_time_ns: u64,
}

fn main() {
    let smoke = smoke_mode();
    header(
        "obs_report: instrumented kernels, layer breakdown + live stream + Chrome trace",
        "no paper artifact; the observability layer's own report",
    );
    let workloads = [
        Workload {
            name: "FFT",
            procs: 16,
            body: fft_body,
        },
        Workload {
            name: "RADIX",
            procs: 8,
            body: radix_body,
        },
    ];
    let mut stream_rows: Vec<StreamRow> = Vec::new();

    for w in &workloads {
        let (off, _) = run_once(w, false, smoke, None);
        // ~48 windows per run unless CABLES_OBS_SAMPLE_NS pins the width;
        // derived from the (deterministic) uninstrumented run time so the
        // frame count is stable run-to-run.
        let sample_ns =
            series::sample_ns_from_env().unwrap_or_else(|| (off.total_ns / 48).max(1));
        let (on, streamed) = run_once(w, true, smoke, Some(sample_ns));
        let (summary, export) = streamed.expect("streaming run");

        // The observability layer must be free when disabled and inert
        // when enabled: identical virtual time either way — with the
        // streaming series running, not just plain recording.
        assert_eq!(
            off.total_ns, on.total_ns,
            "{}: enabling observability + streaming changed the simulated result",
            w.name
        );
        assert!(off.events.is_empty(), "{}: disabled sink recorded", w.name);
        assert!(!on.events.is_empty(), "{}: no events recorded", w.name);
        assert!(
            on.snapshot.layer_total_ns(Layer::Proto) > 0,
            "{}: no protocol time attributed",
            w.name
        );

        println!("{}", report::full_report_with_events(w.name, &on.snapshot, &on.events));

        // Parse the stream back: grammar-valid, frames fold byte-exactly
        // to the embedded final snapshot.
        let text = std::fs::read_to_string(&export.path).expect("read stream back");
        let stream = parse_stream(&text)
            .unwrap_or_else(|e| panic!("{}: stream grammar: {e}", w.name));
        stream
            .verify_fold()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(stream.frames.len() as u64, summary.frames);
        let rows = series::windowed_table(&stream.frames);
        println!("=== {}: windowed metric series ({}ns windows) ===", w.name, sample_ns);
        print!("{}", report::window_table(&rows));
        println!(
            "stream: {} frame(s), {} overflow merge(s), fold exact -> target/artifacts/stream_{}.ndjson\n",
            summary.frames, summary.overflow_merges, w.name
        );

        // Per-thread stall profile: the bucket totals must partition each
        // thread's recorded lifetime exactly (the obs::stall invariant).
        let slice_ns = (on.total_ns / 64).max(1);
        let profile = stall::analyze(&on.events, on.snapshot.dropped_events, slice_ns)
            .expect("stall profile");
        for t in &profile.threads {
            assert_eq!(
                t.buckets.iter().sum::<u64>(),
                t.lifetime_ns(),
                "{}: stall buckets do not partition thread n{}/t{}",
                w.name,
                t.node,
                t.track
            );
        }
        println!("{}", profile.render(w.name));
        write_aux_artifact(
            &format!("stall_{}.collapsed", w.name),
            &profile.collapsed(),
        );

        let series = obj! {
            "sample_ns" => summary.sample_ns,
            "frames" => summary.frames,
            "overflow_merges" => summary.overflow_merges,
            "windows" => series::window_table_value(&rows),
        };
        let sharing = obs::sharing::analyze(&on.snapshot, &on.events).top(10);
        let artifact = artifact_value(w, smoke, &on, &profile, series, sharing.to_value());
        write_artifact(&format!("BENCH_obs_{}.json", w.name), &artifact);
        stream_rows.push(StreamRow {
            kernel: w.name,
            sample_ns,
            frames: summary.frames,
            overflow_merges: summary.overflow_merges,
            windows: rows.len(),
            sim_time_ns: on.total_ns,
        });

        if w.name == "FFT" {
            let trace = chrome::export(&on.events);
            let doc = obs::json::parse(&trace).expect("chrome trace is well-formed");
            let trace_events = doc.get("traceEvents").and_then(Value::as_arr).unwrap_or_default();
            // 16 processors on 2-way SMP nodes: the timeline must show all
            // eight node processes (per-node tracks in Perfetto).
            for n in 0..8 {
                assert!(
                    trace_events.iter().any(|e| {
                        e.get("name").and_then(Value::as_str) == Some("process_name")
                            && e.get("pid").and_then(Value::as_u64) == Some(n)
                    }),
                    "FFT trace is missing the node-{n} process"
                );
            }
            write_aux_artifact("trace_fft.json", &trace);
            println!(
                "Chrome trace: {} events; load target/artifacts/trace_fft.json in chrome://tracing or ui.perfetto.dev",
                on.events.len()
            );
        }
        println!();
    }

    let kernels = stream_rows.iter().map(|r| {
        obj! {
            "kernel" => r.kernel,
            "sample_ns" => r.sample_ns,
            "frames" => r.frames,
            "overflow_merges" => r.overflow_merges,
            "windows" => r.windows,
            "fold_exact" => true,
            "sim_time_ns" => r.sim_time_ns,
        }
    });
    let sj = obj! { "bench" => "obs_stream", "smoke" => smoke, "kernels" => Value::arr(kernels) };
    write_artifact("BENCH_obs_stream.json", &sj);

    println!("determinism: every kernel produced identical SimTime with the");
    println!("observability layer (and the streaming series) on and off.");
}
