//! Critical-path profile of the instrumented SPLASH kernels.
//!
//! Runs FFT (16 processors → 8 nodes) and RADIX with the observability
//! bus on, rebuilds the causal DAG from the drained event buffer, and
//! walks the longest cause→effect chain from program start to the last
//! join. Produces `BENCH_critpath.json` with the per-layer / per-kind /
//! per-node breakdowns and the blame table for both kernels.
//!
//! Asserted invariants:
//!
//! - recording is inert: simulated time is bit-identical obs on vs off;
//! - the critical path partitions the run exactly: its layer breakdown
//!   sums to the run's total simulated time;
//! - the path is at least as long as the busiest lane's span coverage
//!   (a path can never be shorter than one thread's serial work);
//! - the event buffer did not overflow (otherwise `critpath::analyze`
//!   refuses; raise `CABLES_OBS_CAP` to rerun with a larger buffer).
//!
//! Run with `--test` for the CI smoke mode (tiny sizes, same assertions,
//! same artifact).

use std::sync::Arc;

use apps::splash::{fft, radix};
use apps::{M4Ctx, M4System};
use cables_bench::{cluster_for, header, smoke_mode, write_artifact};
use obs::json::Value;
use obs::obj;
use obs::critpath;
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
    dropped: u64,
    events: Vec<obs::EventRecord>,
}

fn run_once(w: &Workload, observe: bool, smoke: bool) -> ObsRun {
    let cluster = Cluster::build(cluster_for(w.procs));
    let sys = M4System::cables(Arc::clone(&cluster));
    sys.svm().set_obs(observe);
    let body = w.body;
    let end = sys.run(move |ctx| body(ctx, smoke)).expect("workload run");
    let svm = sys.svm();
    let sink = svm.obs();
    ObsRun {
        total_ns: end.as_nanos(),
        dropped: sink.dropped_events(),
        events: sink.events(),
    }
}

fn main() {
    let smoke = smoke_mode();
    header(
        "critpath: critical-path profile over the causal-edge DAG",
        "no paper artifact; the paper's Fig-5 'where did the time go' question, answered per run",
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

    let mut kernels = Vec::new();
    for w in &workloads {
        let off = run_once(w, false, smoke);
        let on = run_once(w, true, smoke);

        assert_eq!(
            off.total_ns, on.total_ns,
            "{}: enabling observability changed the simulated result",
            w.name
        );
        assert_eq!(
            on.dropped, 0,
            "{}: obs buffer overflowed ({} dropped); raise CABLES_OBS_CAP",
            w.name, on.dropped
        );
        let edges = on
            .events
            .iter()
            .filter(|e| e.event.is_edge())
            .count();
        assert!(edges > 0, "{}: no causal edges recorded", w.name);

        let cp = critpath::analyze(&on.events, on.total_ns, on.dropped)
            .expect("critical-path analysis");

        // The breakdown partitions the run: it must sum to the run's
        // simulated time exactly, never exceed it.
        assert_eq!(
            cp.layer_sum_ns(),
            on.total_ns,
            "{}: critical-path breakdown does not sum to the simulated time",
            w.name
        );
        assert!(
            cp.total_ns <= on.total_ns,
            "{}: critical path longer than the run",
            w.name
        );
        // ... and it can never be shorter than the busiest single lane.
        let busiest = critpath::busiest_lane_span_ns(&on.events);
        assert!(
            cp.total_ns >= busiest,
            "{}: critical path ({}) shorter than the busiest lane ({})",
            w.name,
            cp.total_ns,
            busiest
        );

        println!("{}", cp.render(w.name, 10));
        println!(
            "({}: {} events, {} causal edges, {} edges on the path, busiest lane {} ns)",
            w.name,
            on.events.len(),
            edges,
            cp.edges_on_path,
            busiest
        );
        println!();

        kernels.push(obj! {
            "kernel" => w.name,
            "procs" => w.procs,
            "sim_time_ns" => on.total_ns,
            "events_recorded" => on.events.len(),
            "causal_edges" => edges,
            "busiest_lane_ns" => busiest,
            "critpath" => cp.to_value(),
        });
    }

    let artifact = obj! {
        "bench" => "critpath",
        "smoke" => smoke,
        "kernels" => Value::Arr(kernels),
    };
    write_artifact("BENCH_critpath.json", &artifact);
    println!("determinism: both kernels produced identical SimTime with the");
    println!("observability layer on and off, and the per-layer critical-path");
    println!("breakdown sums exactly to each run's simulated time.");
}
