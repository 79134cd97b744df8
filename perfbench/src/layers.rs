//! What a traced run explains, read from outside the program: the obs
//! sink's snapshot and events, the stall partition and the critical path
//! over those events, and the VMMC cost model checked against Table 3.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cables::CablesRt;
use memsim::{ClusterMem, OsVmConfig, PAGE_SIZE};
use obs::{critpath, stall, Event, EventRecord};
use san::{San, SanConfig};
use sim::{Engine, SimTime};
use vmmc::{Vmmc, VmmcConfig};

/// Stall buckets in `stall::Bucket::ALL` order, named as the benchmark
/// reports them.
pub const STALL_BUCKETS: [&str; stall::BUCKETS] = [
    "compute",
    "page_fault",
    "prefetch_masked",
    "mutex",
    "cond",
    "barrier",
    "rwlock",
    "join",
    "msg_latency",
];

/// Critical-path layers reported (every `obs::Layer` but `chaos`, which a
/// fault-free run never enters, plus the `compute` pseudo-layer).
pub const CRITPATH_LAYERS: [&str; 8] = [
    "san", "vmmc", "proto", "sync", "rt", "sched", "service", "compute",
];

/// The event buffer and aggregates of one traced run.
pub struct Trace {
    pub events: Vec<EventRecord>,
    pub dropped: u64,
    /// Simulated time the `rt.node_attach` kind accumulated.
    pub attach_ns: u64,
}

impl Trace {
    /// Drains the run's obs sink.
    pub fn take(rt: &CablesRt) -> Trace {
        let sink = rt.svm().obs();
        let snap = sink.snapshot();
        let attach_ns = snap
            .kinds
            .iter()
            .find(|k| k.name == "rt.node_attach")
            .map_or(0, |k| k.total_ns);
        Trace {
            events: sink.take_events(),
            dropped: sink.dropped_events(),
            attach_ns,
        }
    }

    /// Durations of the run's `ServiceRequest` spans (scheduled arrival
    /// to response), sorted, and the earliest span start.
    pub fn service_spans(&self) -> (Vec<u64>, Option<u64>) {
        let spans = self
            .events
            .iter()
            .filter(|e| matches!(e.event, Event::ServiceRequest { .. }));
        let first = spans.clone().map(|e| e.at.as_nanos()).min();
        let mut durs: Vec<u64> = spans.map(|e| e.dur_ns).collect();
        durs.sort_unstable();
        (durs, first)
    }
}

/// What one traced run explains, kept after its events are dropped.
pub struct Analysis {
    /// Events recorded, and events dropped on overflow (must be 0).
    pub events: u64,
    pub dropped: u64,
    /// Simulated time the `rt.node_attach` kind accumulated.
    pub attach_ns: u64,
    /// Share of summed thread lifetime per bucket, `STALL_BUCKETS` order.
    pub stall_pct: [f64; stall::BUCKETS],
    /// Critical-path time per layer, `CRITPATH_LAYERS` order.
    pub critpath_ns: [u64; CRITPATH_LAYERS.len()],
    /// Host time the two analyses took.
    pub host: Duration,
}

/// Runs `obs::stall` and `obs::critpath` over a trace and checks that
/// both partition exactly: the stall buckets sum to the summed thread
/// lifetime, and the critical-path layers sum to `end_ns`.
pub fn analyze(trace: &Trace, end_ns: u64) -> Result<Analysis, String> {
    let t = Instant::now();
    let st =
        stall::analyze(&trace.events, trace.dropped, 0).map_err(|e| format!("stall: {e:?}"))?;
    let cp = critpath::analyze(&trace.events, end_ns, trace.dropped)
        .map_err(|e| format!("critpath: {e:?}"))?;
    let host = t.elapsed();

    let totals = st.totals();
    let life = st.lifetime_ns();
    if totals.iter().sum::<u64>() != life || life == 0 {
        return Err(format!(
            "stall buckets do not partition {life} ns of thread lifetime"
        ));
    }
    let mut stall_pct = [0.0; stall::BUCKETS];
    for (pct, t) in stall_pct.iter_mut().zip(totals) {
        *pct = t as f64 * 100.0 / life as f64;
    }

    let mut critpath_ns = [0u64; CRITPATH_LAYERS.len()];
    for (name, ns) in &cp.by_layer {
        match CRITPATH_LAYERS.iter().position(|l| l == name) {
            Some(i) => critpath_ns[i] = *ns,
            None if *ns == 0 => {}
            None => return Err(format!("critical path enters layer {name} ({ns} ns)")),
        }
    }
    if cp.total_ns != end_ns || critpath_ns.iter().sum::<u64>() != end_ns {
        return Err(format!(
            "critical path sums to {} ns, run took {end_ns} ns",
            critpath_ns.iter().sum::<u64>()
        ));
    }
    Ok(Analysis {
        events: trace.events.len() as u64,
        dropped: trace.dropped,
        attach_ns: trace.attach_ns,
        stall_pct,
        critpath_ns,
        host,
    })
}

/// The nearest rank (1-based) of the `p`th percentile among `n` samples.
pub fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

/// Exact `p`th percentile (nearest rank) of sorted samples.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The largest relative error, in percent, of the seven paper Table 3
/// VMMC costs, measured by calling the VMMC verbs on an idle two-node
/// cluster exactly as the paper's microbenchmark does.
pub fn vmmc_table3_max_err_pct() -> f64 {
    const QUIESCE_NS: u64 = 100_000_000;
    const STREAM: u64 = 256;
    let engine = Engine::new();
    let n0 = engine.add_node(2);
    let n1 = engine.add_node(2);
    let san = Arc::new(San::new(SanConfig::paper()));
    let mem = Arc::new(ClusterMem::new(OsVmConfig::windows_nt()));
    let vm = Arc::new(Vmmc::new(VmmcConfig::paper(), san, Arc::clone(&mem)));
    vm.ensure_node(n0);
    vm.ensure_node(n1);

    // (measured, paper) pairs: latencies in us, bandwidths in MB/s.
    let rows = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&rows);
    engine
        .run(n0, move |sim| {
            let push = |measured: f64, paper: f64| out.lock().unwrap().push((measured, paper));
            let us = |ns: u64| ns as f64 / 1e3;
            let frames: Vec<_> = (0..STREAM).map(|_| mem.alloc_frame(n1).unwrap()).collect();
            let region = vm.export_region(n1, frames).unwrap();
            vm.import_region(n0, region).unwrap();
            let page = vec![0u8; PAGE_SIZE as usize];

            let t = vm
                .remote_write(n0, region, 0, &[0u8; 4], sim.now())
                .unwrap();
            push(us(t.arrival - sim.now()), 7.8);
            sim.advance(QUIESCE_NS);
            let (_, done) = vm.remote_fetch(n0, region, 0, 4, sim.now()).unwrap();
            push(us(done - sim.now()), 22.0);
            sim.advance(QUIESCE_NS);
            let t = vm.remote_write(n0, region, 0, &page, sim.now()).unwrap();
            push(us(t.arrival - sim.now()), 52.0);
            sim.advance(QUIESCE_NS);
            let (_, done) = vm
                .remote_fetch(n0, region, 0, PAGE_SIZE, sim.now())
                .unwrap();
            push(us(done - sim.now()), 81.0);

            let mbs = |start: SimTime, last: SimTime| {
                (STREAM * PAGE_SIZE) as f64 / (last - start) as f64 * 1e3
            };
            sim.advance(QUIESCE_NS);
            let start = sim.now();
            let mut last = start;
            for i in 0..STREAM {
                last = vm
                    .remote_write(n0, region, i * PAGE_SIZE, &page, start)
                    .unwrap()
                    .arrival;
            }
            push(mbs(start, last), 125.0);
            sim.advance(QUIESCE_NS);
            let start = sim.now();
            let mut last = start;
            for i in 0..STREAM {
                last = vm
                    .remote_fetch(n0, region, i * PAGE_SIZE, PAGE_SIZE, start)
                    .unwrap()
                    .1;
            }
            push(mbs(start, last), 125.0);
            sim.advance(QUIESCE_NS);
            let t = vm.notify(n0, n1, sim.now());
            push(us(t.arrival - sim.now()), 18.0);
        })
        .expect("table 3 microbenchmark");
    let rows = rows.lock().unwrap();
    assert_eq!(rows.len(), 7);
    rows.iter()
        .map(|(m, p)| (m - p).abs() * 100.0 / p)
        .fold(0.0, f64::max)
}
