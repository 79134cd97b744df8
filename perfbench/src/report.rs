//! What one invocation reports: the metrics by name and unit, the failed
//! operations, and the lines printed for people above the JSON result.

use std::fmt::Write as _;
use std::time::Duration;

use crate::layers::{Analysis, CRITPATH_LAYERS, STALL_BUCKETS};
use crate::run::{Counters, Host};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub lines: Vec<String>,
}

fn push(v: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, better: &'static str) {
    v.push(Metric {
        name: name.to_string(),
        value,
        unit,
        better,
    });
}

impl Report {
    /// Records a failure of `ops` operations (at least one).
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops.max(1);
        self.errors.push(why);
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.e2e, name, value, unit, "lower");
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, better: &'static str) {
        push(&mut self.layers, name, value, unit, better);
    }

    fn find(&self, name: &str) -> Option<f64> {
        let mut all = self.e2e.iter().chain(&self.layers);
        all.find(|m| m.name == name).map(|m| m.value)
    }

    /// The result under the names of the benchmark's design, for people
    /// reading the output; `n/a` where the workload has no such figure.
    pub fn summary(&self, is_kv: bool) -> Vec<String> {
        let mut out = Vec::new();
        let mut line = |name: &str, value: Option<f64>, unit: &str| {
            out.push(match value {
                Some(v) => format!("{name:<20} {v:>14.4} {unit}"),
                None => format!("{name:<20} {:>14} {unit}", "n/a"),
            });
        };
        let splash = |v: Option<f64>| v.filter(|_| !is_kv);
        let kv = |v: Option<f64>| v.filter(|_| is_kv);
        line(
            "sim_parallel_ms",
            splash(self.find("sim_parallel_ms")),
            "ms",
        );
        line("sim_setup_ms", self.find("sim_setup_ms"), "ms");
        for rate in crate::KV_RATES {
            for q in ["p50", "p99"] {
                let name = format!("svc_{q}_ms.r{rate}");
                line(&name, kv(self.find(&name)), "ms");
            }
        }
        line("svc_max_rps", kv(self.find("svc_max_rps")), "rps");
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        line("fail_frac", Some(frac), "");
        line("host_wall_s", self.find("host.wall_s"), "s");
        line("host_ns_per_event", self.find("host.ns_per_event"), "ns");
        for (name, unit) in [
            ("host_norm_s", "s"),
            ("host_norm_ns_per_event", "ns"),
            ("host_peak_rss_mb", "MB"),
            ("setup_s", "s"),
        ] {
            line(name, self.find(name), unit);
        }
        out
    }

    /// The last line of the output: the contract's result object.
    pub fn json(&self, metrics: &[Metric]) -> String {
        let mut m = String::new();
        for (i, x) in metrics.iter().enumerate() {
            assert!(x.value.is_finite(), "{} is not finite", x.name);
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

pub fn get(c: &Counters, k: &str) -> u64 {
    c.get(k).copied().unwrap_or(0)
}

/// Per-layer counts, each one counter of the same name: (name, better).
const COUNTS: [(&str, &str); 29] = [
    ("sim.context_switches", "lower"),
    ("sim.threads_spawned", "lower"),
    ("memsim.tlb_hits", "higher"),
    ("memsim.tlb_misses", "lower"),
    ("memsim.faults", "lower"),
    ("memsim.mapped_pages", "lower"),
    ("proto.read_faults", "lower"),
    ("proto.write_faults", "lower"),
    ("proto.remote_fetches", "lower"),
    ("proto.diffs_sent", "lower"),
    ("proto.notices_applied", "lower"),
    ("proto.diff_batches", "lower"),
    ("proto.prefetch_issued", "lower"),
    ("proto.prefetch_wasted", "lower"),
    ("proto.migrations", "lower"),
    ("proto.lock_forwards", "lower"),
    ("sync.lock_acquires", "lower"),
    ("sync.barrier_waits", "lower"),
    ("sync.mutex_max_waiters", "lower"),
    ("san.msgs", "lower"),
    ("san.max_nic_msgs", "lower"),
    ("vmmc.max_nic_regions", "lower"),
    ("rt.nodes_attached", "lower"),
    ("rt.remote_creates", "lower"),
    ("rt.pooled_dispatches", "lower"),
    ("rt.cond_signals", "lower"),
    ("svc.served", "higher"),
    ("svc.direct_served", "lower"),
    ("svc.retries", "lower"),
];

/// Per-layer sizes and times, each one counter over a divisor (lower is
/// better): (name, counter, divisor, unit).
const SCALED: [(&str, &str, f64, &str); 10] = [
    ("proto.fetch_kb", "proto.fetch_bytes", 1024.0, "KB"),
    ("proto.diff_kb", "proto.diff_bytes", 1024.0, "KB"),
    ("sync.mutex_wait_ms", "sync.mutex_wait_ns", 1e6, "ms"),
    ("sync.cond_wait_ms", "sync.cond_wait_ns", 1e6, "ms"),
    ("sync.barrier_wait_ms", "sync.barrier_wait_ns", 1e6, "ms"),
    ("san.kb", "san.bytes", 1024.0, "KB"),
    ("vmmc.registered_mb", "vmmc.reg_bytes", 1048576.0, "MB"),
    ("rt.create_avg_us", "rt.create_avg_ns", 1e3, "us"),
    ("rt.join_avg_us", "rt.join_avg_ns", 1e3, "us"),
    ("rt.malloc_avg_us", "rt.malloc_avg_ns", 1e3, "us"),
];

/// Every per-layer metric of an analysed traced run. `untraced` is the
/// least host CPU time of the same workload's runs with obs off.
pub fn layer_metrics(r: &mut Report, c: &Counters, a: &Analysis, traced: &Host, untraced: f64) {
    for (name, better) in COUNTS {
        r.layer(name, get(c, name) as f64, "count", better);
    }
    for (name, key, div, unit) in SCALED {
        r.layer(name, get(c, key) as f64 / div, unit, "lower");
    }

    let fast = get(c, "sim.sync_fast_path");
    let points = fast + get(c, "sim.sync_slow_path");
    r.layer("sim.sched_points", points as f64, "count", "lower");
    r.layer("sim.fast_path_pct", pct(fast, points), "%", "higher");
    let (hits, misses) = (get(c, "memsim.tlb_hits"), get(c, "memsim.tlb_misses"));
    r.layer(
        "memsim.tlb_hit_pct",
        pct(hits, hits + misses),
        "%",
        "higher",
    );
    let prefetch = pct(
        get(c, "proto.prefetch_hits"),
        get(c, "proto.prefetch_issued"),
    );
    r.layer("proto.prefetch_hit_pct", prefetch, "%", "higher");
    let misplaced = pct(
        get(c, "proto.misplaced_pages"),
        get(c, "proto.touched_pages"),
    );
    r.layer("proto.misplaced_pct", misplaced, "%", "lower");
    let table3 = crate::layers::vmmc_table3_max_err_pct();
    r.layer("vmmc.table3_max_err_pct", table3, "%", "lower");
    r.layer("rt.attach_ms", ms(a.attach_ns), "ms", "lower");

    let host_ms = |d: Duration| d.as_secs_f64() * 1e3;
    r.layer(
        "traffic.schedule_host_ms",
        host_ms(traced.schedule),
        "ms",
        "lower",
    );
    r.layer(
        "host.cluster_build_ms",
        host_ms(traced.cluster_build),
        "ms",
        "lower",
    );
    r.layer(
        "host.runtime_new_ms",
        host_ms(traced.runtime_new),
        "ms",
        "lower",
    );
    r.layer("host.obs_analyze_ms", host_ms(a.host), "ms", "lower");

    r.layer("obs.events", a.events as f64, "count", "lower");
    r.layer("obs.dropped_events", a.dropped as f64, "count", "lower");
    let cpu = traced.cpu.as_secs_f64();
    r.layer(
        "obs.overhead_pct",
        (cpu / untraced - 1.0) * 100.0,
        "%",
        "lower",
    );
    let per_event = (cpu - untraced).max(0.0) * 1e9 / a.events.max(1) as f64;
    r.layer("obs.host_ns_per_event", per_event, "ns", "lower");
    for (name, v) in STALL_BUCKETS.iter().zip(a.stall_pct) {
        r.layer(&format!("stall.{name}_pct"), v, "%", "lower");
    }
    for (name, ns) in CRITPATH_LAYERS.iter().zip(a.critpath_ns) {
        r.layer(&format!("critpath.{name}_ms"), ms(ns), "ms", "lower");
    }
}

/// The simulated phase split: set-up (run start to window open), the
/// measured window, and their shares of the whole run.
pub fn phase_metrics(r: &mut Report, setup_ns: u64, window_ns: u64, end_ns: u64) {
    r.e2e("sim_setup_ms", ms(setup_ns), "ms");
    r.layer("sim_parallel_ms", ms(window_ns), "ms", "lower");
    r.layer("phase.total_ms", ms(end_ns), "ms", "lower");
    r.layer("phase.setup_pct", pct(setup_ns, end_ns), "%", "lower");
    r.layer("phase.window_pct", pct(window_ns, end_ns), "%", "lower");
    r.lines.push(format!(
        "phases: setup {:.3} ms ({:.2}%), window {:.3} ms ({:.2}%), run {:.3} ms",
        ms(setup_ns),
        pct(setup_ns, end_ns),
        ms(window_ns),
        pct(window_ns, end_ns),
        ms(end_ns)
    ));
}
