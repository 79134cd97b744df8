//! One run of a workload: the set-up calls, the timed call into the
//! runtime, the workload's own correctness check, and every simulated
//! counter read back through the layers' public accessors.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apps::service::{run_service, ServiceParams};
use apps::splash::{ocean, radix};
use apps::M4System;
use cables::{CablesConfig, CablesRt, OpKind};
use sim::EngineMode;
use svm::{Cluster, ClusterConfig};
use traffic::Schedule;

/// Event-buffer limit of the traced runs. The buffer grows on demand, so
/// this only has to exceed the largest workload's event count (a clipped
/// buffer is refused by `stall`/`critpath`, and the benchmark fails).
const OBS_CAP: usize = 1 << 26;

/// Every simulated quantity a run produced, by name. Two runs of the same
/// inputs must produce equal maps, traced or not.
pub type Counters = BTreeMap<&'static str, u64>;

/// Host time spent in each public call the benchmark makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    /// `traffic::schedule` (KV only).
    pub schedule: Duration,
    /// `Cluster::build`.
    pub cluster_build: Duration,
    /// Runtime construction (`M4System::cables` / `CablesRt::new`).
    pub runtime_new: Duration,
    /// The timed run (`M4System::run` / `CablesRt::run`).
    pub wall: Duration,
    /// CPU time the process spent in the timed run.
    pub cpu: Duration,
}

impl Host {
    /// Host seconds before the timed run.
    pub fn setup(&self) -> Duration {
        self.schedule + self.cluster_build + self.runtime_new
    }
}

/// What one run left behind.
pub struct Run {
    pub host: Host,
    pub counters: Counters,
    /// The workload's own output check.
    pub check: Result<(), String>,
    /// The runtime, for reading the traced run's obs sink.
    pub rt: Arc<CablesRt>,
}

/// A SPLASH kernel with its parameters.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    Ocean(ocean::OceanParams),
    Radix(radix::RadixParams),
}

impl Kernel {
    fn procs(&self) -> usize {
        match self {
            Kernel::Ocean(p) => p.nprocs,
            Kernel::Radix(p) => p.nprocs,
        }
    }
}

/// The paper's platform (2-way SMP nodes) at `procs` processors, pinned
/// to the green-thread engine whatever `CABLES_ENGINE_MODE` says.
fn cluster_config(procs: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(procs / 2, 2);
    cfg.engine = EngineMode::Parallel;
    cfg.obs_cap = OBS_CAP;
    cfg
}

/// The set-up calls of a kernel run: `Cluster::build`, then the CableS
/// runtime under the M4 facade.
pub fn setup_kernel(kernel: Kernel) -> (Host, Arc<Cluster>, Arc<M4System>) {
    let mut host = Host::default();
    let t = Instant::now();
    let cluster = Cluster::build(cluster_config(kernel.procs()));
    host.cluster_build = t.elapsed();
    let t = Instant::now();
    let sys = M4System::cables(Arc::clone(&cluster));
    host.runtime_new = t.elapsed();
    (host, cluster, sys)
}

/// Runs a kernel in CableS mode with the paper's configuration.
pub fn run_kernel(kernel: Kernel, traced: bool) -> Run {
    let (mut host, cluster, sys) = setup_kernel(kernel);
    sys.svm().set_obs(traced);

    let out = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&out);
    let (t, c) = (Instant::now(), cpu_now());
    let res = sys.run(move |ctx| {
        let r = match kernel {
            Kernel::Ocean(p) => {
                let r = ocean::ocean(ctx, &p);
                if r.final_residual < r.initial_residual && r.checksum.is_finite() {
                    Ok(r.checksum.to_bits())
                } else {
                    Err(format!(
                        "ocean residual did not fall ({} -> {}) or checksum {} is not finite",
                        r.initial_residual, r.final_residual, r.checksum
                    ))
                }
            }
            Kernel::Radix(p) => {
                let r = radix::radix(ctx, &p);
                let want = radix::expected_key_sum(&p);
                if r.sorted && r.key_sum == want {
                    Ok(r.key_sum)
                } else {
                    Err(format!(
                        "radix output sorted={} key_sum={} (input sum {want})",
                        r.sorted, r.key_sum
                    ))
                }
            }
        };
        *slot.lock().unwrap() = Some(r);
    });
    host.wall = t.elapsed();
    host.cpu = cpu_now() - c;

    let rt = sys.cables_rt().expect("CableS backend");
    let mut counters = read_counters(&cluster, &rt);
    let check = match (res, out.lock().unwrap().take()) {
        (Err(e), _) => Err(format!("run failed: {e}")),
        (Ok(_), None) => Err("kernel produced no result".to_string()),
        (Ok(end), Some(r)) => r.and_then(|witness| {
            let (a, b) = sys
                .parallel_window()
                .ok_or("kernel recorded no parallel section")?;
            counters.insert("out.witness", witness);
            counters.insert("time.end_ns", end.as_nanos());
            counters.insert("time.window_start_ns", a.as_nanos());
            counters.insert("time.window_end_ns", b.as_nanos());
            Ok(())
        }),
    };
    Run {
        host,
        counters,
        check,
        rt,
    }
}

/// The set-up calls of a KV run (8 processors on 4 nodes):
/// `Cluster::build`, then `CablesRt::new`. `schedule` is the host time
/// `traffic::schedule` took to build the run's schedule.
pub fn setup_kv(schedule: Duration) -> (Host, Arc<Cluster>, Arc<CablesRt>) {
    let mut host = Host {
        schedule,
        ..Host::default()
    };
    let t = Instant::now();
    let cluster = Cluster::build(cluster_config(8));
    host.cluster_build = t.elapsed();
    let t = Instant::now();
    let rt = CablesRt::new(Arc::clone(&cluster), CablesConfig::paper());
    host.runtime_new = t.elapsed();
    (host, cluster, rt)
}

/// Runs the sharded KV service over `sched`.
pub fn run_kv(sched: &Schedule, schedule: Duration, traced: bool) -> Run {
    let (mut host, cluster, rt) = setup_kv(schedule);
    rt.svm().set_obs(traced);

    let out = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&out);
    let s = sched.clone();
    let (t, c) = (Instant::now(), cpu_now());
    let res = rt.run(move |pth| {
        *slot.lock().unwrap() = Some(run_service(pth, &s, ServiceParams::test()));
        0
    });
    host.wall = t.elapsed();
    host.cpu = cpu_now() - c;

    let mut counters = read_counters(&cluster, &rt);
    let nreq = sched.requests.len() as u64;
    let check = match (res, out.lock().unwrap().take()) {
        (Err(e), _) => Err(format!("run failed: {e}")),
        (Ok(_), None) => Err("service produced no outcome".to_string()),
        (Ok(end), Some(o)) => {
            counters.insert("out.witness", o.digest);
            counters.insert("svc.served", o.served);
            counters.insert("svc.direct_served", o.direct_served);
            counters.insert("svc.retries", o.retries);
            counters.insert("svc.requests", nreq);
            counters.insert("time.end_ns", end.as_nanos());
            counters.insert("time.window_ns", o.serve_ns);
            if o.served == nreq && o.direct_served == 0 && o.retries == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{} of {nreq} requests served by the pools ({} direct, {} retries)",
                    o.served, o.direct_served, o.retries
                ))
            }
        }
    };
    Run {
        host,
        counters,
        check,
        rt,
    }
}

/// Reads every simulated counter of a finished run from the layers'
/// public accessors.
fn read_counters(cluster: &Cluster, rt: &CablesRt) -> Counters {
    let svm = rt.svm();
    let mut c = Counters::new();

    let e = svm.engine_stats();
    c.insert("sim.context_switches", e.context_switches);
    c.insert("sim.threads_spawned", e.threads_spawned);
    c.insert("sim.sync_fast_path", e.sync_fast_path);
    c.insert("sim.sync_slow_path", e.sync_slow_path);
    c.insert("memsim.tlb_hits", e.tlb_hits);
    c.insert("memsim.tlb_misses", e.tlb_misses);

    let nodes = cluster.nodes();
    let mem = nodes.iter().map(|&n| cluster.mem.stats(n));
    let (faults, mapped) = mem.fold((0, 0), |(f, m), s| (f + s.faults, m + s.mapped_pages));
    c.insert("memsim.faults", faults);
    c.insert("memsim.mapped_pages", mapped);

    let p = svm.total_stats();
    for (k, v) in [
        ("proto.read_faults", p.read_faults),
        ("proto.write_faults", p.write_faults),
        ("proto.remote_fetches", p.remote_fetches),
        ("proto.fetch_bytes", p.fetch_bytes),
        ("proto.diffs_sent", p.diffs_sent),
        ("proto.diff_bytes", p.diff_bytes),
        ("proto.notices_applied", p.notices_applied),
        ("proto.diff_batches", p.diff_batches),
        ("proto.prefetch_issued", p.prefetch_issued),
        ("proto.prefetch_hits", p.prefetch_hits),
        ("proto.prefetch_wasted", p.prefetch_wasted),
        ("proto.migrations", p.migrations),
        ("proto.lock_forwards", p.lock_forwards),
        ("sync.lock_acquires", p.lock_acquires),
        ("sync.barrier_waits", p.barrier_waits),
    ] {
        c.insert(k, v);
    }
    let pl = svm.placement_report();
    c.insert("proto.touched_pages", pl.touched_pages);
    c.insert("proto.misplaced_pages", pl.misplaced_pages);

    let traffic: Vec<_> = nodes.iter().map(|&n| cluster.san.traffic(n)).collect();
    c.insert("san.msgs", traffic.iter().map(|t| t.messages_out).sum());
    c.insert("san.bytes", traffic.iter().map(|t| t.bytes_out).sum());
    let hottest = traffic.iter().map(|t| t.messages_out + t.messages_in).max();
    c.insert("san.max_nic_msgs", hottest.unwrap_or(0));

    let nics: Vec<_> = nodes.iter().map(|&n| cluster.vmmc.nic_stats(n)).collect();
    c.insert(
        "vmmc.max_nic_regions",
        nics.iter().map(|s| s.regions).max().unwrap_or(0),
    );
    c.insert(
        "vmmc.reg_bytes",
        nics.iter().map(|s| s.registered_bytes).sum(),
    );

    let s = rt.stats();
    c.insert("rt.nodes_attached", s.nodes_attached);
    c.insert("rt.remote_creates", s.remote_creates);
    c.insert("rt.pooled_dispatches", s.pooled_dispatches);
    c.insert("rt.cond_signals", s.cond_signals);
    let ops = rt.op_times();
    for (k, kind) in [
        ("rt.create_avg_ns", OpKind::Create),
        ("rt.join_avg_ns", OpKind::Join),
        ("rt.malloc_avg_ns", OpKind::Malloc),
    ] {
        c.insert(k, ops.avg_ns(kind).unwrap_or(0));
    }
    let w = rt.contention();
    c.insert("sync.mutex_wait_ns", w.mutex_wait_ns);
    c.insert("sync.mutex_max_waiters", w.mutex_max_waiters);
    c.insert("sync.cond_wait_ns", w.cond_wait_ns);
    c.insert("sync.barrier_wait_ns", w.barrier_wait_ns);
    c
}

/// CPU time this process has used so far (`CLOCK_PROCESS_CPUTIME_ID`).
/// On a paravirtualised guest it leaves out time the host stole.
pub fn cpu_now() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of the C `struct timespec` on
    // 64-bit Linux, and `clock_gettime` only writes into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}
