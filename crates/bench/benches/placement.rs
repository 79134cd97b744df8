//! Sharing-aware placement policy sweep: counters → migration, affinity
//! threads.
//!
//! Runs three workloads — OCEAN (boundary-row chunk sharing), RADIX
//! (permutation-phase all-to-all) and the zipfian open-loop KV service —
//! with the placement extensions off and on, and produces
//! `BENCH_placement.json` with per-cell traffic counters, simulated
//! times and policy decision counts. "On" means both legs at once: the
//! counter-driven home-migration policy (`SvmConfig::placement_policy`)
//! and affinity thread placement (`CablesConfig::affinity_placement`).
//!
//! Asserted invariants:
//!
//! - the policies are value-preserving: identical application checksums
//!   (kernels) and response digests (service) with the policy on;
//! - the off cells report zero for every policy counter (the paper
//!   configuration is untouched);
//! - policy-on reduces remote fetch + diff protocol messages on at least
//!   two of the three workloads (and shortens simulated time on at least
//!   two at full size — smoke sizes are µs-scale noise);
//! - the policy actually decides: `policy_considered > 0` everywhere,
//!   and at least one workload migrates.
//!
//! The artifact also answers the prefetch question with a 2×2
//! migration×prefetch grid on OCEAN under the placement policy alone:
//! stride prefetch batches demand fetches, so does it also starve the
//! remote-traffic counters the policy keys on? Each cell records
//! migration counts, prefetch counters and the `prefetch_masked`
//! stall-bucket total.
//!
//! Run with `--test` for the CI smoke mode: tiny sizes, same artifact,
//! same assertions except the end-to-end time comparison.

use std::sync::{Arc, Mutex as StdMutex};

use apps::service::{run_service, ServiceParams};
use apps::splash::{ocean, radix};
use apps::{M4Ctx, M4System};
use cables::{CablesConfig, CablesRt};
use cables_bench::{cluster_for, fmt_ns, header, smoke_mode, write_artifact};
use obs::json::Value;
use obs::obj;
use obs::stall::{self, Bucket};
use sim::EngineMode;
use svm::{Cluster, NodeStats, PlacementPolicy, SvmConfig};
use traffic::{schedule, TrafficConfig};

struct Cell {
    sim_ns: u64,
    checksum: u64,
    stats: NodeStats,
}

fn cell_value(c: &Cell) -> Value {
    obj! {
        "sim_time_ns" => c.sim_ns,
        "remote_fetches" => c.stats.remote_fetches,
        "diffs_sent" => c.stats.diffs_sent,
        "fetch_bytes" => c.stats.fetch_bytes,
        "diff_bytes" => c.stats.diff_bytes,
        "migrations" => c.stats.migrations,
        "pingpong_handoffs" => c.stats.pingpong_handoffs,
        "policy_considered" => c.stats.policy_considered,
        "policy_migrations" => c.stats.policy_migrations,
        "checksum" => c.checksum,
    }
}

/// Both cells model a warm long-running deployment: the node set is
/// pre-attached, so the off cell's round-robin scatters consecutively
/// created threads across nodes (the misplacement the policy exists to
/// fix) instead of accidentally block-placing them via lazy attach.
fn kernel_cfg(on: bool, nodes: usize) -> CablesConfig {
    CablesConfig {
        svm: if on {
            SvmConfig::cables().with_placement_policy()
        } else {
            SvmConfig::cables()
        },
        affinity_placement: on,
        pre_attach: nodes,
        ..CablesConfig::paper()
    }
}

/// Runs one kernel cell on the green-thread parallel backend (same
/// promotion as the protocol_opt grid).
fn run_kernel(procs: usize, cfg: CablesConfig, body: impl FnOnce(&M4Ctx) -> u64 + Send + 'static) -> Cell {
    let mut cluster_cfg = cluster_for(procs);
    cluster_cfg.engine = EngineMode::Parallel;
    let cluster = Cluster::build(cluster_cfg);
    let sys = M4System::cables_with(Arc::clone(&cluster), cfg);
    let result: Arc<StdMutex<Option<u64>>> = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let end = sys
        .run(move |ctx| {
            *slot.lock().unwrap() = Some(body(ctx));
        })
        .expect("kernel run");
    let checksum = result.lock().unwrap().take().expect("kernel result");
    let stats = sys.svm().total_stats();
    Cell {
        sim_ns: end.as_nanos(),
        checksum,
        stats,
    }
}

fn ocean_body(smoke: bool) -> impl FnOnce(&M4Ctx) -> u64 + Send + 'static {
    move |ctx: &M4Ctx| {
        // n = 126 in both modes: the grid must span several 64 KB chunks
        // (each covering many ranks' row blocks) for placement to have
        // anything to grip; smoke only trims sweeps and processors.
        let p = if smoke {
            ocean::OceanParams::bench(126, 2, 16)
        } else {
            ocean::OceanParams::bench(126, 8, 32)
        };
        ocean::ocean(ctx, &p).checksum.to_bits()
    }
}

fn radix_body(smoke: bool) -> impl FnOnce(&M4Ctx) -> u64 + Send + 'static {
    move |ctx: &M4Ctx| {
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
}

/// Runs one service cell: the zipfian open-loop schedule under `cfg`.
fn run_service_cell(smoke: bool, on: bool) -> Cell {
    // A rate the 4-node deployment absorbs without tripping the
    // enqueue dead-shard fallback, hot-key zipfian skew.
    let procs = 8;
    let sched = if smoke {
        schedule(&TrafficConfig::zipfian(7, 150, 128, 1_500_000))
    } else {
        schedule(&TrafficConfig::zipfian(7, 600, 512, 1_500_000))
    };
    let cluster = Cluster::build(cluster_for(procs));
    let rt = CablesRt::new(Arc::clone(&cluster), kernel_cfg(on, procs.div_ceil(2)));
    let params = ServiceParams::test();
    let out = Arc::new(StdMutex::new(None));
    let o2 = Arc::clone(&out);
    let end = rt
        .run(move |pth| {
            *o2.lock().unwrap() = Some(run_service(pth, &sched, params));
            0
        })
        .expect("service run");
    let outcome = out.lock().unwrap().take().expect("service outcome");
    assert_eq!(outcome.direct_served, 0, "service cell used a crash fallback");
    Cell {
        sim_ns: end.as_nanos(),
        checksum: outcome.digest,
        stats: rt.svm().total_stats(),
    }
}

/// One migration×prefetch grid cell on OCEAN under the placement
/// policy alone (no affinity), with observability on for the
/// `prefetch_masked` stall total.
fn run_grid_cell(smoke: bool, migration: bool, prefetch: bool) -> (Cell, u64) {
    let mut cfg = SvmConfig::cables();
    cfg.placement_policy = migration.then(PlacementPolicy::default);
    if prefetch {
        cfg.prefetch_degree = 4;
    }
    let procs = if smoke { 16 } else { 32 };
    let mut cluster_cfg = cluster_for(procs);
    cluster_cfg.engine = EngineMode::Parallel;
    let cluster = Cluster::build(cluster_cfg);
    let sys = M4System::cables_with(
        Arc::clone(&cluster),
        CablesConfig {
            svm: cfg,
            ..CablesConfig::paper()
        },
    );
    sys.svm().set_obs(true);
    let body = ocean_body(smoke);
    let result: Arc<StdMutex<Option<u64>>> = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let end = sys
        .run(move |ctx| {
            *slot.lock().unwrap() = Some(body(ctx));
        })
        .expect("grid run");
    let sim_ns = end.as_nanos();
    let svm = sys.svm();
    let sink = svm.obs();
    let events = sink.events();
    let dropped = sink.dropped_events();
    let slice_ns = (sim_ns / 64).max(1);
    let profile = stall::analyze(&events, dropped, slice_ns).expect("stall profile");
    let masked_ns: u64 = profile
        .threads
        .iter()
        .map(|t| t.buckets[Bucket::PrefetchMasked as usize])
        .sum();
    let checksum = result.lock().unwrap().take().expect("grid result");
    let stats = svm.total_stats();
    (
        Cell {
            sim_ns,
            checksum,
            stats,
        },
        masked_ns,
    )
}

fn main() {
    let smoke = smoke_mode();
    header(
        "placement: sharing-aware placement, policy off vs on",
        "extension; the paper provides migration mechanisms but no policy (§2.1.3)",
    );

    let mut workloads = Vec::new();

    println!(
        "{:<14} {:>6} {:>13} {:>13} {:>11} {:>11} {:>9} {:>9}",
        "workload", "cell", "sim time", "rem fetches", "diffs", "msgs", "migr", "pingpong"
    );

    let mut wins_msgs = 0usize;
    let mut wins_time = 0usize;
    let mut any_migrated = false;

    let cells: Vec<(&str, Cell, Cell)> = {
        let svc_off = run_service_cell(smoke, false);
        let svc_on = run_service_cell(smoke, true);
        let procs: usize = if smoke { 16 } else { 32 };
        let nodes = procs.div_ceil(2);
        let ocean_off = run_kernel(procs, kernel_cfg(false, nodes), ocean_body(smoke));
        let ocean_on = run_kernel(procs, kernel_cfg(true, nodes), ocean_body(smoke));
        let radix_off = run_kernel(procs, kernel_cfg(false, nodes), radix_body(smoke));
        let radix_on = run_kernel(procs, kernel_cfg(true, nodes), radix_body(smoke));
        vec![
            ("OCEAN", ocean_off, ocean_on),
            ("RADIX", radix_off, radix_on),
            ("service_zipf", svc_off, svc_on),
        ]
    };

    for (name, off, on) in &cells {
        for (cell_name, c) in [("off", off), ("on", on)] {
            println!(
                "{:<14} {:>6} {:>13} {:>13} {:>11} {:>11} {:>9} {:>9}",
                name,
                cell_name,
                c.sim_ns,
                c.stats.remote_fetches,
                c.stats.diffs_sent,
                c.stats.remote_fetches + c.stats.diffs_sent,
                c.stats.migrations,
                c.stats.pingpong_handoffs
            );
        }
        // Value preservation: checksums/digests must match exactly.
        assert_eq!(
            off.checksum, on.checksum,
            "{name}: policy-on changed the application result"
        );
        // The paper configuration is untouched: no policy counter moves.
        assert_eq!(off.stats.migrations, 0, "{name}: policy-off migrated");
        assert_eq!(off.stats.policy_considered, 0, "{name}: policy-off considered");
        assert_eq!(off.stats.pingpong_handoffs, 0, "{name}: policy-off counted handoffs");
        // The policy engages everywhere it is on.
        assert!(
            on.stats.policy_considered > 0,
            "{name}: policy never considered a migration"
        );
        any_migrated |= on.stats.policy_migrations > 0;
        let off_msgs = off.stats.remote_fetches + off.stats.diffs_sent;
        let on_msgs = on.stats.remote_fetches + on.stats.diffs_sent;
        if on_msgs < off_msgs {
            wins_msgs += 1;
        }
        if on.sim_ns < off.sim_ns {
            wins_time += 1;
        }
        println!(
            "{name}: fetch+diff messages {off_msgs} -> {on_msgs}, time {} -> {}\n",
            fmt_ns(off.sim_ns),
            fmt_ns(on.sim_ns)
        );

        workloads.push(obj! {
            "workload" => *name,
            "off" => cell_value(off),
            "on" => cell_value(on),
            "identical_results" => true,
        });
    }

    assert!(
        wins_msgs >= 2,
        "policy-on reduced fetch+diff messages on only {wins_msgs}/3 workloads"
    );
    if !smoke {
        assert!(
            wins_time >= 2,
            "policy-on shortened simulated time on only {wins_time}/3 workloads"
        );
    }
    assert!(any_migrated, "the placement policy never migrated a chunk");

    // ---- Does prefetch starve the migration policy? 2×2 on OCEAN:
    // migration × stride prefetch. ----
    println!(
        "{:<28} {:>13} {:>9} {:>10} {:>9} {:>14}",
        "grid cell (OCEAN)", "sim time", "migr", "pf issued", "pf hits", "pf_masked ns"
    );
    let mut grid = Vec::new();
    let mut grid_cells = Vec::new();
    for (migration, prefetch) in [(false, false), (false, true), (true, false), (true, true)] {
        let (c, masked_ns) = run_grid_cell(smoke, migration, prefetch);
        println!(
            "{:<28} {:>13} {:>9} {:>10} {:>9} {:>14}",
            format!("migration={} prefetch={}", migration as u8, prefetch as u8),
            c.sim_ns,
            c.stats.migrations,
            c.stats.prefetch_issued,
            c.stats.prefetch_hits,
            masked_ns
        );
        grid.push(obj! {
            "migration" => migration,
            "prefetch" => prefetch,
            "sim_time_ns" => c.sim_ns,
            "migrations" => c.stats.migrations,
            "prefetch_issued" => c.stats.prefetch_issued,
            "prefetch_hits" => c.stats.prefetch_hits,
            "prefetch_masked_ns" => masked_ns,
            "checksum" => c.checksum,
        });
        grid_cells.push((migration, prefetch, c, masked_ns));
    }
    // All four grid cells compute identical bits.
    for (m, p, c, _) in &grid_cells[1..] {
        assert_eq!(
            c.checksum, grid_cells[0].2.checksum,
            "OCEAN grid result differs at migration={m} prefetch={p}"
        );
    }
    let migr_only = grid_cells[2].2.stats.migrations;
    let migr_with_pf = grid_cells[3].2.stats.migrations;
    println!(
        "\nprefetch vs the placement policy: {migr_only} migration(s) without prefetch, \
         {migr_with_pf} with it\n(prefetch_masked_ns per cell quantifies the masking)."
    );

    let artifact = obj! {
        "bench" => "placement",
        "smoke" => smoke,
        "workloads" => Value::Arr(workloads),
        "migration_prefetch_grid" => Value::Arr(grid),
    };
    write_artifact("BENCH_placement.json", &artifact);
}
