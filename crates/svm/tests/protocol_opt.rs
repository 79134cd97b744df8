//! The protocol-traffic optimizations (batched diffs, stride prefetch)
//! are value-preserving, off-by-default, and replay-identical under
//! chaos; migration policy decisions are independent of diff batching.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables_svm::{Cluster, ClusterConfig, NodeStats, PlacementPolicy, SvmConfig, SvmSystem};

const PAGE: u64 = 4096;

fn opts_cfg(batch: bool, prefetch: bool) -> SvmConfig {
    SvmConfig::cables().with_protocol_opts(batch, prefetch)
}

/// Master first-touches `pages` pages on node 0, a worker on node 1 scans
/// them sequentially, then rewrites them under a lock; master verifies.
/// Returns (node-1 stats, checksum seen by the worker).
fn scan_run(cfg: SvmConfig, pages: u64) -> (NodeStats, u64) {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    let out = Arc::new(StdMutex::new((NodeStats::default(), 0u64)));
    let o2 = Arc::clone(&out);
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, pages * PAGE);
            for p in 0..pages {
                s2.write::<u64>(sim, a + p * PAGE, 1000 + p);
            }
            let s3 = Arc::clone(&s2);
            let sum = Arc::new(StdMutex::new(0u64));
            let sum2 = Arc::clone(&sum);
            let worker = s2.create(sim, move |ws| {
                s3.lock(ws, 1);
                let mut acc = 0u64;
                for p in 0..pages {
                    acc = acc.wrapping_mul(31).wrapping_add(s3.read::<u64>(ws, a + p * PAGE));
                }
                for p in 0..pages {
                    s3.write::<u64>(ws, a + p * PAGE, 2000 + p);
                }
                s3.unlock(ws, 1);
                *sum2.lock().unwrap() = acc;
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            for p in 0..pages {
                assert_eq!(s2.read::<u64>(sim, a + p * PAGE), 2000 + p);
            }
            s2.unlock(sim, 1);
            let st = s2.node_stats(cluster.nodes()[1]);
            *o2.lock().unwrap() = (st, *sum.lock().unwrap());
        })
        .unwrap();
    let v = *out.lock().unwrap();
    v
}

#[test]
fn sequential_scan_prefetches_and_preserves_values() {
    let (off, sum_off) = scan_run(opts_cfg(false, false), 16);
    let (on, sum_on) = scan_run(opts_cfg(false, true), 16);
    assert_eq!(sum_on, sum_off, "prefetch changed observed values");
    assert_eq!(off.prefetch_issued, 0);
    assert_eq!(off.prefetch_hits, 0);
    assert!(on.prefetch_issued >= 4, "stride run never confirmed");
    assert!(on.prefetch_hits >= 4, "prefetched pages were not consumed");
    assert!(
        on.remote_fetches < off.remote_fetches,
        "prefetch did not reduce fetch messages ({} -> {})",
        off.remote_fetches,
        on.remote_fetches
    );
}

#[test]
fn batched_diffs_cut_messages_not_bytes() {
    let (off, sum_off) = scan_run(opts_cfg(false, false), 16);
    let (on, sum_on) = scan_run(opts_cfg(true, false), 16);
    assert_eq!(sum_on, sum_off, "batching changed observed values");
    assert_eq!(off.diff_batches, 0);
    assert!(on.diff_batches >= 1, "no diff batch was shipped");
    assert!(
        on.diffs_sent < off.diffs_sent,
        "batching did not reduce diff messages ({} -> {})",
        off.diffs_sent,
        on.diffs_sent
    );
    assert_eq!(
        on.diff_bytes, off.diff_bytes,
        "batching must move exactly the same dirty bytes"
    );
}

#[test]
fn all_off_matches_baseline_config_byte_for_byte() {
    // `with_protocol_opts(false, false)` and an untouched
    // `SvmConfig::cables()` must drive byte-identical runs: same stats,
    // same simulated times, same Chrome-trace export.
    let run = |cfg: SvmConfig| -> (NodeStats, String, u64) {
        let cluster = Cluster::build(ClusterConfig::small(2, 1));
        let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
        sys.set_obs(true);
        let out = Arc::new(StdMutex::new((NodeStats::default(), String::new(), 0u64)));
        let o2 = Arc::clone(&out);
        let s2 = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let a = s2.g_malloc(sim, 8 * PAGE);
                for p in 0..8 {
                    s2.write::<u64>(sim, a + p * PAGE, p);
                }
                let s3 = Arc::clone(&s2);
                let worker = s2.create(sim, move |ws| {
                    s3.lock(ws, 1);
                    for p in 0..8 {
                        let v = s3.read::<u64>(ws, a + p * PAGE);
                        s3.write::<u64>(ws, a + p * PAGE, v + 10);
                    }
                    s3.unlock(ws, 1);
                });
                sim.wait_exit(worker);
                s2.lock(sim, 1);
                let v = s2.read::<u64>(sim, a + 7 * PAGE);
                s2.unlock(sim, 1);
                let export = obs::chrome::export(&s2.obs().events());
                *o2.lock().unwrap() = (s2.total_stats(), export, v);
            })
            .unwrap();
        let v = out.lock().unwrap().clone();
        v
    };
    let (st_base, trace_base, v_base) = run(SvmConfig::cables());
    let (st_off, trace_off, v_off) = run(opts_cfg(false, false));
    assert_eq!(v_base, 17);
    assert_eq!(v_off, v_base);
    assert_eq!(st_off, st_base, "all-off must not perturb any counter");
    assert_eq!(
        trace_off, trace_base,
        "all-off must export a byte-identical trace"
    );
    // And the new counters are all zero on the untouched protocol.
    assert_eq!(st_base.diff_batches, 0);
    assert_eq!(st_base.batched_diff_bytes, 0);
    assert_eq!(st_base.prefetch_issued, 0);
    assert_eq!(st_base.prefetch_hits, 0);
    assert_eq!(st_base.prefetch_wasted, 0);
    assert_eq!(st_base.lock_forwards, 0);
}

#[test]
fn chaos_replay_is_bit_identical_with_all_opts_on() {
    // A batch is one message for drop/duplicate purposes: the same seed
    // must reproduce the same simulated end time and the same counters
    // with every optimization enabled.
    let run = || -> (u64, NodeStats, u64) {
        let cluster = Cluster::build(ClusterConfig::small(2, 1));
        cluster.set_chaos(chaos::ChaosEngine::new(
            42,
            chaos::FaultPlan::new().wire(chaos::WireFaults {
                drop_p: 0.05,
                dup_p: 0.05,
                ..chaos::WireFaults::default()
            }),
        ));
        let sys = SvmSystem::new(Arc::clone(&cluster), opts_cfg(true, true));
        let out = Arc::new(StdMutex::new((0u64, NodeStats::default(), 0u64)));
        let o2 = Arc::clone(&out);
        let s2 = Arc::clone(&sys);
        cluster
            .engine
            .clone()
            .run(cluster.nodes()[0], move |sim| {
                let a = s2.g_malloc(sim, 16 * PAGE);
                for p in 0..16 {
                    s2.write::<u64>(sim, a + p * PAGE, p);
                }
                let s3 = Arc::clone(&s2);
                let worker = s2.create(sim, move |ws| {
                    s3.lock(ws, 1);
                    let mut acc = 0u64;
                    for p in 0..16 {
                        acc = acc.wrapping_mul(31).wrapping_add(s3.read::<u64>(ws, a + p * PAGE));
                    }
                    for p in 0..16 {
                        s3.write::<u64>(ws, a + p * PAGE, acc + p);
                    }
                    s3.unlock(ws, 1);
                });
                sim.wait_exit(worker);
                s2.lock(sim, 1);
                let v = s2.read::<u64>(sim, a + 3 * PAGE);
                s2.unlock(sim, 1);
                *o2.lock().unwrap() = (sim.now().as_nanos(), s2.total_stats(), v);
            })
            .unwrap();
        let v = *out.lock().unwrap();
        v
    };
    let (t1, st1, v1) = run();
    let (t2, st2, v2) = run();
    assert_eq!(t1, t2, "chaos replay diverged in simulated time");
    assert_eq!(st1, st2, "chaos replay diverged in protocol counters");
    assert_eq!(v1, v2, "chaos replay diverged in data");
}

/// The placement policy's traffic counters must see one diff message per
/// chunk per release regardless of how the diffs travel: batching on and
/// off must migrate at exactly the same release. Returns (node-1 diffs,
/// migrations to node 1, final value seen by node 0).
fn migration_run(policy: Option<PlacementPolicy>, batch: bool, rounds: u64) -> (u64, u64, u64) {
    let mut cfg = opts_cfg(batch, false);
    cfg.placement_policy = policy;
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cfg);
    let out = Arc::new(StdMutex::new((0u64, 0u64, 0u64)));
    let o2 = Arc::clone(&out);
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, PAGE);
            s2.write::<u64>(sim, a, 0);
            let s3 = Arc::clone(&s2);
            let worker = s2.create(sim, move |ws| {
                for r in 0..rounds {
                    s3.lock(ws, 1);
                    for w in 0..16u64 {
                        s3.write::<u64>(ws, a + w * 8, r * 100 + w);
                    }
                    s3.unlock(ws, 1);
                }
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            let v = s2.read::<u64>(sim, a + 8);
            s2.unlock(sim, 1);
            let st = s2.node_stats(cluster.nodes()[1]);
            *o2.lock().unwrap() = (st.diffs_sent, st.migrations, v);
        })
        .unwrap();
    let v = *out.lock().unwrap();
    v
}

#[test]
fn migration_triggers_at_the_same_release_with_batching() {
    for policy in [None, Some(PlacementPolicy::default())] {
        let (diffs_off, mig_off, v_off) = migration_run(policy, false, 16);
        let (diffs_on, mig_on, v_on) = migration_run(policy, true, 16);
        assert_eq!(
            mig_on, mig_off,
            "batching changed the migration decision under {policy:?}"
        );
        assert_eq!(v_on, v_off, "data diverged under {policy:?}");
        // One page to one home per release, and remote diffs stop once
        // the writer is home: equal counts mean the same release.
        assert_eq!(diffs_on, diffs_off, "migrated at a different release under {policy:?}");
    }
    // And the policy still actually fires, once, before the run ends.
    let (diffs, mig, v) = migration_run(Some(PlacementPolicy::default()), true, 16);
    assert_eq!(mig, 1);
    assert!(diffs < 16, "the writer never became home ({diffs} remote diffs)");
    assert_eq!(v, 1501);
}
