//! The home-migration policy extension (paper §2.1.3 provides the
//! mechanisms; the policy here is the counter-driven
//! [`PlacementPolicy`]).

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables_svm::{Cluster, ClusterConfig, PlacementPolicy, SvmConfig, SvmSystem};

fn cables_cfg(policy: bool) -> SvmConfig {
    let mut cfg = SvmConfig::cables();
    cfg.placement_policy = policy.then(PlacementPolicy::default);
    cfg
}

/// Node 1 repeatedly writes a segment homed on node 0 under a lock.
/// Returns (diffs sent by node 1, migrations to node 1, final value seen
/// by node 0).
fn run(policy: bool, rounds: u64) -> (u64, u64, u64) {
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cables_cfg(policy));
    let out = Arc::new(StdMutex::new((0u64, 0u64, 0u64)));
    let o2 = Arc::clone(&out);
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            // Master first-touches: home on node 0.
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
            let n1 = cluster.nodes()[1];
            let st = s2.node_stats(n1);
            *o2.lock().unwrap() = (st.diffs_sent, st.migrations, v);
        })
        .unwrap();
    let v = *out.lock().unwrap();
    v
}

#[test]
fn without_policy_every_release_diffs_remotely() {
    let (diffs, migrations, v) = run(false, 16);
    assert_eq!(migrations, 0, "paper configuration never migrates");
    assert_eq!(diffs, 16, "one remote diff per release");
    assert_eq!(v, 1501);
}

#[test]
fn sole_writer_chunk_migrates_exactly_once() {
    let (diffs, migrations, v) = run(true, 16);
    assert_eq!(migrations, 1, "one chunk migration to the writer");
    let floor = PlacementPolicy::default().min_traffic as u64;
    assert!(
        diffs <= floor,
        "after migration the writer is home (got {diffs} diffs)"
    );
    assert_eq!(v, 1501, "data survives the migration");
}

#[test]
fn reader_on_old_home_sees_post_migration_writes() {
    // After the chunk moves to node 1, node 0's stale copy must be
    // invalidated by the migration notice and refetched from the new home.
    let cluster = Cluster::build(ClusterConfig::small(2, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cables_cfg(true));
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            s2.write::<u64>(sim, a, 1);
            let s3 = Arc::clone(&s2);
            let worker = s2.create(sim, move |ws| {
                for r in 0..16u64 {
                    s3.lock(ws, 1);
                    s3.write::<u64>(ws, a, 10 + r);
                    s3.unlock(ws, 1);
                }
            });
            sim.wait_exit(worker);
            s2.lock(sim, 1);
            assert_eq!(s2.read::<u64>(sim, a), 25);
            s2.unlock(sim, 1);
            // The migration actually happened.
            let st = s2.node_stats(cluster.nodes()[1]);
            assert!(st.migrations >= 1);
        })
        .unwrap();
}

#[test]
fn alternating_writers_never_migrate() {
    // Two nodes alternate on the chunk: each carries about half its
    // remote traffic, so neither clears the dominance test and the chunk
    // stays put, however long they keep at it.
    let cluster = Cluster::build(ClusterConfig::small(3, 1));
    let sys = SvmSystem::new(Arc::clone(&cluster), cables_cfg(true));
    let s2 = Arc::clone(&sys);
    cluster
        .engine
        .clone()
        .run(cluster.nodes()[0], move |sim| {
            let a = s2.g_malloc(sim, 4096);
            s2.write::<u64>(sim, a, 0);
            const ROUNDS: u64 = 24;
            let mk = |sysr: Arc<SvmSystem>, delay: u64| {
                move |ws: &sim::Sim| {
                    ws.advance(delay);
                    for _ in 0..ROUNDS {
                        sysr.lock(ws, 1);
                        let v = sysr.read::<u64>(ws, a);
                        sysr.write::<u64>(ws, a, v + 1);
                        sysr.unlock(ws, 1);
                        ws.advance(50_000);
                    }
                }
            };
            let w1 = s2.create(sim, mk(Arc::clone(&s2), 0));
            let w2 = s2.create(sim, mk(Arc::clone(&s2), 25_000));
            sim.wait_exit(w1);
            sim.wait_exit(w2);
            s2.lock(sim, 1);
            assert_eq!(s2.read::<u64>(sim, a), 2 * ROUNDS);
            s2.unlock(sim, 1);
            let total = s2.total_stats();
            // The traffic floor was cleared and the policy kept deciding:
            // dominance alone is what held the chunk in place.
            let floor = PlacementPolicy::default().min_traffic as u64;
            assert!(total.remote_fetches + total.diffs_sent >= 2 * floor);
            assert!(total.policy_considered >= ROUNDS);
            assert!(total.pingpong_handoffs > 0);
            assert_eq!(total.migrations, 0, "split traffic, no migration");
        })
        .unwrap();
}
