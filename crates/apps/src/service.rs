//! A sharded key-value service hosted on CableS pthreads primitives —
//! the "serve real traffic" workload of the evaluation.
//!
//! Unlike the SPLASH kernels (start, barrier, exit), this is a
//! request-driven long-runner: keys map round-robin to per-shard store
//! regions in `global_malloc`'d memory (each region first-touched by its
//! own shard's workers, so first-touch placement homes shards across the
//! cluster), per-shard pthread worker pools drain per-shard ring-buffer
//! request queues, and every bucket access happens under a fine-grained
//! bucket mutex, so every request exercises the RC lock path.
//!
//! Two drivers (mirroring [`traffic::Driver`]):
//!
//! * **open loop** — the initial thread plays dispatcher: it sleeps to
//!   each request's scheduled arrival, enqueues it on its shard, and
//!   never waits for responses; workers emit the request's
//!   [`obs::Event::ServiceRequest`] span (scheduled arrival →
//!   completion, so queueing delay — and coordinated omission — is
//!   inside the measurement).
//! * **closed loop** — `clients` client threads each issue, block on
//!   their response condvar, think, repeat; the client emits the span
//!   (issue → response, retries included).
//!
//! ## Crash tolerance
//!
//! A chaos node crash kills every worker and client on that node
//! (joiners see [`CRASHED_RET`](cables::CRASHED_RET)); bucket mutexes
//! held by the dead hand off via crash recovery, and the store/queue
//! regions survive in SVM. Progress is restored by fallbacks that only
//! use resources the crash cannot take down:
//!
//! * closed-loop clients wait with `cond_timedwait`; on timeout they
//!   re-enqueue (every op is idempotent: `put`/`delete` write state that
//!   is a pure function of the key), and after a few attempts
//!   *direct-serve* — execute the op themselves under the bucket mutex.
//! * the open-loop dispatcher watches per-shard `served` counters; when
//!   progress stalls past the timeout it reaps: any request whose
//!   response slot is still empty is direct-served from the dispatcher
//!   (node 0 never crashes — the fault plan forbids it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cables::{Cond, Mutex, Pth};
use memsim::GAddr;
use obs::{Event, Layer, ServiceOp};
use sim::SimTime;
use traffic::{Driver, OpKind, Request, Schedule};

/// Response value for a `get`/`scan` miss on an empty slot.
pub const EMPTY: u64 = 0xEEEE_EEEE_EEEE_EEEE;

/// Queue sentinel telling a worker to exit (consumed one-per-worker).
const POISON: u64 = u64::MAX;

/// Deterministic value contents: word `i` of `key`'s value.
#[inline]
pub fn val_word(key: u64, i: u32) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64
}

/// Service deployment parameters (the store's shape; the workload's
/// shape lives in [`traffic::TrafficConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceParams {
    /// Store shards (keys map round-robin: `shard = key % shards`).
    pub shards: u32,
    /// Worker threads per shard.
    pub workers_per_shard: u32,
    /// Bucket mutexes per shard (lock striping within a shard).
    pub locks_per_shard: u32,
    /// Request-queue capacity per shard (ring slots).
    pub queue_cap: u64,
    /// Simulated per-request parse/hash compute at the worker, ns.
    pub proc_ns: u64,
    /// Response-wait window before a crash fallback fires, ns.
    pub timeout_ns: u64,
}

impl ServiceParams {
    /// A small deployment for tests: 4 shards x 2 workers.
    pub fn test() -> ServiceParams {
        ServiceParams {
            shards: 4,
            workers_per_shard: 2,
            locks_per_shard: 8,
            queue_cap: 64,
            proc_ns: 500,
            timeout_ns: 2_000_000,
        }
    }
}

/// What one service run produced (all deterministic given config +
/// engine semantics; the bench's replay check compares `digest`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// FNV-1a over every response slot (done flag + value) in request-id
    /// order — the bit-identity witness of the run's visible behavior.
    pub digest: u64,
    /// Requests completed by shard workers.
    pub served: u64,
    /// Requests completed by a crash fallback (dispatcher reap or
    /// client direct-serve). 0 on fault-free runs.
    pub direct_served: u64,
    /// Closed-loop re-enqueues after response timeouts. 0 fault-free.
    pub retries: u64,
    /// Simulated serving window: from the worker pools' ready barrier to
    /// the last response (excludes node attach and shutdown, so
    /// `requests / serve_ns` is the service's throughput).
    pub serve_ns: u64,
}

/// Per-shard runtime handles (host-side ids; the backing state lives in
/// the CableS runtime and in global memory).
struct Shard {
    /// Store region: `slots * (1 + val_words)` words; slot `i` holds key
    /// `i * shards + shard`.
    store: GAddr,
    /// Slots in this shard's store region.
    slots: u64,
    /// Queue region: `[head, tail, served, ring(queue_cap)]` words.
    queue: GAddr,
    /// Ring slots in the queue region.
    ring_cap: u64,
    q_m: Mutex,
    not_empty: Cond,
    not_full: Cond,
    /// Striped bucket locks.
    locks: Vec<Mutex>,
}

/// Everything a worker/client/dispatcher needs, shared host-side (ids
/// and layout only — all mutable service state is in global memory or
/// the runtime, so sharing this does not bypass the SVM).
struct Plan {
    params: ServiceParams,
    keys: u64,
    val_words: u32,
    shards: Vec<Shard>,
    /// Response region: `requests * 2` words (`[done, value]` each).
    resp: GAddr,
    requests: Arc<Vec<Request>>,
    /// Per-client response mutex/cond (closed loop only).
    client_m: Vec<Mutex>,
    client_c: Vec<Cond>,
    /// Simulated ns the open-loop schedule's clock zero maps to (set
    /// after the ready barrier, before the first enqueue; host-side
    /// plumbing of a deterministic value, not shared service state).
    base_ns: AtomicU64,
}

impl Plan {
    fn shard_of(&self, key: u64) -> u32 {
        (key % self.params.shards as u64) as u32
    }

    fn slot_addr(&self, key: u64) -> GAddr {
        let s = &self.shards[self.shard_of(key) as usize];
        let idx = key / self.params.shards as u64;
        s.store + idx * (1 + self.val_words as u64) * 8
    }

    fn bucket_lock(&self, key: u64) -> Mutex {
        let s = &self.shards[self.shard_of(key) as usize];
        let idx = key / self.params.shards as u64;
        s.locks[(idx % self.params.locks_per_shard as u64) as usize]
    }

    fn resp_addr(&self, id: u32) -> GAddr {
        self.resp + id as u64 * 16
    }

    /// A request's scheduled arrival on the simulation clock (open loop):
    /// its schedule offset past the serving window's start.
    fn arrival_at(&self, r: &Request) -> u64 {
        self.base_ns.load(Ordering::SeqCst) + r.arrival_ns
    }

    /// Executes one request's store operation under its bucket lock(s)
    /// and returns the response value. Idempotent by construction:
    /// `put` writes a pure function of the key, so a crash-retry
    /// re-execution converges.
    fn execute(&self, p: &Pth, r: &Request) -> u64 {
        p.compute(self.params.proc_ns);
        match r.op {
            OpKind::Get => {
                let m = self.bucket_lock(r.key);
                let slot = self.slot_addr(r.key);
                p.mutex_lock(m);
                let tag = p.read::<u64>(slot);
                let v = if tag == r.key + 1 {
                    let v0 = p.read::<u64>(slot + 8);
                    assert_eq!(v0, val_word(r.key, 0), "torn read: key {}", r.key);
                    v0
                } else {
                    EMPTY
                };
                p.mutex_unlock(m);
                v
            }
            OpKind::Put => {
                let m = self.bucket_lock(r.key);
                let slot = self.slot_addr(r.key);
                p.mutex_lock(m);
                let prev = p.read::<u64>(slot);
                p.write::<u64>(slot, r.key + 1);
                for i in 0..self.val_words {
                    p.write::<u64>(slot + 8 + i as u64 * 8, val_word(r.key, i));
                }
                p.mutex_unlock(m);
                prev
            }
            OpKind::Delete => {
                let m = self.bucket_lock(r.key);
                let slot = self.slot_addr(r.key);
                p.mutex_lock(m);
                let prev = p.read::<u64>(slot);
                p.write::<u64>(slot, 0);
                p.mutex_unlock(m);
                prev
            }
            OpKind::Scan => {
                // Consecutive keys, one bucket lock at a time (never
                // nested, so scans cannot deadlock against writers).
                let mut sum = 0u64;
                for j in 0..r.scan_len as u64 {
                    let k = (r.key + j) % self.keys;
                    let m = self.bucket_lock(k);
                    let slot = self.slot_addr(k);
                    p.mutex_lock(m);
                    let tag = p.read::<u64>(slot);
                    if tag == k + 1 {
                        sum = sum.wrapping_add(p.read::<u64>(slot + 8));
                    }
                    p.mutex_unlock(m);
                }
                sum
            }
        }
    }
}

fn service_op(op: OpKind) -> ServiceOp {
    match op {
        OpKind::Get => ServiceOp::Get,
        OpKind::Put => ServiceOp::Put,
        OpKind::Delete => ServiceOp::Delete,
        OpKind::Scan => ServiceOp::Scan,
    }
}

/// Emits the request's lifecycle span (`start_ns` → now) on the calling
/// thread's lane. The only span kind attributed to [`Layer::Service`].
fn emit_span(p: &Pth, plan: &Plan, r: &Request, start_ns: u64) {
    let o = p.rt().svm().obs();
    let now = p.sim.now();
    o.span(
        Layer::Service,
        p.node(),
        p.sim.tid().0,
        SimTime::from_nanos(start_ns),
        now.as_nanos().saturating_sub(start_ns),
        Event::ServiceRequest {
            op: service_op(r.op),
            shard: plan.shard_of(r.key),
            key: r.key,
        },
    );
}

/// Dequeues one item from `shard`'s ring (blocking). Returns the raw
/// slot word ([`POISON`] tells the worker to exit).
fn dequeue(p: &Pth, s: &Shard) -> u64 {
    p.mutex_lock(s.q_m);
    loop {
        let head = p.read::<u64>(s.queue);
        let tail = p.read::<u64>(s.queue + 8);
        if head > tail {
            break;
        }
        p.cond_wait(s.not_empty, s.q_m).expect("worker cancelled");
    }
    let tail = p.read::<u64>(s.queue + 8);
    let item = p.read::<u64>(s.queue + 24 + (tail % s.slots_ring()) * 8);
    p.write::<u64>(s.queue + 8, tail + 1);
    p.cond_signal(s.not_full);
    p.mutex_unlock(s.q_m);
    item
}

impl Shard {
    fn slots_ring(&self) -> u64 {
        self.ring_cap
    }
}

/// Enqueues `item` on `shard`, waiting (bounded) while the ring is full.
/// Returns false when the queue stayed full for `attempts` timeout
/// windows — the shard is presumed dead and the caller must fall back.
fn enqueue(p: &Pth, s: &Shard, item: u64, timeout_ns: u64, attempts: u32) -> bool {
    p.mutex_lock(s.q_m);
    let mut stalls = 0;
    loop {
        let head = p.read::<u64>(s.queue);
        let tail = p.read::<u64>(s.queue + 8);
        if head - tail < s.slots_ring() {
            break;
        }
        let woken = p
            .cond_timedwait(s.not_full, s.q_m, timeout_ns)
            .expect("enqueue cancelled");
        if !woken {
            stalls += 1;
            if stalls >= attempts {
                p.mutex_unlock(s.q_m);
                return false;
            }
        }
    }
    let head = p.read::<u64>(s.queue);
    p.write::<u64>(s.queue + 24 + (head % s.slots_ring()) * 8, item);
    p.write::<u64>(s.queue, head + 1);
    p.cond_signal(s.not_empty);
    p.mutex_unlock(s.q_m);
    true
}

/// Runs the service for `sched` on the current CableS runtime and
/// returns the outcome. Must be called from the runtime's main thread
/// (it creates and joins every worker/client).
pub fn run_service(pth: &Pth, sched: &Schedule, params: ServiceParams) -> ServiceOutcome {
    assert!(params.shards > 0 && params.workers_per_shard > 0);
    let cfg = &sched.config;
    let keys = cfg.keys;
    let val_words = cfg.val_words.max(1);
    let nreq = sched.requests.len() as u32;

    // ---- Global layout ----
    let mut shards = Vec::with_capacity(params.shards as usize);
    for sh in 0..params.shards as u64 {
        let slots = keys / params.shards as u64
            + u64::from(sh < keys % params.shards as u64);
        let slots = slots.max(1);
        let store = pth.malloc(slots * (1 + val_words as u64) * 8);
        let queue = pth.malloc((3 + params.queue_cap) * 8);
        // Queue header [head, tail, served] is dispatcher-adjacent
        // state: the dispatcher first-touches it; the store region is
        // first-touched by the shard's own workers below.
        pth.write::<u64>(queue, 0);
        pth.write::<u64>(queue + 8, 0);
        pth.write::<u64>(queue + 16, 0);
        shards.push(Shard {
            store,
            slots,
            queue,
            ring_cap: params.queue_cap,
            q_m: pth.rt().mutex_new(),
            not_empty: pth.rt().cond_new(),
            not_full: pth.rt().cond_new(),
            locks: (0..params.locks_per_shard)
                .map(|_| pth.rt().mutex_new())
                .collect(),
        });
    }
    let resp = pth.malloc(nreq as u64 * 16);
    for id in 0..nreq as u64 {
        pth.write::<u64>(resp + id * 16, 0);
    }

    let (clients, think_ns) = match cfg.driver {
        Driver::ClosedLoop { clients, think_ns } => (clients, think_ns),
        Driver::OpenLoop => (0, 0),
    };
    let plan = Arc::new(Plan {
        params,
        keys,
        val_words,
        shards,
        resp,
        requests: Arc::new(sched.requests.clone()),
        client_m: (0..clients).map(|_| pth.rt().mutex_new()).collect(),
        client_c: (0..clients).map(|_| pth.rt().cond_new()).collect(),
        base_ns: AtomicU64::new(0),
    });

    // ---- Worker pools (per shard) ----
    let total_workers = params.shards * params.workers_per_shard;
    let ready = pth.rt().barrier_new();
    let open_loop = matches!(cfg.driver, Driver::OpenLoop);
    let mut workers = Vec::with_capacity(total_workers as usize);
    for sh in 0..params.shards {
        for w in 0..params.workers_per_shard {
            let plan = Arc::clone(&plan);
            workers.push(pth.create(move |p| {
                let s = &plan.shards[sh as usize];
                if w == 0 {
                    // First touch: worker 0 claims the shard's store
                    // pages, homing them where the pool runs.
                    for i in 0..s.slots {
                        p.write::<u64>(s.store + i * (1 + plan.val_words as u64) * 8, 0);
                    }
                }
                p.barrier(ready, total_workers as usize + 1);
                let mut served = 0u64;
                loop {
                    let item = dequeue(p, s);
                    if item == POISON {
                        break;
                    }
                    let r = plan.requests[item as usize];
                    let v = plan.execute(p, &r);
                    let ra = plan.resp_addr(r.id);
                    if open_loop {
                        p.write::<u64>(ra + 8, v);
                        p.write::<u64>(ra, 1);
                        emit_span(p, &plan, &r, plan.arrival_at(&r));
                    } else {
                        // Hold the client's mutex across publish +
                        // signal: the classic lost-wakeup guard.
                        let cm = plan.client_m[r.client as usize];
                        p.mutex_lock(cm);
                        p.write::<u64>(ra + 8, v);
                        p.write::<u64>(ra, 1);
                        p.cond_signal(plan.client_c[r.client as usize]);
                        p.mutex_unlock(cm);
                    }
                    served += 1;
                    p.mutex_lock(s.q_m);
                    let d = p.read::<u64>(s.queue + 16);
                    p.write::<u64>(s.queue + 16, d + 1);
                    p.mutex_unlock(s.q_m);
                }
                served
            }));
        }
    }
    pth.barrier(ready, total_workers as usize + 1);
    let serve_t0 = pth.sim.now();

    let mut direct_served = 0u64;
    let mut retries = 0u64;

    match cfg.driver {
        Driver::OpenLoop => {
            // ---- Dispatcher: play the schedule ----
            // The schedule's clock zero is the serving window's start:
            // pools are up, attach paid. Workers read the base only for
            // requests they dequeued, i.e. after it was published.
            plan.base_ns.store(serve_t0.as_nanos(), Ordering::SeqCst);
            for r in plan.requests.iter() {
                let now = pth.sim.now().as_nanos();
                let due = plan.arrival_at(r);
                if due > now {
                    pth.compute(due - now);
                }
                let s = &plan.shards[plan.shard_of(r.key) as usize];
                if !enqueue(pth, s, r.id as u64, params.timeout_ns, 4) {
                    // Shard queue dead (crashed pool): serve from here.
                    if serve_direct(pth, &plan, r) {
                        emit_span(pth, &plan, r, plan.arrival_at(r));
                        direct_served += 1;
                    }
                }
            }
            // ---- Drain: wait for the pools, reap if progress stalls ----
            let total = nreq as u64;
            let mut stalled = 0u32;
            let mut last_done = u64::MAX;
            loop {
                // Read each shard's served counter under its queue mutex:
                // the lock acquire is what makes the workers' increments
                // (released at their unlocks) visible here — an unlocked
                // poll could read a cached page forever under RC.
                let mut done = direct_served;
                for s in plan.shards.iter() {
                    pth.mutex_lock(s.q_m);
                    done += pth.read::<u64>(s.queue + 16);
                    pth.mutex_unlock(s.q_m);
                }
                if done >= total {
                    break;
                }
                if done == last_done {
                    stalled += 1;
                    // Eight full timeout windows with zero completions
                    // anywhere: far beyond any single request's
                    // worst-case latency, so the remaining pools are
                    // dead, not slow.
                    if stalled >= 8 {
                        // Reap every unanswered request right here.
                        for r in plan.requests.iter() {
                            if serve_direct(pth, &plan, r) {
                                emit_span(pth, &plan, r, plan.arrival_at(r));
                                direct_served += 1;
                            }
                        }
                        break;
                    }
                } else {
                    stalled = 0;
                    last_done = done;
                }
                pth.compute(params.timeout_ns.max(1));
            }
        }
        Driver::ClosedLoop { clients, .. } => {
            // ---- Closed-loop clients ----
            let mut per_client: Vec<Vec<u32>> = vec![Vec::new(); clients as usize];
            for r in plan.requests.iter() {
                per_client[r.client as usize].push(r.id);
            }
            let mut handles = Vec::with_capacity(clients as usize);
            for (c, ids) in per_client.into_iter().enumerate() {
                let plan = Arc::clone(&plan);
                handles.push(pth.create(move |p| {
                    let cm = plan.client_m[c];
                    let cc = plan.client_c[c];
                    let mut retries = 0u64;
                    let mut direct = 0u64;
                    for id in ids {
                        let r = plan.requests[id as usize];
                        let t0 = p.sim.now().as_nanos();
                        let s = &plan.shards[plan.shard_of(r.key) as usize];
                        let mut attempts = 0u32;
                        loop {
                            let queued =
                                enqueue(p, s, id as u64, plan.params.timeout_ns, 2);
                            if queued {
                                p.mutex_lock(cm);
                                let mut done = p.read::<u64>(plan.resp_addr(id)) != 0;
                                while !done {
                                    let woken = p
                                        .cond_timedwait(cc, cm, plan.params.timeout_ns)
                                        .expect("client cancelled");
                                    done = p.read::<u64>(plan.resp_addr(id)) != 0;
                                    if !done && !woken {
                                        break;
                                    }
                                }
                                p.mutex_unlock(cm);
                                if done {
                                    break;
                                }
                            }
                            attempts += 1;
                            if attempts >= 3 {
                                // The shard's pool is gone: serve the
                                // op ourselves (bucket mutexes were
                                // handed off by crash recovery).
                                if serve_direct(p, &plan, &r) {
                                    direct += 1;
                                }
                                break;
                            }
                            retries += 1;
                        }
                        if pth_done(p, &plan, id) {
                            emit_span(p, &plan, &r, t0);
                        }
                        if think_ns > 0 {
                            p.compute(think_ns);
                        }
                    }
                    // Pack both counters into the exit status (each
                    // bounded well below 2^32 by the request count).
                    (retries << 32) | direct
                }));
            }
            for h in handles {
                let packed = pth.join(h);
                if packed != cables::CRASHED_RET {
                    retries += packed >> 32;
                    direct_served += packed & 0xFFFF_FFFF;
                }
            }
        }
    }
    let serve_ns = pth.sim.now().saturating_since(serve_t0);

    // ---- Shutdown: poison every pool, join every worker ----
    for s in plan.shards.iter() {
        for _ in 0..params.workers_per_shard {
            // Best-effort: a dead shard's full queue times out and the
            // poison is dropped (its workers are dead too).
            let _ = enqueue(pth, s, POISON, params.timeout_ns, 2);
        }
    }
    for w in workers {
        let _ = pth.join(w);
    }
    // Tally from the per-shard counters, not worker exit codes: a
    // crashed worker's tally dies with it, but its increments survive
    // in SVM (read under the queue mutex for the RC acquire).
    let mut served = 0u64;
    for s in plan.shards.iter() {
        pth.mutex_lock(s.q_m);
        served += pth.read::<u64>(s.queue + 16);
        pth.mutex_unlock(s.q_m);
    }

    // ---- Digest over the response table ----
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for id in 0..nreq {
        eat(pth.read::<u64>(plan.resp_addr(id)));
        eat(pth.read::<u64>(plan.resp_addr(id) + 8));
    }

    ServiceOutcome {
        digest,
        served,
        direct_served,
        retries,
        serve_ns,
    }
}

/// True when request `id`'s response slot is filled.
fn pth_done(p: &Pth, plan: &Plan, id: u32) -> bool {
    p.read::<u64>(plan.resp_addr(id)) != 0
}

#[cfg(test)]
mod tests {
    use std::sync::Arc as StdArc;
    use std::sync::Mutex as StdMutex;

    use super::*;
    use cables::{CablesConfig, CablesRt};
    use svm::{Cluster, ClusterConfig};
    use traffic::{schedule, TrafficConfig};

    fn run(nodes: usize, sched: &Schedule, params: ServiceParams) -> (u64, ServiceOutcome) {
        let cluster = Cluster::build(ClusterConfig::small(nodes, 2));
        let rt = CablesRt::new(cluster, CablesConfig::paper());
        let out = StdArc::new(StdMutex::new(None));
        let o2 = StdArc::clone(&out);
        let s = sched.clone();
        let end = rt
            .run(move |pth| {
                *o2.lock().unwrap() = Some(run_service(pth, &s, params));
                0
            })
            .expect("service run");
        let o = out.lock().unwrap().take().expect("outcome");
        (end.as_nanos(), o)
    }

    #[test]
    fn open_loop_serves_everything_and_replays() {
        let sched = schedule(&TrafficConfig::uniform(5, 120, 128, 2_000_000));
        let (t1, o1) = run(4, &sched, ServiceParams::test());
        let (t2, o2) = run(4, &sched, ServiceParams::test());
        assert_eq!(o1.served, 120);
        assert_eq!(o1.direct_served, 0);
        assert_eq!((t1, o1), (t2, o2), "same schedule must replay bit-identically");
    }

    #[test]
    fn closed_loop_serves_everything() {
        let sched =
            schedule(&TrafficConfig::zipfian(9, 100, 128, 1_000_000).closed_loop(4, 2_000));
        let (_, o) = run(4, &sched, ServiceParams::test());
        assert_eq!(o.served, 100);
        assert_eq!(o.retries, 0);
    }

    #[test]
    fn puts_then_gets_round_trip() {
        // A write-only then read-only schedule: every get of a put key
        // must return val_word(key, 0) (checked inside execute()), and
        // the digests must differ between the two phases.
        let mut cfg = TrafficConfig::uniform(3, 60, 32, 1_000_000);
        cfg.mix = traffic::OpMix { get: 0, put: 1, delete: 0, scan: 0, scan_len: 0 };
        let puts = schedule(&cfg);
        cfg.mix = traffic::OpMix { get: 1, put: 0, delete: 0, scan: 0, scan_len: 0 };
        cfg.seed = 4;
        let gets = schedule(&cfg);
        let (_, op) = run(2, &puts, ServiceParams::test());
        let (_, og) = run(2, &gets, ServiceParams::test());
        assert_eq!(op.served, 60);
        assert_eq!(og.served, 60);
        assert_ne!(op.digest, og.digest);
    }
}

/// The crash fallback: execute `r` on the calling thread and publish
/// its response, using only resources a crash cannot take down. Returns
/// false when the response turned out to be already published (a slow
/// worker won the race); the caller emits the span on true.
fn serve_direct(p: &Pth, plan: &Plan, r: &Request) -> bool {
    if pth_done(p, plan, r.id) {
        return false;
    }
    let v = plan.execute(p, r);
    p.write::<u64>(plan.resp_addr(r.id) + 8, v);
    p.write::<u64>(plan.resp_addr(r.id), 1);
    true
}
