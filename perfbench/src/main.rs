//! The repository benchmark: OCEAN, RADIX and an offered-load ladder on
//! the sharded KV service, all in CableS mode on the green-thread engine.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ocean|radix|kv-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload: a warm-up run, untraced runs for
//! `--seconds` (host times are the fastest of them, read at the speed of a
//! reference computation timed beside them), then a traced run (obs on)
//! that yields the per-layer numbers. Every run's output is checked,
//! and every simulated counter must repeat bit for bit across the runs,
//! traced or not. Human-readable lines come first; the last line is one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Any failure exits non-zero. `README.md` next to
//! this crate maps each metric to its layer.

mod calib;
mod layers;
mod report;
mod run;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use apps::splash::{ocean, radix};
use sim::DetRng;
use traffic::{schedule, Schedule, TrafficConfig};

use calib::Reference;
use layers::{analyze, percentile, rank, Trace};
use report::{get, layer_metrics, ms, phase_metrics, Report};
use run::{run_kernel, run_kv, setup_kernel, setup_kv, Counters, Host, Kernel, Run};

const USAGE: &str =
    "usage: perfbench --workload <ocean|radix|kv-zipf> --seed <n> --seconds <s> --trace <0|1>";

/// Timed runs per invocation, at least.
const MIN_REPS: usize = 3;
/// Set-ups timed on their own beside each timed run; `setup_s` comes
/// from the median of them all.
const SETUPS_PER_REP: usize = 8;
/// Host times are reported at the speed at which one call of the
/// reference computation (`calib`) takes this many CPU seconds, about
/// its time on an unloaded Xeon (Emerald Rapids) virtual CPU.
const REF_S: f64 = 0.06;
/// OCEAN red-black sweeps per run.
const OCEAN_SWEEPS: usize = 16;
/// KV keyspace (hot-key zipfian over it).
const KV_KEYS: u64 = 512;
/// The fixed offered rates, about 50/80/95% of saturation throughput.
const KV_RATES: [u64; 3] = [3000, 5000, 5800];
/// The rate whose untraced runs are timed and whose p99 is gated.
const KV_TIMED_RATE: u64 = 5000;
/// The ladder searched for the highest rate meeting the latency limit.
const KV_LADDER: [u64; 8] = [3000, 5000, 5800, 6000, 6200, 6400, 6600, 6800];
/// The latency limit on p99.
const KV_P99_LIMIT_NS: u64 = 5_000_000;
/// The share of the offered rate the service must achieve at a rate that
/// meets the limit (below it, a backlog grows).
const KV_MIN_ACHIEVED: f64 = 0.97;
/// Samples a reported percentile must have beyond it.
const MIN_TAIL_SAMPLES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s >= 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => match val.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks a run's output and its counters against `reference`; records
/// a failure of `ops` operations on any difference.
fn audit(report: &mut Report, what: &str, run: &Run, reference: &Counters, ops: u64) {
    if let Err(e) = &run.check {
        report.fail(ops, format!("{what}: {e}"));
    } else if run.counters != *reference {
        let diff: Vec<_> = run
            .counters
            .iter()
            .filter(|(k, v)| reference.get(*k) != Some(*v))
            .map(|(k, v)| format!("{k}={v} (was {:?})", reference.get(*k)))
            .collect();
        let diff = diff.join(", ");
        report.fail(ops, format!("{what}: simulated counters differ: {diff}"));
    }
}

/// Host figures of the timed runs.
struct Timed {
    /// The warm-up run's counters, which every other run must repeat.
    reference: Counters,
    /// Peak RSS after the warm-up run, MB: one run's footprint, before
    /// later runs can raise it through allocator reuse.
    rss_mb: f64,
    samples: Vec<Host>,
    /// The least CPU time of the reference computation, timed before each
    /// timed run.
    ref_cpu: Duration,
    /// The median host time of the set-ups timed on their own, seconds.
    setup_s: f64,
}

/// One warm-up run, then untraced runs until `seconds` have been timed
/// (at least `MIN_REPS`). Before each, one call of the reference
/// computation and `SETUPS_PER_REP` set-ups on their own, so that both
/// sample the machine over the same stretch of time as the runs. Every
/// run is audited against the warm-up; each counts `ops` operations.
fn timed_reps(
    report: &mut Report,
    seconds: f64,
    ops: u64,
    mut setup: impl FnMut() -> Host,
    mut one: impl FnMut() -> Run,
) -> Timed {
    let Run {
        counters: reference,
        check,
        ..
    } = one();
    let rss_mb = peak_rss_mb();
    report.attempted += ops;
    if let Err(e) = check {
        report.fail(ops, format!("warm-up run: {e}"));
    }
    let mut calib = Reference::new();
    let mut ref_cpu = Duration::MAX;
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut setups = Vec::new();
    while samples.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        ref_cpu = ref_cpu.min(calib.time());
        setups.extend((0..SETUPS_PER_REP).map(|_| setup().setup().as_secs_f64()));
        let r = one();
        report.attempted += ops;
        let what = format!("timed run {}", samples.len() + 1);
        audit(report, &what, &r, &reference, ops);
        samples.push(r.host);
    }
    Timed {
        reference,
        rss_mb,
        samples,
        ref_cpu,
        setup_s: median(setups),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process so far, MB (`getrusage`).
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of the C `struct rusage` on 64-bit
    // Linux, and `getrusage` only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru.maxrss_kb as f64 / 1024.0
}

/// Host end-to-end metrics of the timed runs; returns the raw host CPU
/// time the traced run is compared with.
///
/// Every timed run does the same deterministic work, so their spread is
/// interference from outside the process. On a shared virtual machine it
/// comes in three kinds. The host runs another guest on this one's CPU
/// (stolen time); CPU time leaves that out, as the guest kernel accounts
/// it apart. Neighbours contend for caches and cores in bursts that slow
/// some runs by a quarter; the fastest run is the steadiest estimate
/// under them. And the speed of a core drifts by up to a half over
/// minutes, which no statistic of one invocation's runs can remove; the
/// reference computation timed beside the runs measures it. So the gated
/// host times are read at reference speed: scaled by `REF_S` over the
/// reference's least CPU time in this invocation. The raw figures are
/// per-layer metrics without a bound.
fn host_metrics(report: &mut Report, t: &Timed) -> f64 {
    // (least, line with least, median and most) of one clock's readings.
    let clock = |name: &str, read: fn(&Host) -> Duration| {
        let v: Vec<f64> = t.samples.iter().map(|h| read(h).as_secs_f64()).collect();
        let min = v.iter().copied().fold(f64::MAX, f64::min);
        let max = v.iter().copied().fold(0.0, f64::max);
        let med = median(v);
        (
            min,
            format!("{name} min {min:.4} s, median {med:.4} s, max {max:.4} s"),
        )
    };
    let (cpu, cpu_line) = clock("cpu", |h| h.cpu);
    let (wall, wall_line) = clock("wall", |h| h.wall);
    let ref_s = t.ref_cpu.as_secs_f64();
    let n = t.samples.len();
    report.lines.push(format!(
        "timed runs: {n}, host {cpu_line}; {wall_line}; reference min {:.4} ms",
        ref_s * 1e3
    ));
    let norm = REF_S / ref_s;
    report.e2e("host_norm_s", cpu * norm, "s");
    let c = &t.reference;
    let points = get(c, "sim.sync_fast_path") + get(c, "sim.sync_slow_path");
    let per_event = cpu * norm * 1e9 / points.max(1) as f64;
    report.e2e("host_norm_ns_per_event", per_event, "ns");
    report.e2e("host_peak_rss_mb", t.rss_mb, "MB");
    report.e2e("setup_s", t.setup_s * norm, "s");
    report.layer("host.cpu_s", cpu, "s", "lower");
    let raw_per_event = cpu * 1e9 / points.max(1) as f64;
    report.layer("host.ns_per_event", raw_per_event, "ns", "lower");
    report.layer("host.wall_s", wall, "s", "lower");
    report.layer("host.setup_s", t.setup_s, "s", "lower");
    report.layer("host.ref_ms", ref_s * 1e3, "ms", "lower");
    cpu
}

/// The seed's draw from `0..band`. The kernels generate their data from
/// fixed internal seeds, so for them the benchmark seed varies only the
/// problem size, within a narrow band above the paper's size.
fn draw(seed: u64, stream: u64, band: u64) -> u64 {
    DetRng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_below(band)
}

fn ocean_params(seed: u64) -> ocean::OceanParams {
    ocean::OceanParams::bench(514 + draw(seed, 1, 3) as usize, OCEAN_SWEEPS, 16)
}

/// A few keys past 2^20, so that the per-processor key blocks straddle
/// the 64 KB home-binding granularity. At exactly 2^20 every block is
/// chunk-aligned and the misplacement this workload is chosen to show
/// vanishes (157 ms parallel section against about 198 ms).
fn radix_params(seed: u64) -> radix::RadixParams {
    radix::RadixParams {
        keys: (1 << 20) + 16 * (1 + draw(seed, 2, 16) as usize),
        digit_bits: 8,
        max_key: 1 << 16,
        nprocs: 16,
    }
}

fn kv_config(seed: u64, rate: u64) -> TrafficConfig {
    let requests = 40_000 + 8 * draw(seed, 3, 16) as u32;
    TrafficConfig::zipfian(seed, requests, KV_KEYS, rate)
}

/// Builds the rate's schedule, timing `traffic::schedule`.
fn kv_schedule(seed: u64, rate: u64) -> (Schedule, Duration) {
    let cfg = kv_config(seed, rate);
    let t = Instant::now();
    let s = schedule(&cfg);
    (s, t.elapsed())
}

/// OCEAN or RADIX: timed untraced runs, then one traced run.
fn bench_kernel(report: &mut Report, kernel: Kernel, seconds: f64) {
    let setup = || setup_kernel(kernel).0;
    let timed = timed_reps(report, seconds, 1, setup, || run_kernel(kernel, false));
    let untraced = host_metrics(report, &timed);
    let reference = timed.reference;

    let traced = run_kernel(kernel, true);
    report.attempted += 1;
    audit(report, "traced run", &traced, &reference, 1);
    let end = get(&reference, "time.end_ns");
    let open = get(&reference, "time.window_start_ns");
    let window = get(&reference, "time.window_end_ns") - open;
    report.e2e("sim_latency_ms", ms(window), "ms");
    phase_metrics(report, open, window, end);
    match analyze(&Trace::take(&traced.rt), end) {
        Ok(a) => {
            layer_metrics(report, &reference, &a, &traced.host, untraced);
            service_metrics(report, &[]);
        }
        Err(e) => report.fail(1, format!("traced run: {e}")),
    }
}

/// Service figures of one traced ladder rate.
struct Rung {
    rate: u64,
    p50: u64,
    p99: u64,
    samples: usize,
    achieved_rps: f64,
}

impl Rung {
    fn meets_limit(&self) -> bool {
        self.p99 <= KV_P99_LIMIT_NS && self.achieved_rps >= KV_MIN_ACHIEVED * self.rate as f64
    }
}

/// The per-rate service metrics (all zero on the SPLASH workloads).
fn service_metrics(report: &mut Report, rungs: &[Rung]) {
    for rate in KV_RATES {
        let r = rungs.iter().find(|r| r.rate == rate);
        let v = |f: fn(&Rung) -> f64| r.map_or(0.0, f);
        report.layer(
            &format!("svc_p50_ms.r{rate}"),
            v(|r| ms(r.p50)),
            "ms",
            "lower",
        );
        report.layer(
            &format!("svc_p99_ms.r{rate}"),
            v(|r| ms(r.p99)),
            "ms",
            "lower",
        );
        let samples = v(|r| r.samples as f64);
        report.layer(&format!("svc.samples.r{rate}"), samples, "count", "higher");
        let achieved = v(|r| r.achieved_rps);
        report.layer(
            &format!("svc.achieved_rps.r{rate}"),
            achieved,
            "rps",
            "higher",
        );
    }
    // The highest ladder rate that meets the limit, as every rate below
    // it does.
    let max = rungs.iter().take_while(|r| r.meets_limit()).last();
    let max_rps = max.map_or(0, |r| r.rate);
    report.layer("svc_max_rps", max_rps as f64, "rps", "higher");
}

/// The KV service: the timed rate untraced for `seconds`, then each
/// ladder rate traced once (request latencies come from its spans). The
/// other fixed rates are replayed untraced against their traced runs;
/// the ladder stops at the first rate above them that misses the limit.
fn bench_kv(report: &mut Report, seed: u64, seconds: f64) {
    let nreq = u64::from(kv_config(seed, KV_TIMED_RATE).requests);
    let setup = || setup_kv(kv_schedule(seed, KV_TIMED_RATE).1).0;
    let timed = timed_reps(report, seconds, nreq, setup, || {
        let (s, host) = kv_schedule(seed, KV_TIMED_RATE);
        run_kv(&s, host, false)
    });
    let untraced = host_metrics(report, &timed);
    let reference = timed.reference;
    let end = get(&reference, "time.end_ns");

    let mut rungs = Vec::new();
    let mut explained = None;
    let mut window_open = 0;
    for rate in KV_LADDER {
        let (sched, sched_host) = kv_schedule(seed, rate);
        let nreq = sched.requests.len() as u64;
        let traced = run_kv(&sched, sched_host, true);
        report.attempted += nreq;
        let unserved = nreq - get(&traced.counters, "svc.served");
        if let Err(e) = &traced.check {
            report.fail(unserved, format!("r{rate}: {e}"));
        }
        let trace = Trace::take(&traced.rt);
        let (durs, first) = trace.service_spans();
        let n = durs.len();
        if n as u64 != nreq || n - rank(n, 99) < MIN_TAIL_SAMPLES {
            let why = format!("{n} spans for {nreq} requests, {MIN_TAIL_SAMPLES} needed past p99");
            report.fail(nreq, format!("r{rate}: {why}"));
            return;
        }
        let tail = n - rank(n, 99);
        let window = get(&traced.counters, "time.window_ns");
        let rung = Rung {
            rate,
            p50: percentile(&durs, 50),
            p99: percentile(&durs, 99),
            samples: n,
            achieved_rps: nreq as f64 * 1e9 / window.max(1) as f64,
        };
        report.lines.push(format!(
            "kv r{rate}: p50 {:.4} ms, p99 {:.4} ms over {} requests ({tail} beyond p99), \
             achieved {:.1} rps",
            ms(rung.p50),
            ms(rung.p99),
            rung.samples,
            rung.achieved_rps
        ));
        let meets = rung.meets_limit();
        rungs.push(rung);
        if rate == KV_TIMED_RATE {
            let what = format!("r{rate} traced run");
            audit(report, &what, &traced, &reference, nreq);
            // The schedule's clock zero is the opening of the serving
            // window, so the earliest span start minus the earliest
            // arrival is the simulated set-up.
            let earliest = sched.requests.iter().map(|r| r.arrival_ns).min();
            window_open = first.unwrap_or(0) - earliest.unwrap_or(0);
            match analyze(&trace, end) {
                Ok(a) => explained = Some((a, traced.host)),
                Err(e) => report.fail(nreq, format!("r{rate} traced run: {e}")),
            }
        } else if KV_RATES.contains(&rate) {
            // Replay the rate untraced: same seed, same simulated result.
            let replay = run_kv(&sched, sched_host, false);
            report.attempted += nreq;
            let what = format!("r{rate} untraced replay");
            audit(report, &what, &replay, &traced.counters, nreq);
        } else if !meets {
            break;
        }
    }

    let gated = rungs.iter().find(|r| r.rate == KV_TIMED_RATE);
    report.e2e("sim_latency_ms", ms(gated.map_or(0, |r| r.p99)), "ms");
    phase_metrics(report, window_open, get(&reference, "time.window_ns"), end);
    if let Some((a, host)) = explained {
        layer_metrics(report, &reference, &a, &host, untraced);
        service_metrics(report, &rungs);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let inputs = match args.workload.as_str() {
        "ocean" => {
            let p = ocean_params(args.seed);
            bench_kernel(&mut report, Kernel::Ocean(p), args.seconds);
            let (n, sweeps, aux) = (p.n, p.iters, p.aux_fields);
            format!("OCEAN n={n} sweeps={sweeps} aux_fields={aux}, 16 procs on 8 nodes")
        }
        "radix" => {
            let p = radix_params(args.seed);
            bench_kernel(&mut report, Kernel::Radix(p), args.seconds);
            let (keys, bits, max) = (p.keys, p.digit_bits, p.max_key);
            format!("RADIX keys={keys} digit_bits={bits} max_key={max}, 16 procs on 8 nodes")
        }
        "kv-zipf" => {
            bench_kv(&mut report, args.seed, args.seconds);
            let c = kv_config(args.seed, KV_TIMED_RATE);
            format!(
                "KV zipfian keys={} requests/rate={}, open loop at {KV_RATES:?} rps, \
                 8 procs on 4 nodes",
                c.keys, c.requests
            )
        }
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (workload, seed) = (&args.workload, args.seed);
    println!("# workload {workload} seed {seed}: {inputs}; CableS, green engine");
    let is_kv = workload == "kv-zipf";
    for l in report.lines.iter().chain(&report.summary(is_kv)) {
        println!("{l}");
    }
    let shown = if args.trace {
        &report.layers
    } else {
        &report.e2e
    };
    for m in shown {
        let (name, value, unit, better) = (&m.name, m.value, m.unit, m.better);
        println!("{name:<28} {value:>16.4} {unit:<6} ({better} is better)");
    }
    for e in &report.errors {
        println!("FAILED: {e}");
    }
    println!("{}", report.json(shown));
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
