//! The protocol-traffic optimizations (batched diffs, stride prefetch)
//! are value-preserving on real kernels: FFT and RADIX compute
//! bit-identical results at every point of the 2×2 toggle grid. (The
//! full-size version of this check, plus the traffic and timing claims,
//! lives in the `protocol_opt` bench.)

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use cables_suite::apps::splash::{fft, radix};
use cables_suite::apps::{M4Ctx, M4System};
use cables_suite::cables::CablesConfig;
use cables_suite::svm::{Cluster, ClusterConfig, SvmConfig};

const GRID: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn run_grid<F>(body: F) -> Vec<u64>
where
    F: Fn(&M4Ctx) -> u64 + Send + Sync + Clone + 'static,
{
    GRID.iter()
        .map(|&(b, p)| {
            let cluster = Cluster::build(ClusterConfig::small(2, 2));
            let cfg = CablesConfig {
                svm: SvmConfig::cables().with_protocol_opts(b, p),
                ..CablesConfig::paper()
            };
            let sys = M4System::cables_with(Arc::clone(&cluster), cfg);
            let result = Arc::new(StdMutex::new(None));
            let r2 = Arc::clone(&result);
            let body = body.clone();
            sys.run(move |ctx| {
                *r2.lock().unwrap() = Some(body(ctx));
            })
            .unwrap_or_else(|e| panic!("batch={b} prefetch={p}: {e}"));
            let v = result.lock().unwrap().take().expect("result produced");
            v
        })
        .collect()
}

#[test]
fn fft_is_bit_identical_across_the_toggle_grid() {
    let p = fft::FftParams {
        m: 8,
        nprocs: 4,
        verify: true,
    };
    let sums = run_grid(move |ctx| {
        let r = fft::fft(ctx, &p);
        let err = r.max_error.expect("verification ran");
        assert!(err < 1e-9, "FFT roundtrip error {err}");
        r.checksum.to_bits()
    });
    for (i, s) in sums.iter().enumerate() {
        assert_eq!(
            *s, sums[0],
            "FFT checksum diverged at grid point {:?}",
            GRID[i]
        );
    }
}

#[test]
fn radix_is_bit_identical_across_the_toggle_grid() {
    let p = radix::RadixParams {
        keys: 4096,
        digit_bits: 8,
        max_key: 1 << 16,
        nprocs: 4,
    };
    let sums = run_grid(move |ctx| {
        let r = radix::radix(ctx, &p);
        assert!(r.sorted, "RADIX output not sorted");
        r.key_sum
    });
    for (i, s) in sums.iter().enumerate() {
        assert_eq!(
            *s, sums[0],
            "RADIX key sum diverged at grid point {:?}",
            GRID[i]
        );
    }
}
