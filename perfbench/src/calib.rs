//! A fixed reference computation, timed beside the program's runs.
//!
//! On a shared virtual machine the speed of a core drifts by up to a half
//! over minutes, in CPU time as in wall time, as neighbours load the host.
//! The reference computation is code outside the program that does the
//! same kinds of work the simulator does (hashed table lookups, pointer
//! chasing beyond the private caches, array sweeps). Dividing a host time
//! by the reference's time taken in the same invocation removes the
//! drift, and leaves every change to the program itself in full.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

use crate::run::cpu_now;

/// Entries of the lookup table.
const TABLE: u64 = 1 << 18;
/// Table lookups per call.
const LOOKUPS: usize = 1 << 18;
/// Slots of the pointer chain (16 MB, past the private caches).
const CHAIN: usize = 1 << 22;
/// Chain steps per call.
const STEPS: usize = 1 << 18;
/// Words of the swept array.
const WORDS: usize = 1 << 20;
/// Sweeps over the array per call.
const SWEEPS: usize = 4;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference computation's state, built once so that a timed call
/// allocates nothing.
pub struct Reference {
    table: HashMap<u64, u64>,
    chain: Vec<u32>,
    grid: Vec<f64>,
    rng: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let mut table = HashMap::with_capacity(TABLE as usize);
        for k in 0..TABLE {
            table.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
        }
        // One cycle through every slot (Sattolo's shuffle).
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        let mut rng = 0x2545_f491_4f6c_dd1d;
        for i in (1..CHAIN).rev() {
            let j = (xorshift(&mut rng) % i as u64) as usize;
            chain.swap(i, j);
        }
        Reference {
            table,
            chain,
            grid: vec![1.0; WORDS],
            rng,
        }
    }

    /// CPU time of one call of the reference computation.
    pub fn time(&mut self) -> Duration {
        let start = cpu_now();
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            let x = xorshift(&mut self.rng);
            let k = (x % TABLE).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if let Some(v) = self.table.get_mut(&k) {
                *v = v.wrapping_add(x);
                sum = sum.wrapping_add(*v);
            }
        }
        let mut at = (self.rng % CHAIN as u64) as usize;
        for _ in 0..STEPS {
            at = self.chain[at] as usize;
        }
        let a = &mut self.grid;
        for _ in 0..SWEEPS {
            for i in 1..WORDS - 1 {
                a[i] = 0.25 * (a[i - 1] + a[i + 1]) + 0.5 * a[i];
            }
        }
        black_box((sum, at, a[WORDS / 2]));
        cpu_now() - start
    }
}
