//! Host-speed probe: a fixed piece of std-only work that shares no code
//! with the cf2df crates, timed on the main thread before every round.
//!
//! On a shared host the speed of a core drifts by 10-30% over minutes, so
//! the medians of identical work differ that much between runs. The
//! probe slows and speeds up with the host, and the code under test
//! cannot change it, so end-to-end timings are reported at the speed of
//! a reference host: raw × [`REF_NS`] / (the probe's time around them).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's typical time on the reference host, a 2-vCPU Xeon VM.
pub const REF_NS: f64 = 5.0e6;

/// Table size. The tables (192 KiB) stay in a core's own cache, as the
/// benchmark's small graphs do, so the probe follows the core's speed
/// more than the shared cache's.
const N: usize = 1 << 14;
/// Passes over fresh tables, to make the probe long enough to time.
const PASSES: usize = 4;

/// Run the probe once; return its wall time in nanoseconds. The work
/// mixes what the benchmark's calls do: allocation, sorting, a random
/// walk over a table, and ordered-map inserts and lookups.
pub fn time() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..PASSES {
        let mut keys: Vec<u64> = (0..N).map(|_| next()).collect();
        keys.sort_unstable();
        let mut perm: Vec<u32> = (0..N as u32).collect();
        for i in (1..N).rev() {
            perm.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut p = 0u32;
        for _ in 0..2 * N {
            p = perm[p as usize];
            acc = acc.wrapping_add(keys[p as usize]);
        }
        let mut map = BTreeMap::new();
        for i in 0..(N / 8) as u64 {
            map.insert(next() % 100_000, i);
        }
        for _ in 0..N / 8 {
            if let Some((_, v)) = map.range(next() % 100_000..).next() {
                acc = acc.wrapping_add(*v);
            }
        }
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64
}
