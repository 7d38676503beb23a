//! Host-speed normalisation.
//!
//! On a shared host the same fixpoint runs 10 ms in one twenty-second
//! phase and 23 ms in the next, with no CPU steal recorded: the core itself
//! is slower while neighbours load it. Wall times of whole runs then spread
//! far beyond any useful regression bound. The benchmark therefore times a
//! fixed calibration kernel right next to every measured interval and
//! scales the interval by `REFERENCE_S / kernel time`: the result is the
//! time the interval would have taken on a host where the kernel takes
//! [`REFERENCE_S`]. The kernel is the benchmark's own code (hash-map
//! inserts and probes, a sort, small allocations — the mix of the program's
//! joins and tuple buffers), so no change to the program moves it; a change
//! that speeds the program up lowers the normalised times in proportion.
//! Raw wall times are reported beside the normalised ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time the normalised figures are scaled to.
pub const REFERENCE_S: f64 = 0.004;

/// The calibration kernel: a fixed amount of hashing, sorting and
/// allocation with a data-dependent result.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut m: HashMap<u64, u64> = HashMap::new();
    for _ in 0..20_000 {
        m.insert(next() % 50_000, next());
    }
    let mut acc = 0u64;
    for _ in 0..40_000 {
        if let Some(v) = m.get(&(next() % 50_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut v: Vec<u64> = (0..50_000).map(|_| next()).collect();
    v.sort_unstable();
    let rows: Vec<Vec<u64>> = (0..5_000).map(|i| vec![i; 4]).collect();
    acc ^ v[v.len() / 2] ^ rows[rows.len() / 2][0]
}

/// Seconds one kernel run takes now.
fn kernel_s() -> f64 {
    let t0 = Instant::now();
    black_box(kernel(black_box(0x9E37_79B9_7F4A_7C15)));
    t0.elapsed().as_secs_f64()
}

/// One measured interval: wall seconds and host-normalised seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub wall_s: f64,
    pub norm_s: f64,
}

/// Scales `wall_s` measured while the kernel took `kernel_s`.
pub fn normalise(wall_s: f64, kernel_s: f64) -> f64 {
    wall_s * REFERENCE_S / kernel_s
}

/// Kernel time now: the median of three runs.
pub fn kernel_now() -> f64 {
    let mut ks = [kernel_s(), kernel_s(), kernel_s()];
    ks.sort_by(f64::total_cmp);
    ks[1]
}

/// Runs `f` between two kernel measurements and normalises its wall time
/// by their mean. (A kernel sampled on the other core while `f` runs
/// measures the contention `f` itself causes, not the host, so none is
/// taken during `f`.)
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let before = kernel_now();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let k = (before + kernel_now()) / 2.0;
    (
        out,
        Timing {
            wall_s,
            norm_s: normalise(wall_s, k),
        },
    )
}

/// Runs `f` on every item, chunk by chunk, with the kernel timed between
/// chunks, and returns one timing per item: its chunk's wall time over the
/// chunk's length, normalised by the mean of the kernel runs on either side
/// of the chunk. Each kernel measurement serves the chunks on both sides.
pub fn timed_per_item<T>(items: &[T], chunk: usize, mut f: impl FnMut(&T)) -> Vec<Timing> {
    let mut before = kernel_now();
    let mut out = Vec::with_capacity(items.len());
    for c in items.chunks(chunk) {
        let t0 = Instant::now();
        c.iter().for_each(&mut f);
        let wall_s = t0.elapsed().as_secs_f64() / c.len() as f64;
        let after = kernel_now();
        let norm_s = normalise(wall_s, (before + after) / 2.0);
        out.extend(std::iter::repeat_n(Timing { wall_s, norm_s }, c.len()));
        before = after;
    }
    out
}

/// Kernel time around `at`: the median of the three samples nearest to it.
pub fn kernel_at(samples: &[(Instant, f64)], at: Instant) -> f64 {
    assert!(!samples.is_empty(), "no kernel samples");
    let gap = |t: Instant| {
        if t > at {
            t - at
        } else {
            at - t
        }
    };
    let mut near: Vec<(Duration, f64)> = samples.iter().map(|&(t, k)| (gap(t), k)).collect();
    near.sort_by_key(|&(d, _)| d);
    let mut ks: Vec<f64> = near.iter().take(3).map(|&(_, k)| k).collect();
    ks.sort_by(f64::total_cmp);
    ks[ks.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_scales_by_the_reference() {
        assert_eq!(normalise(2.0, 0.004), 2.0);
        assert_eq!(normalise(2.0, 0.008), 1.0);
        let ((), t) = timed(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(t.wall_s >= 0.005);
        assert!(t.norm_s > 0.0);
    }

    #[test]
    fn per_item_timings_split_each_chunk_evenly() {
        let mut seen = Vec::new();
        let t = timed_per_item(&[1u64, 2, 3, 4, 5], 2, |&x| {
            seen.push(x);
            std::thread::sleep(Duration::from_millis(2 * x));
        });
        assert_eq!(seen, [1, 2, 3, 4, 5]);
        assert_eq!(t.len(), 5);
        assert_eq!(t[0], t[1]);
        assert_eq!(t[2], t[3]);
        assert!(t[0].wall_s >= 0.003, "(2 + 4) ms over two items");
        assert!(t[4].wall_s >= 0.010);
        assert!(t.iter().all(|x| x.norm_s > 0.0));
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
    }

    #[test]
    fn kernel_at_takes_the_median_of_the_nearest_three() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let samples = vec![(ms(0), 9.0), (ms(100), 1.0), (ms(200), 3.0), (ms(300), 2.0)];
        assert_eq!(kernel_at(&samples, ms(210)), 2.0);
        assert_eq!(kernel_at(&samples, ms(0)), 3.0);
        assert_eq!(kernel_at(&samples[..1], ms(500)), 9.0);
    }
}
