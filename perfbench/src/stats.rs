//! Sample statistics, the zipfian key sampler and open-loop accounting.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`. The small
/// slack keeps decimal percentiles exact: `99.9 / 100 * 10_000` is
/// `9990.000000000002` in binary floating point.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Percentiles a latency report may quote, lowest first.
pub const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] with at least ten samples beyond it,
/// or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample: values in one unit, failures counted apart. A failed
/// or refused request misses every latency limit, so it sorts above every
/// measured value.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    values: Vec<f64>,
    failed: usize,
}

impl Latencies {
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// Requests attempted: answered plus failed.
    pub fn attempted(&self) -> usize {
        self.values.len() + self.failed
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Nearest-rank percentile over every attempt; `f64::INFINITY` when
    /// the rank falls on a failed request.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.attempted();
        assert!(n > 0, "percentile of an empty sample");
        let r = rank(n, p);
        if r > self.values.len() {
            return f64::INFINITY;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v[r - 1]
    }

    /// `p<pct>=<value> (n=<samples>, <k> beyond)` for the report.
    pub fn describe(&self, p: f64) -> String {
        let n = self.attempted();
        format!(
            "p{p}={:.4} (n={n}, {} beyond)",
            self.percentile(p),
            beyond(n, p)
        )
    }
}

/// Zipfian sampler over ranks `0..n` (rank 0 most popular) via an explicit
/// cumulative distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / (r as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Maps a uniform draw in `[0, 1)` to a rank.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A fixed open-loop schedule: request `i` is due at `start + i * interval`,
/// whatever happened to earlier requests. Latency runs from the due time,
/// so a stall is charged to every request that waited behind it; lateness
/// is how far behind schedule the generator itself sent.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Sleeps (then spins for the last stretch) until request `i` is due.
    pub fn wait_for(&self, i: usize) {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                return;
            }
            let left = due - now;
            if left > Duration::from_micros(200) {
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// `(latency, lateness)` of request `i` sent at `sent`, answered at
    /// `done`. Lateness is zero when the generator sent on time.
    pub fn account(&self, i: usize, sent: Instant, done: Instant) -> (Duration, Duration) {
        let due = self.due(i);
        (
            done.saturating_duration_since(due),
            sent.saturating_duration_since(due),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(200, 95.0), 10);
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        for n in [20, 57, 200, 999, 1000, 12_345] {
            let p = highest_supported(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn failures_sort_above_every_latency() {
        let mut l = Latencies::default();
        for v in 1..=98 {
            l.record(f64::from(v));
        }
        l.record_failure();
        l.record_failure();
        assert_eq!(l.attempted(), 100);
        assert_eq!(l.failed(), 2);
        assert_eq!(l.percentile(50.0), 50.0);
        assert_eq!(l.percentile(98.0), 98.0);
        assert!(l.percentile(99.0).is_infinite());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn zipf_favours_low_ranks_and_is_deterministic() {
        let z = Zipf::new(1000, 1.0);
        let mut counts = vec![0usize; 1000];
        for i in 0..100_000 {
            let u = (i as f64 + 0.5) / 100_000.0;
            counts[z.sample(u)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[999]);
        // Rank 0 carries 1 / H(1000) ≈ 13.4% of the mass.
        let share0 = counts[0] as f64 / 100_000.0;
        assert!((share0 - 0.1336).abs() < 0.002, "{share0}");
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_9), 999);
        assert_eq!(z.sample(0.25), z.sample(0.25));
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let start = Instant::now();
        let s = Schedule {
            start,
            interval: Duration::from_millis(10),
        };
        assert_eq!(s.due(3), start + Duration::from_millis(30));
        // On time: sent at the due time, answered 2 ms later.
        let (lat, late) = s.account(
            1,
            start + Duration::from_millis(10),
            start + Duration::from_millis(12),
        );
        assert_eq!((lat, late), (Duration::from_millis(2), Duration::ZERO));
        // Behind a stall: request 2 was due at 20 ms but only sent at 35 ms;
        // its latency includes the 15 ms it waited.
        let (lat, late) = s.account(
            2,
            start + Duration::from_millis(35),
            start + Duration::from_millis(36),
        );
        assert_eq!(lat, Duration::from_millis(16));
        assert_eq!(late, Duration::from_millis(15));
    }
}
