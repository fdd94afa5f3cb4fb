//! lsds-lint: allow(wall-clock) reason="`timed` is the benchmark's stopwatch; nothing here feeds simulated state"
//!
//! Benchmark-owned helpers: the input RNG, order statistics, fingerprint
//! mixing and `/proc` readers. Nothing here calls product code, so a
//! product change cannot move a generated input or a reported quantile.

use std::time::Instant;

/// SplitMix64 — the benchmark's own generator. Workload inputs must not
/// depend on `lsds_stats::SimRng`, or a product change to that type would
/// silently change every workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds a stream; `stream` separates independent uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d);
        r.next_u64();
        r
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in the open interval `(0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential variate with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// Lomax (Pareto II) variate with shape 2 and mean 1: heavy-tailed
    /// (infinite variance) and computed with `sqrt` only, which IEEE 754
    /// rounds exactly, so the hold model's trajectory does not depend on
    /// the platform's `libm`.
    #[inline]
    pub fn lomax2(&mut self) -> f64 {
        1.0 / self.unit().sqrt() - 1.0
    }
}

/// SplitMix64 finalizer: the one mixing function behind the RNG and every
/// result fingerprint.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of one `(key, value)` outcome pair. Fingerprints sum these with
/// wrapping addition, which is commutative: a fingerprint names the *set*
/// of outcomes, so an optimisation that delivers simultaneous events in a
/// different order, or stops scheduling events that change nothing, keeps
/// it.
#[inline]
pub fn outcome(key: u64, bits: u64) -> u64 {
    mix64(mix64(key) ^ bits)
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spread printed here is the spread the acceptance rule uses. With
/// fewer than two values both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        // position i*(n+1)/4, clamped into the data
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Order statistics of one metric over its trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
    /// Number of values.
    pub n: usize,
}

impl Spread {
    /// Summarises a non-empty slice.
    pub fn of(values: &[f64]) -> Spread {
        let (q1, q3) = quartiles(values);
        Spread {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(values),
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Runs `f` once and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Reads one `kB` field of `/proc/self/status` (for example `VmHWM`).
pub fn proc_status_kib(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// CPU seconds (user + system) this process has consumed, all threads
/// included, from `/proc/self/stat`. Linux reports them in clock ticks of
/// 1/100 s, so the resolution is 10 ms.
pub fn process_cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name may contain spaces: fields are counted after `)`
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15 of the file, 11 and 12 here
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The 1-minute load average and the number of usable cores.
pub fn host_info() -> (usize, f64) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN);
    (cores, load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((q1, q3), (1.5, 12.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rng_streams_differ_and_repeat() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| {
            let u = r.unit();
            u > 0.0 && u < 1.0 && r.lomax2() >= 0.0 && r.below(10) < 10
        }));
    }
}
