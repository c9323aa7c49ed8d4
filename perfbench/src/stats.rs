//! Latency recording, order statistics and process memory.

/// Latencies below this many nanoseconds are counted in 1 ns buckets;
/// slower ones are kept verbatim. Both are exact, so percentiles carry
/// the clock's full resolution while a multi-million-op run stays a few
/// hundred kilobytes (the recorder must not dominate `peak_rss_mb`).
const FINE_NS: usize = 1 << 16;

/// Exact latency sample set, in nanoseconds.
pub struct Latencies {
    fine: Vec<u32>,
    coarse: Vec<u64>,
    n: u64,
}

impl Latencies {
    pub fn new() -> Self {
        Latencies {
            fine: vec![0; FINE_NS],
            coarse: Vec::new(),
            n: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(count) => *count += 1,
            None => self.coarse.push(ns),
        }
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank `q`-quantile in nanoseconds (NaN when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &count) in self.fine.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return ns as f64;
            }
        }
        self.coarse.sort_unstable();
        self.coarse[(rank - seen - 1) as usize] as f64
    }
}

/// Median of `xs` (mean of the middle pair for even counts; NaN when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only randomness, so a seed fixes every
/// generated input independently of any library's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_span_fine_and_coarse_samples() {
        let mut l = Latencies::new();
        for ns in [5u64, 1, 3, 2, 4, 100_000, 200_000, 70_000, 9, 8] {
            l.record(ns);
        }
        assert_eq!(l.len(), 10);
        assert_eq!(l.quantile_ns(0.5), 5.0);
        assert_eq!(l.quantile_ns(0.0), 1.0);
        assert_eq!(l.quantile_ns(0.8), 70_000.0);
        assert_eq!(l.quantile_ns(1.0), 200_000.0);
        assert!(Latencies::new().quantile_ns(0.5).is_nan());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
        for _ in 0..100 {
            assert_eq!(a.below(40), b.below(40));
        }
        assert!((0..1000).all(|_| a.below(3) < 3));
    }
}
