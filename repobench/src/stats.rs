//! Percentiles, the seeded input generator, and process memory.

/// Nearest-rank percentile of `xs` (`q` in 0..=100); sorts in place.
/// Failed operations enter as `f64::INFINITY`, so they count as missing
/// any latency limit.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Two percentiles of (start, value) samples, each taken within every
/// `window`-long slice of the start times and then the median over the
/// slices; also returns the number of slices.
pub fn windowed(samples: &[(f64, f64)], window: f64, (q1, q2): (f64, f64)) -> ((f64, f64), usize) {
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for &(start, value) in samples {
        let w = (start / window) as usize;
        if slices.len() <= w {
            slices.resize(w + 1, Vec::new());
        }
        slices[w].push(value);
    }
    slices.retain(|s| !s.is_empty());
    let mut at = |q: f64| {
        let mut per: Vec<f64> = slices.iter_mut().map(|s| percentile(s, q)).collect();
        median(&mut per)
    };
    ((at(q1), at(q2)), slices.len())
}

/// SplitMix64: the benchmark's only source of input randomness, so the
/// same `--seed` always generates the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
