//! Small deterministic helpers: a seeded PRNG, a Zipf sampler,
//! percentiles, a stable digest, and the metric report.

use std::fmt::Write as _;

/// SplitMix64: tiny, seedable and identical on every platform, so the
/// same `--seed` always yields the same request stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `stream` of `seed` (one per client
    /// connection), independent of the other sub-streams.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf-like rank sampler over `n` items: rank `r` (0-based) has weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty population");
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        Zipf {
            cdf: cdf.into_iter().map(|c| c / total).collect(),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A sample of measurements with nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    values: Vec<f64>,
    sorted: bool,
}

impl Dist {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Dist) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `q` in `(0, 1]`, or `None` when empty.
    pub fn pct(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        Some(self.values[rank(self.values.len(), q)])
    }

    /// Samples strictly above the nearest-rank percentile `q`.
    pub fn beyond(&self, q: f64) -> usize {
        if self.values.is_empty() {
            return 0;
        }
        self.values.len() - rank(self.values.len(), q) - 1
    }
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of a few values (used for repeated set-up measurements).
pub fn median(values: &[f64]) -> f64 {
    let mut d = Dist::default();
    for v in values {
        d.push(*v);
    }
    d.pct(0.5).unwrap_or(f64::NAN)
}

/// FNV-1a, 64 bit: a stable digest for recorded expected outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value rests on.
    pub n: usize,
    /// Free-form detail (tail depth, ratio base, …).
    pub note: String,
}

/// Every number a run produces, in the order produced, plus flags.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub flags: Vec<String>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.add_note(name, value, unit, n, String::new());
    }

    pub fn add_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        n: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
            note,
        });
    }

    /// Adds `<base>_p50_<unit>` and `<base>_p90_<unit>` from `dist`
    /// (scaled by `scale`), with their sample counts and tail depth;
    /// flags a p90 with fewer than ten samples beyond it.
    pub fn add_tails(&mut self, base: &str, dist: &mut Dist, unit: &'static str, scale: f64) {
        for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
            let name = format!("{base}_{tag}_{unit}");
            match dist.pct(q) {
                Some(v) => {
                    let beyond = dist.beyond(q);
                    if q > 0.5 && beyond < 10 {
                        self.flags.push(format!(
                            "{name}: only {beyond} of {} samples lie beyond it (fewer than 10)",
                            dist.len()
                        ));
                    }
                    self.add_note(
                        name,
                        v * scale,
                        unit,
                        dist.len(),
                        format!("beyond={beyond}"),
                    );
                }
                None => self.flags.push(format!("{name}: no samples")),
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// The human-readable report: every metric with unit and sample
    /// count, then the informational lines and steadiness flags.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {workload} {:<44} {:>16.6} {:<6} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.n,
                if m.note.is_empty() {
                    String::new()
                } else {
                    format!(" {}", m.note)
                }
            );
        }
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        for f in &self.flags {
            let _ = writeln!(out, "flag {workload} {f}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut d = Dist::default();
        for v in 1..=100 {
            d.push(v as f64);
        }
        assert_eq!(d.pct(0.5), Some(50.0));
        assert_eq!(d.pct(0.9), Some(90.0));
        assert_eq!(d.beyond(0.9), 10);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::derive(1, 0);
        let low = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(low > 3000, "top-10 share {low}");
    }
}
