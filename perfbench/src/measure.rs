//! Small measurement helpers: order statistics, digests and host
//! readings from `/proc`.

use std::time::Instant;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The samples behind one timing, kept for the provenance summary.
#[derive(Clone, Debug)]
pub struct Samples {
    pub name: &'static str,
    pub values: Vec<f64>,
}

/// Linear-interpolation quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Expands `(value, weight)` samples: each value repeated `weight`
/// times.
pub fn expand(samples: &[(f64, usize)]) -> Vec<f64> {
    samples
        .iter()
        .flat_map(|&(value, weight)| std::iter::repeat_n(value, weight))
        .collect()
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, with its percentile level. Each sample is
/// a `(value, weight)` pair and adds its weight to the level, but
/// counts once as a sample beyond it: a weight stands for points that
/// share one timing. With fewer than eleven samples no such percentile
/// exists and the maximum is returned at level 100.
pub fn tail(samples: &[(f64, usize)]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n < 11 {
        return (v[n - 1].0, 100.0);
    }
    let weight = |s: &[(f64, usize)]| s.iter().map(|&(_, w)| w).sum::<usize>() as f64;
    let total = weight(&v);
    (v[n - 11].0, 100.0 * (total - weight(&v[n - 10..])) / total)
}

/// 64-bit FNV-1a, folded incrementally over byte chunks.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU seconds of every thread this process has run,
/// including threads that have already exited (`/proc/self/stat`,
/// 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Host description for the provenance line.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<(f64, usize)> = (1..=100).map(|v| (f64::from(v), 1)).collect();
        assert_eq!(tail(&values), (90.0, 90.0));
        assert_eq!(tail(&[(3.0, 1), (1.0, 1)]), (3.0, 100.0));
        // Weights move the level, not the samples counted beyond it.
        let weighted: Vec<(f64, usize)> = (1..=20).map(|v| (f64::from(v), 2)).collect();
        assert_eq!(tail(&weighted), (10.0, 50.0));
        assert_eq!(expand(&[(1.0, 2), (5.0, 1)]), vec![1.0, 1.0, 5.0]);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }
}
