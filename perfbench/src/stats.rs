//! Small measurement helpers: percentiles, process memory, busy-waits.

use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `v` by nearest rank; sorts `v` in place.
/// An empty sample reads 0.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, as a label (`"p99.9"`), for a sample of `n`.
pub fn supported_percentile(n: usize) -> &'static str {
    match n {
        n if n >= 100_000 => "p99.99",
        n if n >= 10_000 => "p99.9",
        n if n >= 1_000 => "p99",
        n if n >= 100 => "p90",
        n if n >= 20 => "p50",
        _ => "none",
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident set size now, in KiB (0 where `/proc` is unavailable).
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:").unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn hwm_kib() -> u64 {
    status_kib("VmHWM:").unwrap_or(0)
}

/// Reset `VmHWM` to the current RSS (`clear_refs` = 5). Returns false
/// where the kernel refuses it, so the caller can say the peak also
/// covers set-up.
pub fn reset_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Spin (without yielding) for `d`: the fixed delay the attribution
/// self-test injects into one layer wrapper.
pub fn busy_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn percentile_support_needs_ten_beyond() {
        assert_eq!(supported_percentile(999), "p90");
        assert_eq!(supported_percentile(1_000), "p99");
        assert_eq!(supported_percentile(12_000), "p99.9");
    }
}
