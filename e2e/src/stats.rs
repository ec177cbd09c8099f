//! Medians, percentiles and the process's peak memory.

/// Median of `values` (sorts them).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The `p`-quantile of ascending `sorted`, between the two nearest ranks.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let below = sorted[rank.floor() as usize] as f64;
    let above = sorted[rank.ceil() as usize] as f64;
    below + (above - below) * rank.fract()
}

/// The process's peak resident set (`VmHWM`), in MiB. Set-up and the
/// verification unit keep their own memory small (containers on files,
/// comparisons in chunks) so that the peak is the workload's.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
