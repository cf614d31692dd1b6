//! Order statistics over exact samples and over the engine's log-linear
//! latency histograms, plus process counters read from `/proc`.

use sth_platform::obs::hist::bucket_high;
use sth_platform::obs::ValueHist;

/// Quantile `q` of `values` by linear interpolation between closest
/// ranks (the "type 7" estimator). 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` of nanosecond samples, in microseconds.
pub fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
    quantile(&us, q)
}

/// Quantile `q` of a [`ValueHist`], interpolated linearly inside the
/// bucket that holds the rank. The histogram's buckets are up to 3% wide;
/// reporting the bucket's upper bound, as `ValueHist::quantile` does,
/// would make a median move in 3% steps.
pub fn hist_quantile(h: &ValueHist, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for &(i, c) in h.buckets() {
        if (seen + c) as f64 >= rank {
            let i = i as usize;
            let lo = if i == 0 {
                0.0
            } else {
                bucket_high(i - 1) as f64 + 1.0
            };
            let hi = bucket_high(i) as f64 + 1.0;
            let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
        seen += c;
    }
    bucket_high(h.buckets().last().map_or(0, |&(i, _)| i as usize)) as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, in seconds.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line: indexes 11 and 12
    // counted from the state field that follows the name.
    let ticks = |k: usize| {
        fields
            .get(k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Clock ticks per second of `/proc/self/stat`; 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn hist_quantile_stays_inside_the_bucket() {
        let h = ValueHist::from_values([8_000, 8_100, 8_200, 8_300]);
        let p50 = hist_quantile(&h, 0.5);
        assert!((7_900.0..=8_500.0).contains(&p50), "{p50}");
        assert_eq!(hist_quantile(&ValueHist::new(), 0.5), 0.0);
    }
}
