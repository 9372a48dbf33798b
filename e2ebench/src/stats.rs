//! The benchmark's own arithmetic: percentiles and the sample-count
//! rule, failure accounting, `VmHWM` parsing and the Prometheus-style
//! text the service counters are scraped from.

/// Samples that must lie beyond a reported percentile for it to be
/// reported at all.
pub const BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// On an empty slice: a metric with no samples is a benchmark bug.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it.
///
/// # Panics
///
/// On an empty slice or `pct` outside `1..=100`.
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    sorted(samples)[rank(samples.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples,
/// `ceil(pct·n/100)`, in integers so no rounding can move it.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Samples strictly beyond the `pct`-th percentile's rank.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct).min(n)
}

/// The fewest samples for which [`BEYOND`] lie past the `pct`-th
/// percentile — how many rounds a run must make before it may report
/// that percentile.
pub fn samples_needed(pct: usize) -> usize {
    (1..)
        .find(|&n| beyond(n, pct) >= BEYOND)
        .expect("pct < 100")
}

/// Samples in one window of passes or rounds: enough that every window
/// supports its own p90.
pub fn window_len() -> usize {
    samples_needed(90)
}

/// Windows of passes or rounds a run fills before it may stop.
pub const MIN_WINDOWS: usize = 5;

/// `stat` of each run of `per_window` consecutive samples (the last
/// window takes the remainder), read in the window where it is least:
/// the run's quietest window. Samples must be timings, in the order
/// they were taken. Load from outside the process slows the host in
/// phases of seconds to minutes and can only add time, so the quietest
/// window is the one such a phase spared, and the statistic stands as
/// long as one window of the run was spared.
pub fn quiet(samples: &[f64], per_window: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per = per_window.max(1);
    let windows = (samples.len() / per).max(1);
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * per
            };
            stat(&samples[w * per..end])
        })
        .fold(f64::INFINITY, f64::min)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed in one run. Failures are rejected
/// events, `err` replies, failed syncs, dropped connections and
/// correctness mismatches; each failed operation also counts as
/// attempted.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the run's log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` attempted operations that failed.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.attempted += n;
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(why.into());
        }
    }

    /// Counts one check: success when `good`, else a failure.
    pub fn check(&mut self, good: bool, what: impl FnOnce() -> String) {
        if good {
            self.ok(1);
        } else {
            self.fail(1, what());
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in
/// MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = words.next()?.parse().ok()?;
    match words.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's `VmHWM` in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The samples of a Prometheus-style text exposition, `(series,
/// value)` in document order; comments and the `# EOF` terminator are
/// skipped. A series is the metric name with its label set, exactly as
/// written (`tc_ingest_handle_us_sum{wire="multi"}`).
pub fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.trim().to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// The value of one exact series, if present.
pub fn series(samples: &[(String, f64)], name: &str) -> Option<f64> {
    samples.iter().find(|(s, _)| s == name).map(|&(_, v)| v)
}

/// The sum over every series of metric `base`, whatever its labels
/// (`tc_worker_steals_total` sums the per-worker series).
pub fn sum_of(samples: &[(String, f64)], base: &str) -> f64 {
    samples
        .iter()
        .filter(|(s, _)| s.split('{').next() == Some(base))
        .map(|&(_, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_middle_or_mean_of_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(percentile(&s, 100), 100.0);
        // 10 samples: p90 is the 9th, p50 the 5th.
        let s: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 90), 9.0);
        assert_eq!(percentile(&s, 50), 5.0);
        assert_eq!(percentile(&[5.0], 90), 5.0);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond_the_percentile() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(101, 90), 10);
        assert_eq!(beyond(110, 90), 11);
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(50), 20);
        assert_eq!(samples_needed(99), 1000);
    }

    #[test]
    fn quiet_window_outlasts_a_long_slow_phase() {
        // 1,000 samples at 10 with a slow phase at 30 over the first
        // 850 and another over the last 50: only samples 850..950, the
        // second half of window 8 and the first of window 9, were
        // spared, and no window is wholly quiet.
        let mut s = vec![10.0; 1000];
        s[..850].fill(30.0);
        s[950..].fill(30.0);
        assert_eq!(percentile(&s, 90), 30.0);
        assert_eq!(median(&s), 30.0);
        assert_eq!(quiet(&s, window_len(), median), 20.0);
        assert_eq!(quiet(&s, window_len(), |w| percentile(w, 50)), 10.0);
        assert_eq!(quiet(&s, window_len(), |w| percentile(w, 90)), 30.0);
        // Windows are cut in sample order: 20 windows of 5 rising
        // samples, whose medians are 2, 7, .., 97.
        let mut rising: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(quiet(&rising, 5, median), 2.0);
        rising.reverse();
        assert_eq!(quiet(&rising, 5, median), 2.0);
        assert_eq!(quiet(&rising, 5, |w| w[0]), 4.0);
        // The last window takes the remainder: [0..5), [5..11).
        let s: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(quiet(&s, 5, |w| w.len() as f64), 5.0);
        assert_eq!(quiet(&s, 5, |w| -(w.len() as f64)), -6.0);
        // Fewer samples than a window: the plain statistic.
        assert_eq!(quiet(&[1.0, 3.0], 100, median), 2.0);
        assert_eq!(window_len(), 100);
    }

    #[test]
    fn tally_counts_failures_as_attempted() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.ok(98);
        t.fail(1, "rejected=1");
        t.check(false, || "mismatch".to_owned());
        t.check(true, || unreachable!());
        assert_eq!((t.attempted, t.failed), (101, 2));
        assert!((t.error_rate() - 2.0 / 101.0).abs() < 1e-15);
        assert_eq!(t.reasons, ["rejected=1", "mismatch"]);
    }

    #[test]
    fn vm_hwm_parses_kib_into_mib() {
        let status =
            "Name:\te2ebench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn prometheus_text_parses_series_and_sums_labels() {
        let text = "# TYPE tc_worker_steals_total counter\n\
                    tc_worker_steals_total{worker=\"0\"} 3\n\
                    tc_worker_steals_total{worker=\"1\"} 4\n\
                    tc_worker_steals_total_extra 100\n\
                    # TYPE tc_ingest_handle_us summary\n\
                    tc_ingest_handle_us{wire=\"multi\",quantile=\"0.5\"} 64\n\
                    tc_ingest_handle_us_sum{wire=\"multi\"} 1500\n\
                    tc_ingest_handle_us_count{wire=\"multi\"} 12\n\
                    tc_queue_depth_high_water 9\n\
                    # EOF\n";
        let s = parse_prometheus(text);
        assert_eq!(s.len(), 7);
        assert_eq!(sum_of(&s, "tc_worker_steals_total"), 7.0);
        assert_eq!(
            series(&s, "tc_ingest_handle_us_sum{wire=\"multi\"}"),
            Some(1500.0)
        );
        assert_eq!(
            series(&s, "tc_ingest_handle_us_count{wire=\"multi\"}"),
            Some(12.0)
        );
        assert_eq!(series(&s, "tc_queue_depth_high_water"), Some(9.0));
        assert_eq!(series(&s, "tc_missing"), None);
        assert_eq!(sum_of(&s, "tc_missing"), 0.0);
    }
}
