//! The benchmark's own arithmetic: order statistics, tail selection,
//! derived differentials and open-loop stage selection. Pure functions
//! over plain numbers, unit-tested on fixed inputs below.

use std::time::Instant;

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The value at percentile `p` (0..=100) of `sorted` (ascending), by
/// the nearest-rank rule: the smallest sample with at least `p`% of the
/// samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// A sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] with at least [`TAIL_BEYOND`] samples beyond it, as
/// `(percentile, value)`. Fewer than `TAIL_BEYOND + 1` samples have no
/// such percentile; the maximum is reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    for p in TAIL_LADDER {
        if beyond(s.len(), p) >= TAIL_BEYOND {
            return (p, percentile(&s, p));
        }
    }
    (100.0, s.last().copied().unwrap_or(0.0))
}

/// Sum of values.
pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Mean of values, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        sum(values) / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0 (a layer the workload never reached).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The assembly/validation split derived from three timings of the
/// same stems: `engine` (the two implication processes alone),
/// `unvalidated` (`run_stem` without Definition 6) and `validated`
/// (`run_stem` with it). Returns `(assembly, validation)`.
pub fn stem_split(engine: f64, unvalidated: f64, validated: f64) -> (f64, f64) {
    (unvalidated - engine, validated - unvalidated)
}

/// Runner idle time: thread-time the pool had minus what units and
/// journal waits used.
pub fn idle(threads: usize, run: f64, busy: f64, journal_wait: f64) -> f64 {
    threads as f64 * run - busy - journal_wait
}

/// Relative overhead of a traced measurement over an untraced one.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    ratio(traced - untraced, untraced) * 100.0
}

/// Rates over consecutive windows of `per` completions: `per` divided
/// by the time from the window's start (the previous window's last
/// completion, or `start`) to its last completion. A partial last
/// window is dropped.
pub fn window_rates(done: &[Instant], start: Instant, per: usize) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut from = start;
    for chunk in done.chunks_exact(per.max(1)) {
        let to = chunk[chunk.len() - 1];
        let secs = to.saturating_duration_since(from).as_secs_f64();
        if secs > 0.0 {
            rates.push(chunk.len() as f64 / secs);
        }
        from = to;
    }
    rates
}

/// What one open-loop stage measured.
#[derive(Clone, Debug, PartialEq)]
pub struct StageResult {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Requests completed per second of the stage window.
    pub achieved_rps: f64,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed, were refused or returned wrong bytes.
    pub failed: usize,
    /// Tail latency of the stage, ms.
    pub tail_ms: f64,
    /// Requests due but not yet sent a quarter into the stage.
    pub backlog_early: usize,
    /// Requests due but not yet sent at the end of the stage window.
    pub backlog_end: usize,
}

/// Backlog growth a stage may show and still count as keeping up: a
/// request or two waiting behind a long response is noise, a backlog
/// that keeps growing is not.
pub const BACKLOG_SLACK: usize = 2;

impl StageResult {
    /// `true` when the stage failed nothing, kept its tail within
    /// `limit_ms` and did not let its backlog grow.
    pub fn ok(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.tail_ms <= limit_ms
            && self.backlog_end <= self.backlog_early + BACKLOG_SLACK
    }
}

/// The highest-rate stage that is [`StageResult::ok`], if any.
pub fn max_ok_stage(stages: &[StageResult], limit_ms: f64) -> Option<&StageResult> {
    stages
        .iter()
        .filter(|s| s.ok(limit_ms))
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = seq(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let (p, v) = tail(&seq(1000));
        assert_eq!((p, v), (99.0, 990.0));
        // 200 samples: p99 leaves 2, p95 leaves 10.
        assert_eq!(tail(&seq(200)), (95.0, 190.0));
        // 100 samples: p95 leaves 5, p90 leaves 10.
        assert_eq!(tail(&seq(100)), (90.0, 90.0));
        // 60: p80 leaves 12.
        assert_eq!(tail(&seq(60)), (80.0, 48.0));
        // 20: only the median leaves 10 beyond.
        assert_eq!(tail(&seq(20)), (50.0, 10.0));
        // 10: nothing does; the maximum stands in.
        assert_eq!(tail(&seq(10)), (100.0, 10.0));
        for n in 1..2000 {
            let (p, _) = tail(&seq(n));
            if n < 2 * TAIL_BEYOND {
                assert_eq!(p, 100.0, "n={n}");
            } else {
                assert!(beyond(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = seq(300);
        v.reverse();
        assert_eq!(tail(&v), (95.0, 285.0));
    }

    #[test]
    fn derived_differentials() {
        assert_eq!(stem_split(10.0, 40.0, 100.0), (30.0, 60.0));
        assert_eq!(idle(2, 10.0, 15.0, 1.0), 4.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert!((overhead_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn window_rates_split_completions() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let done = [
            at(100),
            at(200),
            at(300),
            at(400),
            at(600),
            at(800),
            at(900),
        ];
        // Windows of 2: 0..200 ms, 200..400 ms, 400..800 ms; 900 dropped.
        let r = window_rates(&done, t0, 2);
        assert_eq!(r.len(), 3);
        assert!((r[0] - 10.0).abs() < 1e-9);
        assert!((r[1] - 10.0).abs() < 1e-9);
        assert!((r[2] - 5.0).abs() < 1e-9);
        assert_eq!(median(&r), 10.0);
    }

    fn stage(rps: f64, failed: usize, tail_ms: f64, early: usize, end: usize) -> StageResult {
        StageResult {
            offered_rps: rps,
            achieved_rps: rps * 0.98,
            attempted: 40,
            failed,
            tail_ms,
            backlog_early: early,
            backlog_end: end,
        }
    }

    #[test]
    fn max_ok_stage_picks_highest_passing_rate() {
        let stages = [
            stage(2.0, 0, 50.0, 0, 0),
            stage(4.0, 0, 80.0, 0, 1),
            stage(8.0, 0, 90.0, 1, 3),
            stage(16.0, 0, 400.0, 0, 0),
        ];
        // 16 rps misses the 300 ms limit; 8 rps grew its backlog by 2,
        // which is within the slack.
        assert_eq!(max_ok_stage(&stages, 300.0).unwrap().offered_rps, 8.0);
        assert_eq!(max_ok_stage(&stages, 500.0).unwrap().offered_rps, 16.0);
        assert!(max_ok_stage(&stages, 10.0).is_none());
    }

    #[test]
    fn stage_fails_on_backlog_growth_or_failure() {
        let stages = [
            stage(2.0, 0, 50.0, 0, 0),
            stage(4.0, 0, 60.0, 1, 4),   // backlog grew by 3
            stage(8.0, 1, 60.0, 0, 0),   // one failed request
            stage(16.0, 0, 60.0, 9, 40), // overloaded
        ];
        assert!(!stages[1].ok(1000.0));
        assert!(!stages[2].ok(1000.0));
        assert_eq!(max_ok_stage(&stages, 1000.0).unwrap().offered_rps, 2.0);
        let empty = StageResult {
            attempted: 0,
            ..stage(1.0, 0, 0.0, 0, 0)
        };
        assert!(!empty.ok(1000.0));
    }
}
