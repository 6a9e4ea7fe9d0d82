//! Order statistics the benchmark reports: medians, quartiles and tail
//! percentiles with the sample counts that support them.

/// Samples a percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered when reporting a tail, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the exclusive method, the default of
/// Python's `statistics.quantiles(values, n=4)`. `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let n = 4;
        let m = len + 1;
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are compared against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank percentile of ascending `sorted` samples, with the
/// number of samples strictly after its rank. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = rank(p, n).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// 1-based nearest rank of percentile `p` among `n` samples (a tiny
/// tolerance keeps e.g. 99.9% of 10 000 at rank 9990).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it among `n` samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&p| {
        let rank = rank(p, n);
        rank >= 1 && n - rank.min(n) >= MIN_BEYOND
    })
}

/// Mean over groups of each group's nearest-rank percentile `p`.
/// Requests of different templates form separate latency modes; a
/// percentile taken across the mixture falls between modes and jumps
/// between them from run to run, while each group's own holds steady.
/// `None` when there are no groups or a group leaves fewer than
/// [`MIN_BEYOND`] samples beyond its percentile.
pub fn grouped_percentile<G: AsRef<[f64]>>(groups: &[G], p: f64) -> Option<f64> {
    if groups.is_empty() {
        return None;
    }
    let mut sum = 0.0;
    for group in groups {
        let (value, beyond) = percentile(&sorted(group.as_ref()), p)?;
        if beyond < MIN_BEYOND {
            return None;
        }
        sum += value;
    }
    Some(sum / groups.len() as f64)
}

/// Samples per group that close a tail window: the nearest-rank p99 of
/// 1000 samples leaves exactly [`MIN_BEYOND`] beyond it.
pub const TAIL_WINDOW: usize = 1000;

/// Consecutive windows of latencies, each closed once every group holds
/// [`TAIL_WINDOW`] samples; a window's p99 is the mean of its groups'
/// p99s. Memory stays bounded however long the run.
#[derive(Debug, Clone)]
pub struct TailWindows {
    open: Vec<Vec<f64>>,
    p99s: Vec<f64>,
}

impl TailWindows {
    /// Windows over `groups` latency groups.
    pub fn new(groups: usize) -> TailWindows {
        TailWindows {
            open: vec![Vec::with_capacity(TAIL_WINDOW); groups],
            p99s: Vec::new(),
        }
    }

    /// Add one latency of `group`.
    pub fn push(&mut self, group: usize, latency: f64) {
        self.open[group].push(latency);
        if self.open.iter().all(|g| g.len() >= TAIL_WINDOW) {
            if let Some(p99) = grouped_percentile(&self.open, 99.0) {
                self.p99s.push(p99);
            }
            self.open.iter_mut().for_each(Vec::clear);
        }
    }

    /// The p99 of every closed window.
    pub fn p99s(&self) -> &[f64] {
        &self.p99s
    }
}

/// Throughput and median latency of one short segment of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Completed operations per second.
    pub qps: f64,
    /// Mean over groups of the group's median latency, ms.
    pub p50_ms: f64,
}

impl Segment {
    /// Summarise a segment that completed `done` operations in `secs`
    /// seconds with latencies `groups`. `None` when a group is too small
    /// to support its median.
    pub fn of<G: AsRef<[f64]>>(groups: &[G], done: u64, secs: f64) -> Option<Segment> {
        Some(Segment {
            qps: done as f64 / secs,
            p50_ms: grouped_percentile(groups, 50.0)?,
        })
    }
}

/// `(qps, p50_ms, p99_ms)` of a run: the medians of its segments'
/// throughput and median latency and of its tail windows' p99. The
/// machine's speed drifts by up to 2x within seconds; many short
/// segments and windows spread over the run keep one slow stretch from
/// moving a figure. `None` without segments or closed tail windows.
pub fn summarize_run(segments: &[Segment], tails: &TailWindows) -> Option<(f64, f64, f64)> {
    let qps: Vec<f64> = segments.iter().map(|s| s.qps).collect();
    let p50: Vec<f64> = segments.iter().map(|s| s.p50_ms).collect();
    Some((median(&qps)?, median(&p50)?, median(tails.p99s())?))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
        assert!(close(q1, 1.5) && close(q3, 4.5), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_iqr(&ten).unwrap(), (8.25 - 2.75) / 5.5));
        assert!(close(relative_iqr(&[2.0; 10]).unwrap(), 0.0));
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&hundred, 99.0), Some((99.0, 1)));
        assert_eq!(percentile(&hundred, 100.0), Some((100.0, 0)));
        assert_eq!(percentile(&[7.0], 0.0), Some((7.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        // A full tail window supports exactly its p99.
        assert_eq!(highest_supported_percentile(TAIL_WINDOW), Some(99.0));
    }

    #[test]
    fn tail_windows_close_when_every_group_is_full() {
        let mut tails = TailWindows::new(2);
        for v in 1..=1000 {
            tails.push(0, f64::from(v));
        }
        assert!(tails.p99s().is_empty());
        for v in 1..=999 {
            tails.push(1, f64::from(v) + 10_000.0);
        }
        assert!(tails.p99s().is_empty());
        tails.push(1, 11_000.0);
        assert_eq!(tails.p99s(), &[(990.0 + 10_990.0) / 2.0]);
        for v in 1..=1500 {
            tails.push(0, f64::from(v));
        }
        assert_eq!(tails.p99s().len(), 1);
    }

    #[test]
    fn runs_summarise_to_medians_of_segments_and_windows() {
        let group: Vec<f64> = (1..=1000).map(f64::from).collect();
        let seg = Segment::of(std::slice::from_ref(&group), 500, 2.0).unwrap();
        assert_eq!(
            seg,
            Segment {
                qps: 250.0,
                p50_ms: 500.0
            }
        );
        assert_eq!(Segment::of(&[vec![1.0; 19]], 19, 1.0), None);
        let slow = Segment {
            qps: 100.0,
            p50_ms: 900.0,
        };
        let mut tails = TailWindows::new(1);
        assert_eq!(summarize_run(std::slice::from_ref(&seg), &tails), None);
        for shift in [0.0, 5_000.0, 0.0] {
            for &v in &group {
                tails.push(0, v + shift);
            }
        }
        let segs = [seg.clone(), slow, seg];
        assert_eq!(summarize_run(&segs, &tails), Some((250.0, 500.0, 990.0)));
        assert_eq!(summarize_run(&[], &tails), None);
    }

    #[test]
    fn grouped_percentiles_average_each_groups_own() {
        let fast: Vec<f64> = (1..=1000).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|v| v + 10_000.0).collect();
        let both = [fast.clone(), slow];
        assert_eq!(
            grouped_percentile(&both, 50.0),
            Some((500.0 + 10_500.0) / 2.0)
        );
        assert_eq!(
            grouped_percentile(&both, 99.0),
            Some((990.0 + 10_990.0) / 2.0)
        );
        assert_eq!(grouped_percentile(&[fast, vec![1.0; 999]], 99.0), None);
        assert_eq!(grouped_percentile::<Vec<f64>>(&[], 50.0), None);
    }
}
