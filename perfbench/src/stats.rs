//! The benchmark's own arithmetic: the percentile rule and span self time.
//!
//! Both are self-tested below, because every reported number goes through
//! them.

/// Nearest-rank percentile of `sorted` (ascending), `q` in `(0, 1]`.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `xs` ascending.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timing summary under the percentile rule: the median always, and the
/// 90th percentile only when at least ten samples lie beyond it — fewer
/// than that and the tail is a handful of anecdotes, not a percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile (nearest rank), when at least ten samples exceed its
    /// rank.
    pub p90: Option<f64>,
}

/// Summarise `xs` under the percentile rule (see [`Summary`]).
pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    let n = v.len();
    let rank90 = (0.9 * n as f64).ceil() as usize;
    Summary {
        n,
        p50: median(xs),
        p90: (n > 0 && n - rank90 >= 10).then(|| nearest_rank(&v, 0.9)),
    }
}

/// 10th and 90th percentiles (nearest rank) — the spread printed beside a
/// probe's median.
pub fn p10_p90(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let v = sorted(xs);
    (nearest_rank(&v, 0.1), nearest_rank(&v, 0.9))
}

/// One recorded span, timestamps in nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What the span covers (`round`, `send_loop`, `finish_wait`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`>= start`).
    pub end: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// The round the span belongs to (0 for set-up spans).
    pub round: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may nest further, may
/// overlap one another (concurrent work), and may stick out of the parent;
/// only the covered part of the parent's own interval is subtracted, and
/// overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 1,
        }
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.p90, Some(90.0));

        // 99 samples: rank 90 leaves only 9 beyond it.
        let s = summarize(&xs[..99]);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, None);

        let s = summarize(&[]);
        assert_eq!((s.n, s.p50, s.p90), (0, 0.0, None));
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(p10_p90(&[5.0; 7]), (5.0, 5.0));
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // round [0,100) > send_loop [10,30) > inner [12,20); finish_wait [30,90).
        let spans = vec![
            span("round", 0, 100, None),
            span("send_loop", 10, 30, Some(0)),
            span("inner", 12, 20, Some(1)),
            span("finish_wait", 30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 12, 8, 60]);
    }

    #[test]
    fn self_time_merges_overlapping_and_clips_protruding_children() {
        // Children [10,50) and [30,70) overlap: union [10,70) = 60.
        // Child [90,130) sticks out of the parent: only [90,100) counts.
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 130, Some(0)),
            span("d", 40, 45, Some(0)), // inside the union already
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = vec![span("leaf", 5, 9, None)];
        assert_eq!(self_times(&spans), vec![4]);
    }
}
