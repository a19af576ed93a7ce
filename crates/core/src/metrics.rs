//! Measurement utilities: variance, abort-tail metric, non-determinism.
//!
//! These implement the paper's quantities exactly:
//!
//! * **Variance** of a thread's execution time is reported as the sample
//!   standard deviation over repeated runs (`N-1` denominator).
//! * **Non-determinism** of an execution is the number of *distinct* thread
//!   transactional states exercised.
//! * The **tail metric** of an abort distribution is `tail = Σ j²` over the
//!   distinct abort-counts `j` that occurred with non-zero frequency —
//!   squaring emphasises the tail (high abort counts), so shrinking the
//!   metric means the tail was cut.

use crate::tss::StateKey;
use std::collections::{BTreeMap, HashSet};

/// Sample mean of a series.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation with the `N-1` denominator, as defined in
/// Section II-B of the paper. Returns 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|&x| (x - m) * (x - m)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Exact nearest-rank quantile over a sorted sample (`q` in `[0,1]`);
/// 0 for an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentage improvement of `new` over `base`: positive when `new < base`.
/// Returns 0 when the baseline is 0 (nothing to improve).
pub fn pct_improvement(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (base - new) / base
    }
}

/// Slowdown factor of `new` relative to `base` (1.0 = equal, 2.0 = twice as
/// slow). Returns 1.0 when the baseline is 0.
pub fn slowdown(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        1.0
    } else {
        new / base
    }
}

/// Number of distinct thread transactional states across a set of runs —
/// the paper's measure of non-determinism.
pub fn non_determinism<S: AsRef<[StateKey]>>(runs: &[S]) -> usize {
    let mut distinct: HashSet<&StateKey> = HashSet::new();
    for run in runs {
        for key in run.as_ref() {
            distinct.insert(key);
        }
    }
    distinct.len()
}

/// Histogram of "number of aborts before a successful commit".
///
/// Each completed transaction contributes one sample: the number of times
/// it rolled back before committing. `0:700` in the paper's artifact output
/// means 700 transactions committed first try.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct AbortHistogram {
    counts: BTreeMap<u32, u64>,
}

impl AbortHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one committed transaction that aborted `aborts` times first.
    pub fn record(&mut self, aborts: u32) {
        *self.counts.entry(aborts).or_insert(0) += 1;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &AbortHistogram) {
        for (&j, &f) in &other.counts {
            *self.counts.entry(j).or_insert(0) += f;
        }
    }

    /// `(abort_count, frequency)` pairs in increasing abort count.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&j, &f)| (j, f))
    }

    /// Total number of committed transactions recorded.
    pub fn total_commits(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Total number of aborts across all recorded transactions.
    pub fn total_aborts(&self) -> u64 {
        self.counts.iter().map(|(&j, &f)| j as u64 * f).sum()
    }

    /// The largest abort count observed (tail length).
    pub fn max_aborts(&self) -> u32 {
        self.counts.keys().next_back().copied().unwrap_or(0)
    }

    /// The paper's tail metric: `Σ j²` over distinct abort counts `j` with
    /// non-zero frequency. A longer tail (more distinct high abort counts)
    /// yields a larger value.
    pub fn tail_metric(&self) -> u64 {
        self.counts
            .keys()
            .map(|&j| (j as u64) * (j as u64))
            .sum()
    }

    /// Abort ratio: aborts / (aborts + commits). 0 if nothing recorded.
    pub fn abort_ratio(&self) -> f64 {
        let commits = self.total_commits();
        let aborts = self.total_aborts();
        if commits + aborts == 0 {
            0.0
        } else {
            aborts as f64 / (aborts + commits) as f64
        }
    }
}

impl FromIterator<(u32, u64)> for AbortHistogram {
    fn from_iter<I: IntoIterator<Item = (u32, u64)>>(iter: I) -> Self {
        AbortHistogram {
            counts: iter.into_iter().filter(|&(_, f)| f > 0).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Pair, ThreadId, TxnId};

    #[test]
    fn std_dev_matches_hand_computation() {
        // Samples 2,4,4,4,5,5,7,9: mean 5, sample variance 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = std_dev(&xs);
        assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs = [100, 150, 200, 250];
        assert_eq!(quantile(&xs, 0.50), 150);
        assert_eq!(quantile(&xs, 0.99), 250);
        assert_eq!(quantile(&xs, 0.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn improvement_and_slowdown() {
        assert!((pct_improvement(2.0, 1.0) - 50.0).abs() < 1e-12);
        assert!((pct_improvement(1.0, 2.0) + 100.0).abs() < 1e-12);
        assert_eq!(pct_improvement(0.0, 5.0), 0.0);
        assert!((slowdown(2.0, 3.0) - 1.5).abs() < 1e-12);
        assert_eq!(slowdown(0.0, 3.0), 1.0);
    }

    #[test]
    fn non_determinism_counts_distinct_states() {
        let p = |t, th| Pair::new(TxnId(t), ThreadId(th));
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let runs = vec![vec![a.clone(), b.clone(), a.clone()], vec![b.clone()]];
        assert_eq!(non_determinism(&runs), 2);
        assert_eq!(non_determinism::<Vec<StateKey>>(&[]), 0);
    }

    #[test]
    fn tail_metric_squares_distinct_abort_counts() {
        let mut h = AbortHistogram::new();
        h.record(0);
        h.record(0);
        h.record(3);
        h.record(5);
        // Distinct abort counts: 0, 3, 5 → 0 + 9 + 25 = 34.
        assert_eq!(h.tail_metric(), 34);
        assert_eq!(h.max_aborts(), 5);
        assert_eq!(h.total_commits(), 4);
        assert_eq!(h.total_aborts(), 8);
    }

    #[test]
    fn tail_metric_shrinks_when_tail_is_cut() {
        let long: AbortHistogram = [(0, 100), (1, 10), (7, 1), (12, 1)].into_iter().collect();
        let cut: AbortHistogram = [(0, 108), (1, 12), (2, 1)].into_iter().collect();
        assert!(cut.tail_metric() < long.tail_metric());
    }

    #[test]
    fn merge_accumulates() {
        let mut a: AbortHistogram = [(0, 5), (2, 1)].into_iter().collect();
        let b: AbortHistogram = [(0, 3), (1, 2)].into_iter().collect();
        a.merge(&b);
        let expect: AbortHistogram = [(0, 8), (1, 2), (2, 1)].into_iter().collect();
        assert_eq!(a, expect);
    }

    #[test]
    fn abort_ratio() {
        let h: AbortHistogram = [(0, 50), (1, 50)].into_iter().collect();
        // 50 aborts, 100 commits → ratio 1/3.
        assert!((h.abort_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(AbortHistogram::new().abort_ratio(), 0.0);
    }
}
