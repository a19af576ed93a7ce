//! Per-thread execution statistics.

use crate::events::AbortCause;
use crate::metrics::AbortHistogram;

/// Counters a worker thread accumulates over a run.
///
/// `abort_hist` holds the distribution the paper's tail figures are drawn
/// from: for each committed transaction, how many times it rolled back
/// before committing.
#[derive(Clone, Default, Debug)]
pub struct ThreadStats {
    /// Committed transactions.
    pub commits: u64,
    /// Rolled-back attempts (all causes).
    pub aborts: u64,
    /// Distribution of aborts-before-commit per transaction.
    pub abort_hist: AbortHistogram,
    /// Explicit retries requested by the transaction body.
    pub explicit: u64,
}

impl ThreadStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a committed transaction that aborted `retries` times first.
    pub(crate) fn record_commit(&mut self, retries: u32) {
        self.commits += 1;
        self.abort_hist.record(retries);
    }

    /// Record one rolled-back attempt.
    pub(crate) fn record_abort(&mut self, cause: AbortCause) {
        self.aborts += 1;
        if cause == AbortCause::Explicit {
            self.explicit += 1;
        }
    }

    /// Merge another thread's statistics into this one.
    pub fn merge(&mut self, other: &ThreadStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.abort_hist.merge(&other.abort_hist);
        self.explicit += other.explicit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ThreadId;

    #[test]
    fn commit_recording_builds_histogram() {
        let mut s = ThreadStats::new();
        s.record_commit(0);
        s.record_commit(0);
        s.record_commit(3);
        assert_eq!(s.commits, 3);
        assert_eq!(s.abort_hist.total_commits(), 3);
        assert_eq!(s.abort_hist.max_aborts(), 3);
    }

    #[test]
    fn abort_causes_are_bucketed() {
        let mut s = ThreadStats::new();
        s.record_abort(AbortCause::ReadLocked {
            owner: Some(ThreadId(1)),
        });
        s.record_abort(AbortCause::Explicit);
        s.record_abort(AbortCause::Validation);
        assert_eq!(s.aborts, 3);
        assert_eq!(s.explicit, 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ThreadStats::new();
        a.record_commit(1);
        a.record_abort(AbortCause::ReadVersion);
        let mut b = ThreadStats::new();
        b.record_commit(0);
        b.record_abort(AbortCause::Explicit);
        a.merge(&b);
        assert_eq!(a.commits, 2);
        assert_eq!(a.aborts, 2);
        assert_eq!(a.explicit, 1);
        assert_eq!(a.abort_hist.total_commits(), 2);
    }
}
