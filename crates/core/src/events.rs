//! Raw transactional events and abort causes.
//!
//! The STM runtimes report three kinds of events to a
//! [`crate::guidance::GuidanceHook`]: transaction begin (the *gate*), abort,
//! and commit. This module defines the abort taxonomy shared by both STMs
//! and a totally ordered event log used by tests and offline analyses that
//! want to inspect raw interleavings rather than the online TSS stream.

use crate::ids::{Pair, ThreadId};
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a transaction attempt rolled back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortCause {
    /// A location read was write-locked by another transaction.
    ReadLocked {
        /// The lock holder, when the lock word records one.
        owner: Option<ThreadId>,
    },
    /// A location's version exceeded the transaction's read version at read
    /// time (a conflicting commit happened since the transaction began).
    ReadVersion,
    /// Commit-time lock acquisition found a location locked by another
    /// transaction and gave up after bounded spinning.
    CommitLockBusy {
        /// The lock holder, when known.
        owner: Option<ThreadId>,
    },
    /// Commit-time read-set validation failed (a conflicting commit
    /// intervened between first read and commit).
    Validation,
    /// The transaction was doomed by a committing writer
    /// (LibTM's *abort-readers* conflict resolution).
    AbortedByWriter {
        /// The writer that doomed this reader, when known.
        writer: Option<ThreadId>,
    },
    /// The user function requested an explicit retry.
    Explicit,
}

impl AbortCause {
    /// The conflicting thread, when the STM knows it.
    pub fn conflicting_thread(&self) -> Option<ThreadId> {
        match *self {
            AbortCause::ReadLocked { owner } => owner,
            AbortCause::CommitLockBusy { owner } => owner,
            AbortCause::AbortedByWriter { writer } => writer,
            AbortCause::ReadVersion | AbortCause::Validation | AbortCause::Explicit => None,
        }
    }
}

/// The memory location a conflict was detected on.
///
/// [`AbortCause`] records *who* a transaction conflicted with but not
/// *where*; `ConflictSite` carries the contended location's stable
/// identity (its allocation address — the same key the read/write sets
/// use) alongside the cause. It rides the backends' abort structs rather
/// than the cause enum so existing cause matching and its trace schema
/// stay untouched; a zero address means the backend could not name a
/// location (explicit retries, doom flags observed without provenance),
/// which the contention sketch counts as *unattributed*.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConflictSite {
    addr: usize,
}

impl ConflictSite {
    /// No known location (attribution counts this abort as unattributed).
    pub const UNKNOWN: ConflictSite = ConflictSite { addr: 0 };

    /// A conflict detected on the location with the given stable key.
    /// A zero key collapses to [`ConflictSite::UNKNOWN`] (allocation
    /// addresses are never null).
    pub fn at(addr: usize) -> Self {
        ConflictSite { addr }
    }

    /// The conflicting location's key, if one was recorded.
    pub fn addr(self) -> Option<usize> {
        (self.addr != 0).then_some(self.addr)
    }

    /// The raw key (0 = unknown) — the trace-schema encoding.
    pub fn raw(self) -> usize {
        self.addr
    }
}

/// Control-flow signal that the current transaction attempt must roll
/// back, shared by both STMs. Produced by conflict detection (or an
/// explicit retry) and propagated with `?` out of the transaction body to
/// the retry driver ([`crate::Instruments::run`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Abort {
    /// What killed the attempt.
    pub cause: AbortCause,
    /// Where the conflict was detected (unknown for explicit retries).
    pub site: ConflictSite,
}

impl Abort {
    /// An explicit retry: no adversary, no location.
    pub const EXPLICIT: Abort = Abort {
        cause: AbortCause::Explicit,
        site: ConflictSite::UNKNOWN,
    };

    /// An abort with `cause`, detected on the location keyed `addr`.
    pub fn at(cause: AbortCause, addr: usize) -> Self {
        Abort {
            cause,
            site: ConflictSite::at(addr),
        }
    }
}

/// Result of a transactional operation.
pub type TxResult<T> = Result<T, Abort>;

/// One entry in the global event log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxEvent {
    /// A transaction attempt began.
    Begin(Pair),
    /// A transaction attempt aborted for the given reason.
    Abort(Pair, AbortCause),
    /// A transaction committed; `wv` is the write version it installed
    /// (TL2's post-increment of the global version clock), or 0 for STMs
    /// without a global clock.
    Commit(Pair, u64),
}

impl TxEvent {
    /// The `<txn,thread>` pair this event concerns.
    pub fn pair(&self) -> Pair {
        match *self {
            TxEvent::Begin(p) | TxEvent::Abort(p, _) | TxEvent::Commit(p, _) => p,
        }
    }
}

/// Retained-entry bound used by [`EventLog::new`]: long harness runs keep
/// at most this many of the newest events instead of growing without
/// bound.
pub const DEFAULT_LOG_CAPACITY: usize = 1 << 20;

/// Ring state behind the log's lock: the entries plus the overwrite
/// cursor used once the capacity bound is reached.
#[derive(Default)]
struct LogInner {
    entries: Vec<(u64, TxEvent)>,
    next: usize,
    dropped: u64,
}

/// A totally ordered log of [`TxEvent`]s, bounded to the newest
/// `capacity` entries.
///
/// Each appended event receives a globally unique, monotonically increasing
/// sequence number. Once `capacity` events are retained, the oldest entry
/// is overwritten (ring semantics), so unbounded recording cannot exhaust
/// memory on long runs. The log is intended for tests, debugging, and
/// offline experiments; the production guidance path uses the cheaper
/// online tracker in [`crate::guidance`].
pub struct EventLog {
    seq: AtomicU64,
    capacity: usize,
    inner: Mutex<LogInner>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_LOG_CAPACITY)
    }
}

impl EventLog {
    /// Create an empty log retaining up to [`DEFAULT_LOG_CAPACITY`]
    /// events.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty log retaining up to `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "EventLog capacity must be nonzero");
        EventLog {
            seq: AtomicU64::new(0),
            capacity,
            inner: Mutex::new(LogInner::default()),
        }
    }

    /// Append an event, returning its sequence number. Beyond the
    /// capacity bound the oldest retained event is overwritten.
    pub fn push(&self, ev: TxEvent) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if inner.entries.len() < self.capacity {
            inner.entries.push((seq, ev));
        } else {
            let i = inner.next;
            inner.entries[i] = (seq, ev);
            inner.next = (i + 1) % self.capacity;
            inner.dropped += 1;
        }
        seq
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten because the log was at capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Snapshot the retained events ordered by sequence number.
    ///
    /// The output buffer is preallocated *before* the lock is taken and
    /// the sort happens after it is released, so concurrent `push`es are
    /// blocked only for the memcpy of the entries.
    pub fn snapshot(&self) -> Vec<(u64, TxEvent)> {
        let mut out = Vec::with_capacity(self.len());
        {
            let inner = self.inner.lock();
            out.extend_from_slice(&inner.entries);
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out
    }

    /// Take the retained events (ordered by sequence number), leaving the
    /// log empty. The entries are moved out with an O(1) swap under the
    /// lock; no copy or allocation happens while it is held.
    pub fn drain(&self) -> Vec<(u64, TxEvent)> {
        let mut out = {
            let mut inner = self.inner.lock();
            inner.next = 0;
            std::mem::take(&mut inner.entries)
        };
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out
    }

    /// Drop all recorded events (the sequence counter keeps advancing).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ThreadId, TxnId};

    fn p(t: u16, th: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(th))
    }

    #[test]
    fn log_orders_by_sequence() {
        let log = EventLog::new();
        log.push(TxEvent::Begin(p(0, 0)));
        log.push(TxEvent::Abort(p(0, 0), AbortCause::Validation));
        log.push(TxEvent::Commit(p(0, 1), 42));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(snap[2].1, TxEvent::Commit(p(0, 1), 42));
    }

    #[test]
    fn conflicting_thread_extraction() {
        assert_eq!(
            AbortCause::ReadLocked {
                owner: Some(ThreadId(3))
            }
            .conflicting_thread(),
            Some(ThreadId(3))
        );
        assert_eq!(AbortCause::Validation.conflicting_thread(), None);
        assert_eq!(
            AbortCause::AbortedByWriter {
                writer: Some(ThreadId(1))
            }
            .conflicting_thread(),
            Some(ThreadId(1))
        );
    }

    #[test]
    fn clear_preserves_monotonic_sequence() {
        let log = EventLog::new();
        let s0 = log.push(TxEvent::Begin(p(0, 0)));
        log.clear();
        assert!(log.is_empty());
        let s1 = log.push(TxEvent::Begin(p(0, 1)));
        assert!(s1 > s0);
    }

    #[test]
    fn capacity_bound_keeps_newest_events() {
        let log = EventLog::with_capacity(4);
        for i in 0..10u16 {
            log.push(TxEvent::Commit(p(i, 0), i as u64));
        }
        assert_eq!(log.len(), 4, "retention is bounded");
        assert_eq!(log.dropped(), 6);
        let snap = log.snapshot();
        let seqs: Vec<u64> = snap.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest events survive, ordered");
    }

    #[test]
    fn drain_takes_and_resets() {
        let log = EventLog::with_capacity(2);
        log.push(TxEvent::Begin(p(0, 0)));
        log.push(TxEvent::Begin(p(0, 1)));
        log.push(TxEvent::Begin(p(0, 2))); // overwrites seq 0
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(log.is_empty());
        // The ring cursor reset: the next pushes fill from scratch.
        let s = log.push(TxEvent::Begin(p(1, 0)));
        assert_eq!(log.len(), 1);
        assert!(s >= 3, "sequence numbers keep advancing");
    }

    #[test]
    fn concurrent_pushes_get_unique_sequences() {
        use std::sync::Arc;
        let log = Arc::new(EventLog::new());
        let mut handles = Vec::new();
        for th in 0..4u16 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u16 {
                    log.push(TxEvent::Commit(p(i % 8, th), 0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 400);
        let mut seqs: Vec<u64> = snap.iter().map(|&(s, _)| s).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "sequence numbers must be unique");
    }
}
