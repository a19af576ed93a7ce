//! Abort causes and the abort signal shared by both STMs.
//!
//! The STM runtimes report three kinds of events to a
//! [`crate::guidance::GuidanceHook`]: transaction begin (the *gate*), abort,
//! and commit. This module defines the abort taxonomy shared by both STMs
//! and the abort signal their retry driver propagates.

use crate::ids::ThreadId;

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
    pub(crate) fn conflicting_thread(&self) -> Option<ThreadId> {
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
pub(crate) struct ConflictSite {
    addr: usize,
}

impl ConflictSite {
    /// No known location (attribution counts this abort as unattributed).
    pub(crate) const UNKNOWN: ConflictSite = ConflictSite { addr: 0 };

    /// A conflict detected on the location with the given stable key.
    /// A zero key collapses to [`ConflictSite::UNKNOWN`] (allocation
    /// addresses are never null).
    pub(crate) fn at(addr: usize) -> Self {
        ConflictSite { addr }
    }

    /// The conflicting location's key, if one was recorded.
    pub(crate) fn addr(self) -> Option<usize> {
        (self.addr != 0).then_some(self.addr)
    }

    /// The raw key (0 = unknown) — the trace-schema encoding.
    pub(crate) fn raw(self) -> usize {
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
    pub(crate) site: ConflictSite,
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
