//! Versioned write-locks.
//!
//! Every [`crate::TVar`] embeds one 64-bit word that is either
//!
//! * **unlocked**, carrying the version (`wv`) of the last commit that
//!   wrote the location, or
//! * **locked**, carrying the [`ThreadId`] of the committing owner.
//!
//! Readers sample the word before and after reading the value; any change
//! (lock taken, version bumped) means a conflicting commit intervened.

use gstm_core::ThreadId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bit 63 set ⇒ locked; low 16 bits then hold the owner thread id.
const LOCKED_BIT: u64 = 1 << 63;

/// A snapshot of a lock word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Sample(u64);

impl Sample {
    /// Is the lock currently held by a committing transaction?
    #[inline]
    pub(crate) fn is_locked(self) -> bool {
        self.0 & LOCKED_BIT != 0
    }

    /// The version stamped by the last commit. Only meaningful when
    /// unlocked.
    #[inline]
    pub(crate) fn version(self) -> u64 {
        debug_assert!(!self.is_locked());
        self.0
    }

    /// The owner recorded in a locked word.
    #[inline]
    pub(crate) fn owner(self) -> Option<ThreadId> {
        if self.is_locked() {
            Some(ThreadId((self.0 & 0xffff) as u16))
        } else {
            None
        }
    }
}

/// A versioned write-lock word.
#[derive(Debug, Default)]
pub(crate) struct VLock(AtomicU64);

impl VLock {
    /// An unlocked lock at the given version.
    pub(crate) const fn new(version: u64) -> Self {
        VLock(AtomicU64::new(version))
    }

    /// Sample the word.
    #[inline]
    pub(crate) fn sample(&self) -> Sample {
        Sample(self.0.load(Ordering::Acquire))
    }

    /// Try to acquire the lock. On success returns the version the word
    /// held (needed to restore it if the commit later aborts); on failure
    /// returns the observed sample (whose `owner()` names the holder).
    #[inline]
    pub(crate) fn try_lock(&self, owner: ThreadId) -> Result<u64, Sample> {
        let cur = self.0.load(Ordering::Acquire);
        if cur & LOCKED_BIT != 0 {
            return Err(Sample(cur));
        }
        let locked = LOCKED_BIT | owner.0 as u64;
        match self
            .0
            .compare_exchange(cur, locked, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => Ok(cur),
            Err(observed) => Err(Sample(observed)),
        }
    }

    /// Release the lock, stamping a (new or restored) version.
    ///
    /// Callers must hold the lock; the version must leave bit 63 clear.
    #[inline]
    pub(crate) fn unlock(&self, version: u64) {
        debug_assert!(version & LOCKED_BIT == 0, "version overflow");
        debug_assert!(self.sample().is_locked());
        self.0.store(version, Ordering::Release);
    }

    /// Whether the word is currently locked by `owner`. Used by read-set
    /// validation to accept locations the validating transaction itself
    /// locked for writing.
    #[inline]
    pub(crate) fn is_locked_by(&self, owner: ThreadId) -> bool {
        let cur = self.0.load(Ordering::Acquire);
        cur & LOCKED_BIT != 0 && (cur & 0xffff) as u16 == owner.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unlock_cycle() {
        let l = VLock::new(7);
        let s = l.sample();
        assert!(!s.is_locked());
        assert_eq!(s.version(), 7);

        let prev = l.try_lock(ThreadId(3)).unwrap();
        assert_eq!(prev, 7);
        let s = l.sample();
        assert!(s.is_locked());
        assert_eq!(s.owner(), Some(ThreadId(3)));
        assert!(l.is_locked_by(ThreadId(3)));
        assert!(!l.is_locked_by(ThreadId(4)));

        // Second acquisition fails and reports the holder.
        let err = l.try_lock(ThreadId(4)).unwrap_err();
        assert_eq!(err.owner(), Some(ThreadId(3)));

        l.unlock(42);
        let s = l.sample();
        assert!(!s.is_locked());
        assert_eq!(s.version(), 42);
    }

    #[test]
    fn samples_detect_version_changes() {
        let l = VLock::new(1);
        let before = l.sample();
        l.try_lock(ThreadId(0)).unwrap();
        l.unlock(2);
        let after = l.sample();
        assert_ne!(before, after, "version bump must change the sample");
    }

    #[test]
    fn contended_locking_has_single_winner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let l = Arc::new(VLock::new(0));
        let wins = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..8u16 {
            let l = Arc::clone(&l);
            let wins = Arc::clone(&wins);
            handles.push(std::thread::spawn(move || {
                if l.try_lock(ThreadId(t)).is_ok() {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1);
    }
}
