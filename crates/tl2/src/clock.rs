//! The commit version clock.
//!
//! TL2's central serialization device is a monotonically increasing
//! version counter. Transactions sample it at begin (`rv`); committing
//! writers advance it and stamp their write locations with the new value
//! (`wv`). A location whose version exceeds a transaction's `rv` was
//! written after that transaction began, so reading it would be
//! inconsistent. [`GlobalClock`] is the textbook single atomic counter:
//! every commit is a `fetch_add` on one cache line. See `DESIGN.md` §12.
//!
//! ## Version-space overflow
//!
//! Stamped versions live in the low 63 bits of a [`crate::VLock`] word —
//! bit 63 is the lock bit. `u64` arithmetic itself wraps only after
//! 2^64 advances (> 580 years at 10⁹ commits/s), and the *usable* space
//! is 2^63. Overflow is therefore a program-logic impossibility, not a
//! runtime condition: `advance` documents wrapping `u64` semantics and
//! carries a `debug_assert!` that the returned stamp keeps bit 63 clear,
//! so a hypothetical overflow is caught loudly in debug builds instead of
//! silently corrupting lock words in release.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bit 63 of a version word is the lock bit ([`crate::vlock`]); the clock
/// must never produce a stamp with it set.
const LOCK_BIT: u64 = 1 << 63;

/// A shared, monotonically increasing version clock.
#[derive(Debug, Default)]
pub(crate) struct GlobalClock(AtomicU64);

/// The process-wide version clock.
///
/// TL2 uses *one* global clock; sharing it across every [`crate::Stm`]
/// instance means a `TVar` created under one instance can safely be read
/// under another (its stamped versions are always ≤ the clock every
/// transaction samples its `rv` from).
static CLOCK: GlobalClock = GlobalClock::new();

/// The process-wide clock every [`crate::Stm`] instance commits through.
#[inline]
pub(crate) fn global() -> &'static GlobalClock {
    &CLOCK
}

impl GlobalClock {
    /// A clock starting at version 0.
    pub(crate) const fn new() -> Self {
        GlobalClock(AtomicU64::new(0))
    }

    /// Sample the current version (a transaction's read version `rv`).
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Atomically advance the clock and return the new version (a
    /// committing transaction's write version `wv`).
    ///
    /// Overflow behavior: the counter uses wrapping `u64` semantics
    /// (`fetch_add` wraps by definition), but the version space is
    /// 63 bits — bit 63 is the lock bit of every version word — so a
    /// stamp with bit 63 set would corrupt lock state. That requires
    /// 2^63 commits and cannot occur in practice; a `debug_assert!`
    /// turns the impossibility into a loud failure in debug builds.
    #[inline]
    pub(crate) fn advance(&self) -> u64 {
        let wv = self.0.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
        debug_assert!(
            wv & LOCK_BIT == 0,
            "global clock overflowed into the lock bit (2^63 advances)"
        );
        wv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = GlobalClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(), 1);
        assert_eq!(c.advance(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn concurrent_advances_are_unique() {
        let c = Arc::new(GlobalClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.advance()).collect::<Vec<u64>>()
            }));
        }
        // Re-raise a worker panic with its original payload instead of
        // unwrapping the JoinHandle (which would swallow the assertion
        // message inside a Box<dyn Any>).
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "every advance() must be unique");
        assert_eq!(c.now(), 4000);
    }

    #[test]
    fn global_stamps_are_monotone_under_contention() {
        // Satellite check for the overflow/monotonicity contract: per
        // thread, successive advance() results must strictly increase
        // and never set the lock bit, under real contention.
        let c = Arc::new(GlobalClock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut prev = 0u64;
                    for _ in 0..2000 {
                        let wv = c.advance();
                        assert!(wv > prev, "stamp {wv} not above {prev}");
                        assert_eq!(wv & (1 << 63), 0, "stamp {wv} sets the lock bit");
                        prev = wv;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    }
}
