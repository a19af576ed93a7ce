//! Poison-transparent wrappers over [`std::sync::Mutex`] and
//! [`std::sync::RwLock`], and the one padded per-thread table,
//! [`PerThread`].
//!
//! The guidance hot path and the STM value slots hold their locks only for
//! a handful of instructions and never panic while holding one, so lock
//! poisoning is dead weight: every call site would have to write
//! `.lock().unwrap_or_else(PoisonError::into_inner)`. These wrappers fold
//! that in once, so `lock`, `read` and `write` hand back the guard
//! directly.

use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// Slots in every [`PerThread`] table (a power of two). Thread ids map to
/// slots by masking: the first `SLOTS` ids get private slots, and ids
/// `SLOTS` apart share one.
pub const SLOTS: usize = 64;

/// The slot thread id `thread` maps to in a [`PerThread`] table. Masking
/// is idempotent, so a slot index maps to itself.
#[inline]
pub(crate) const fn slot_of(thread: usize) -> usize {
    thread & (SLOTS - 1)
}

/// One slot, aligned to two cache lines (the adjacent-line prefetcher's
/// granule) so writes from different threads never false-share.
#[repr(align(128))]
struct Padded<T>(T);

/// A table of [`SLOTS`] padded values, one per thread id.
///
/// Every hot-path counter and buffer that is kept per thread lives in
/// one of these: a thread writes only its own slot, and cold readers
/// sum over `PerThread::iter`. Aliased ids share a slot, so a slot's
/// contents must stay correct under concurrent writers (atomics or a
/// lock); aliasing only coarsens per-thread attribution.
pub struct PerThread<T> {
    slots: Box<[Padded<T>]>,
}

impl<T> PerThread<T> {
    /// A table whose every slot is `init()`.
    pub(crate) fn new(mut init: impl FnMut() -> T) -> Self {
        PerThread {
            slots: (0..SLOTS).map(|_| Padded(init())).collect(),
        }
    }

    /// The slot of thread id `thread` (see `slot_of`).
    #[inline]
    pub fn get(&self, thread: usize) -> &T {
        &self.slots[slot_of(thread)].0
    }

    /// Every slot, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.0)
    }
}

impl<T: Default> Default for PerThread<T> {
    fn default() -> Self {
        Self::new(T::default)
    }
}

/// A mutual-exclusion lock whose `lock` ignores poisoning.
#[derive(Default, Debug)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a mutex owning `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, blocking until available. A poisoned lock (a
    /// panic on another thread while holding it) is treated as unlocked:
    /// the state the tracker protects stays valid under partial updates,
    /// and tests that intentionally panic must not wedge the tracker.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read` and `write` ignore poisoning.
#[derive(Default, Debug)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a lock owning `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire shared access, blocking while a writer holds the lock.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire exclusive access, blocking until readers and writers leave.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn per_thread_slots_are_padded_and_alias_by_mask() {
        let t: PerThread<AtomicU64> = PerThread::default();
        assert_eq!(std::mem::align_of::<Padded<AtomicU64>>(), 128);
        assert_eq!(t.iter().count(), SLOTS);
        t.get(3).fetch_add(1, Ordering::Relaxed);
        t.get(3 + SLOTS).fetch_add(1, Ordering::Relaxed);
        assert_eq!(
            t.get(3).load(Ordering::Relaxed),
            2,
            "ids SLOTS apart share a slot"
        );
        assert!(std::ptr::eq(t.get(slot_of(3 + SLOTS)), t.get(3)));
        let a = t.get(0) as *const AtomicU64 as usize;
        let b = t.get(1) as *const AtomicU64 as usize;
        assert_eq!(b - a, 128, "neighbouring slots sit on separate line pairs");
        assert_eq!(t.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>(), 2);
    }

    #[test]
    fn lock_round_trips() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn poisoned_lock_still_opens() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn poisoned_rwlock_still_opens() {
        let l = Arc::new(RwLock::new(7));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the lock");
        })
        .join();
        *l.write() += 1;
        assert_eq!(*l.read(), 8);
    }
}
