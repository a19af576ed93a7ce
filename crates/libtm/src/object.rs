//! Transactional objects with visible readers.

use gstm_core::{Location, ThreadId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Writer-lock states for [`ObjectHeader::writer`].
const UNLOCKED: u32 = u32::MAX;

/// The thread a writer-lock word names, if it is held.
fn holder(word: u32) -> Option<ThreadId> {
    (word != UNLOCKED).then_some(ThreadId(word as u16))
}

/// `me`'s bit in a reader registry. Registration keeps ids below
/// [`gstm_core::sync::SLOTS`] = 64, so every id owns one bit.
fn reader_bit(me: ThreadId) -> u64 {
    1 << me.index()
}

/// The protocol state of one object, apart from its value: committed
/// version, writer lock and visible-reader registry. It is the header of
/// the object's [`Location`], so the read and write sets reach it through
/// [`gstm_core::AnyLocation::header`].
///
/// A reader registers (`fetch_or`) and then loads the writer lock; a
/// committing writer takes the lock (CAS) and then loads the registry.
/// Each side stores and then loads what the other stores, so all four
/// are `SeqCst`: of a reader and a writer that race, at least one sees
/// the other, and either the writer dooms the reader or the reader sees
/// the lock and aborts its read.
pub(crate) struct ObjectHeader {
    /// Committed version of the object; bumped by every writer commit.
    version: AtomicU64,
    /// Writer lock: [`UNLOCKED`] or the owner's thread id.
    writer: AtomicU32,
    /// Visible reader registry: bit `i` is set while thread id `i` holds
    /// a read dependency on this object.
    readers: AtomicU64,
}

impl ObjectHeader {
    fn new() -> Self {
        ObjectHeader {
            version: AtomicU64::new(0),
            writer: AtomicU32::new(UNLOCKED),
            readers: AtomicU64::new(0),
        }
    }

    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    pub(crate) fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Try to take the writer lock; on failure, the holder it observed.
    pub(crate) fn try_lock_writer(&self, me: ThreadId) -> Result<(), Option<ThreadId>> {
        self.writer
            .compare_exchange(
                UNLOCKED,
                me.0 as u32,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .map(drop)
            .map_err(holder)
    }

    /// Current writer, if locked.
    pub(crate) fn writer(&self) -> Option<ThreadId> {
        holder(self.writer.load(Ordering::SeqCst))
    }

    pub(crate) fn unlock_writer(&self, me: ThreadId) {
        let prev = self.writer.swap(UNLOCKED, Ordering::AcqRel);
        debug_assert_eq!(prev, me.0 as u32, "unlocking a lock we do not hold");
    }

    /// Register `me` as a visible reader. Idempotent.
    pub(crate) fn add_reader(&self, me: ThreadId) {
        self.readers.fetch_or(reader_bit(me), Ordering::SeqCst);
    }

    /// Deregister `me`.
    pub(crate) fn remove_reader(&self, me: ThreadId) {
        self.readers.fetch_and(!reader_bit(me), Ordering::Release);
    }

    /// Call `visit` on each reader other than `me`, in id order, as one
    /// load of the registry found them.
    pub(crate) fn for_each_other_reader(&self, me: ThreadId, mut visit: impl FnMut(ThreadId)) {
        let mut others = self.readers.load(Ordering::SeqCst) & !reader_bit(me);
        while others != 0 {
            visit(ThreadId(others.trailing_zeros() as u16));
            others &= others - 1;
        }
    }
}

/// An object-granularity transactional location for [`crate::LibTm`].
///
/// Cloning clones the handle; both handles denote the same object.
pub struct TObject<T> {
    pub(crate) inner: Arc<Location<ObjectHeader, T>>,
}

impl<T> Clone for TObject<T> {
    fn clone(&self) -> Self {
        TObject {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TObject<T> {
    /// A new object at version 0.
    pub fn new(value: T) -> Self {
        TObject {
            inner: Arc::new(Location::new(ObjectHeader::new(), value)),
        }
    }

    /// Read the committed value outside any transaction (setup and
    /// post-run verification).
    pub fn load_quiesced(&self) -> T {
        self.inner.snapshot()
    }

    /// Apply `f` to the committed value outside any transaction, without
    /// cloning it ([`TObject::load_quiesced`] for a part of the value).
    pub fn peek_quiesced<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.inner.peek(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::AnyLocation;

    #[test]
    fn writer_lock_is_exclusive() {
        let o = ObjectHeader::new();
        assert_eq!(o.try_lock_writer(ThreadId(1)), Ok(()));
        assert_eq!(o.try_lock_writer(ThreadId(2)), Err(Some(ThreadId(1))));
        assert_eq!(o.writer(), Some(ThreadId(1)));
        o.unlock_writer(ThreadId(1));
        assert_eq!(o.writer(), None);
        assert_eq!(o.try_lock_writer(ThreadId(2)), Ok(()));
    }

    #[test]
    fn reader_registry_tracks_membership() {
        let o = ObjectHeader::new();
        for id in [63, 2, 0, 2] {
            o.add_reader(ThreadId(id)); // idempotent for 2
        }
        let others = |me: u16| {
            let mut rs = Vec::new();
            o.for_each_other_reader(ThreadId(me), |r| rs.push(r.0));
            rs
        };
        assert_eq!(others(2), [0, 63], "id order, self excluded");
        assert_eq!(others(5), [0, 2, 63], "a non-member excludes nobody");
        o.remove_reader(ThreadId(63));
        o.remove_reader(ThreadId(7)); // not a member: no effect
        assert_eq!(others(7), [0, 2]);
        o.remove_reader(ThreadId(0));
        o.remove_reader(ThreadId(2));
        assert!(others(1).is_empty());
    }

    #[test]
    fn version_bumps_and_value_store() {
        let o = TObject::new(10u64);
        let header = o.inner.header();
        assert_eq!(header.version(), 0);
        header.bump_version();
        assert_eq!(header.version(), 1);
        o.inner.publish(42);
        assert_eq!(o.load_quiesced(), 42);
        assert_eq!(o.peek_quiesced(|v| v + 1), 43);
    }
}
