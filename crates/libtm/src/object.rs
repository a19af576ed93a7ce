//! Transactional objects with visible readers.

use gstm_core::sync::Mutex;
use gstm_core::{Location, ThreadId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Writer-lock states for [`ObjectHeader::writer`].
const UNLOCKED: u32 = u32::MAX;

/// The thread a writer-lock word names, if it is held.
fn holder(word: u32) -> Option<ThreadId> {
    (word != UNLOCKED).then_some(ThreadId(word as u16))
}

/// The protocol state of one object, apart from its value: committed
/// version, writer lock and visible-reader registry. It is the header of
/// the object's [`Location`], so the read and write sets reach it through
/// [`gstm_core::AnyLocation::header`].
pub(crate) struct ObjectHeader {
    /// Committed version of the object; bumped by every writer commit.
    version: AtomicU64,
    /// Writer lock: [`UNLOCKED`] or the owner's thread id.
    writer: AtomicU32,
    /// Visible reader registry: thread ids currently holding a read
    /// dependency on this object.
    readers: Mutex<Vec<u16>>,
}

impl ObjectHeader {
    fn new() -> Self {
        ObjectHeader {
            version: AtomicU64::new(0),
            writer: AtomicU32::new(UNLOCKED),
            readers: Mutex::new(Vec::new()),
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
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(drop)
            .map_err(holder)
    }

    /// Current writer, if locked.
    pub(crate) fn writer(&self) -> Option<ThreadId> {
        holder(self.writer.load(Ordering::Acquire))
    }

    pub(crate) fn unlock_writer(&self, me: ThreadId) {
        let prev = self.writer.swap(UNLOCKED, Ordering::AcqRel);
        debug_assert_eq!(prev, me.0 as u32, "unlocking a lock we do not hold");
    }

    /// Register `me` as a visible reader. Idempotent.
    pub(crate) fn add_reader(&self, me: ThreadId) {
        let mut rs = self.readers.lock();
        if !rs.contains(&me.0) {
            rs.push(me.0);
        }
    }

    /// Deregister `me`.
    pub(crate) fn remove_reader(&self, me: ThreadId) {
        let mut rs = self.readers.lock();
        rs.retain(|&r| r != me.0);
    }

    /// Call `visit` on each reader other than `me`, in registration
    /// order, under the registry lock (so `visit` must not touch this
    /// object's registry).
    pub(crate) fn for_each_other_reader(&self, me: ThreadId, mut visit: impl FnMut(ThreadId)) {
        for &r in self.readers.lock().iter().filter(|&&r| r != me.0) {
            visit(ThreadId(r));
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
        o.add_reader(ThreadId(1));
        o.add_reader(ThreadId(1)); // idempotent
        o.add_reader(ThreadId(2));
        o.add_reader(ThreadId(3));
        let others = |me: u16| {
            let mut rs = Vec::new();
            o.for_each_other_reader(ThreadId(me), |r| rs.push(r));
            rs
        };
        assert_eq!(
            others(1),
            [ThreadId(2), ThreadId(3)],
            "registration order, self excluded"
        );
        o.remove_reader(ThreadId(3));
        assert_eq!(others(3), [ThreadId(1), ThreadId(2)]);
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
    }
}
