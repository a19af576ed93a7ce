//! Transactional objects with visible readers.

use gstm_core::sync::{Mutex, RwLock};
use gstm_core::ThreadId;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Writer-lock states for [`ObjectHeader::writer`].
const UNLOCKED: u32 = u32::MAX;

/// The protocol state of one object, apart from its value: committed
/// version, writer lock and visible-reader registry. Not generic, so the
/// read and write sets reach it through one type-erased accessor
/// ([`LtTarget::header`]).
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
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    pub(crate) fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Try to take the writer lock.
    pub(crate) fn try_lock_writer(&self, me: ThreadId) -> bool {
        self.writer
            .compare_exchange(
                UNLOCKED,
                me.0 as u32,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Current writer, if locked.
    pub(crate) fn writer(&self) -> Option<ThreadId> {
        match self.writer.load(Ordering::Acquire) {
            UNLOCKED => None,
            id => Some(ThreadId(id as u16)),
        }
    }

    pub(crate) fn unlock_writer(&self, me: ThreadId) {
        let prev = self.writer.swap(UNLOCKED, Ordering::AcqRel);
        debug_assert_eq!(prev, me.0 as u32, "unlocking a lock we do not hold");
        let _ = me;
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

    /// The object's stable identity (the header's address, fixed for the
    /// life of the allocation), used for write-set ordering, read-own-write
    /// lookups and conflict attribution.
    pub(crate) fn key(&self) -> usize {
        self as *const Self as usize
    }
}

/// The type-erased view of an object that read and write sets hold.
pub(crate) trait LtTarget: Send + Sync {
    /// The object's protocol state.
    fn header(&self) -> &ObjectHeader;
}

pub(crate) struct ObjectInner<T> {
    header: ObjectHeader,
    /// The committed value. The RwLock makes snapshot reads safe; the STM
    /// protocol (versions + writer lock) provides transactional semantics
    /// on top.
    value: RwLock<T>,
}

impl<T: Send + Sync> LtTarget for ObjectInner<T> {
    fn header(&self) -> &ObjectHeader {
        &self.header
    }
}

/// A typed object reaches its protocol state directly.
impl<T> Deref for ObjectInner<T> {
    type Target = ObjectHeader;

    fn deref(&self) -> &ObjectHeader {
        &self.header
    }
}

impl<T: Clone> ObjectInner<T> {
    pub(crate) fn snapshot(&self) -> T {
        self.value.read().clone()
    }

    pub(crate) fn store(&self, v: T) {
        *self.value.write() = v;
    }
}

/// An object-granularity transactional location for [`crate::LibTm`].
///
/// Cloning clones the handle; both handles denote the same object.
pub struct TObject<T> {
    pub(crate) inner: Arc<ObjectInner<T>>,
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
            inner: Arc::new(ObjectInner {
                header: ObjectHeader {
                    version: AtomicU64::new(0),
                    writer: AtomicU32::new(UNLOCKED),
                    readers: Mutex::new(Vec::new()),
                },
                value: RwLock::new(value),
            }),
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

    #[test]
    fn writer_lock_is_exclusive() {
        let o = TObject::new(0u32);
        assert!(o.inner.try_lock_writer(ThreadId(1)));
        assert!(!o.inner.try_lock_writer(ThreadId(2)));
        assert_eq!(o.inner.writer(), Some(ThreadId(1)));
        o.inner.unlock_writer(ThreadId(1));
        assert_eq!(o.inner.writer(), None);
        assert!(o.inner.try_lock_writer(ThreadId(2)));
    }

    #[test]
    fn reader_registry_tracks_membership() {
        let o = TObject::new(());
        o.inner.add_reader(ThreadId(1));
        o.inner.add_reader(ThreadId(1)); // idempotent
        o.inner.add_reader(ThreadId(2));
        o.inner.add_reader(ThreadId(3));
        let others = |me: u16| {
            let mut rs = Vec::new();
            o.inner.for_each_other_reader(ThreadId(me), |r| rs.push(r));
            rs
        };
        assert_eq!(
            others(1),
            [ThreadId(2), ThreadId(3)],
            "registration order, self excluded"
        );
        o.inner.remove_reader(ThreadId(3));
        assert_eq!(others(3), [ThreadId(1), ThreadId(2)]);
        o.inner.remove_reader(ThreadId(2));
        assert!(others(1).is_empty());
    }

    #[test]
    fn version_bumps_and_value_store() {
        let o = TObject::new(10u64);
        assert_eq!(o.inner.version(), 0);
        o.inner.bump_version();
        assert_eq!(o.inner.version(), 1);
        o.inner.store(42);
        assert_eq!(o.load_quiesced(), 42);
    }
}
