//! LibTM transactions: the fully-optimistic read/write protocol and the
//! commit protocol with abort-readers resolution.

use crate::object::{ObjectInner, TObject};
use crate::runtime::LibTm;
use gstm_core::faultinject::FaultSite;
use gstm_core::instruments::COMMIT_SPIN;
use gstm_core::rng::Interleave;
use gstm_core::{Abort, AbortCause, AddrSet, Attempt, Pair, ThreadId, TxResult};
use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

/// Type-erased view of an object for read/write sets.
trait LtTarget: Send + Sync {
    fn version(&self) -> u64;
    fn bump_version(&self);
    fn try_lock_writer(&self, me: ThreadId) -> bool;
    fn writer(&self) -> Option<ThreadId>;
    fn unlock_writer(&self, me: ThreadId);
    fn add_reader(&self, me: ThreadId);
    fn remove_reader(&self, me: ThreadId);
    fn for_each_other_reader(&self, me: ThreadId, visit: &mut dyn FnMut(ThreadId));
    fn key(&self) -> usize;
}

impl<T: Send + Sync> LtTarget for ObjectInner<T> {
    fn version(&self) -> u64 {
        ObjectInner::version(self)
    }
    fn bump_version(&self) {
        ObjectInner::bump_version(self)
    }
    fn try_lock_writer(&self, me: ThreadId) -> bool {
        ObjectInner::try_lock_writer(self, me)
    }
    fn writer(&self) -> Option<ThreadId> {
        ObjectInner::writer(self)
    }
    fn unlock_writer(&self, me: ThreadId) {
        ObjectInner::unlock_writer(self, me)
    }
    fn add_reader(&self, me: ThreadId) {
        ObjectInner::add_reader(self, me)
    }
    fn remove_reader(&self, me: ThreadId) {
        ObjectInner::remove_reader(self, me)
    }
    fn for_each_other_reader(&self, me: ThreadId, visit: &mut dyn FnMut(ThreadId)) {
        ObjectInner::for_each_other_reader(self, me, visit)
    }
    fn key(&self) -> usize {
        ObjectInner::key(self)
    }
}

/// A buffered write awaiting publication.
trait LtWriteEntry: Send {
    fn target(&self) -> &dyn LtTarget;
    fn key(&self) -> usize;
    fn publish(&self);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

struct TypedWrite<T> {
    obj: TObject<T>,
    value: T,
}

impl<T: Clone + Send + Sync + 'static> LtWriteEntry for TypedWrite<T> {
    fn target(&self) -> &dyn LtTarget {
        &*self.obj.inner
    }
    fn key(&self) -> usize {
        self.obj.inner.key()
    }
    fn publish(&self) {
        self.obj.inner.store(self.value.clone());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A thread's LibTM transaction buffers. [`crate::LtThreadCtx`] owns one
/// bundle; each attempt borrows it, and its `Drop` clears and returns it,
/// so a thread's attempts allocate no sets of their own once the buffers
/// have grown to its largest transaction.
#[derive(Default)]
pub(crate) struct LtBuffers {
    /// Read validation entries: `(object, observed version)`.
    read_set: Vec<(Arc<dyn LtTarget>, u64)>,
    /// Objects where this attempt registered as a visible reader.
    registered: Vec<Arc<dyn LtTarget>>,
    /// Keys of `registered`, for O(1) dedup on every read (a linear scan
    /// here made reader registration quadratic in read-set size).
    registered_keys: AddrSet,
    /// Buffered writes.
    write_set: Vec<Box<dyn LtWriteEntry>>,
}

impl LtBuffers {
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.read_set.is_empty()
            && self.registered.is_empty()
            && self.registered_keys.is_empty()
            && self.write_set.is_empty()
    }
}

/// One in-flight LibTM transaction attempt.
///
/// Dropping an attempt (committed or aborted) deregisters its visible
/// reads, so no later commit dooms this thread over a finished attempt.
pub struct LtTxn<'tm> {
    tm: &'tm LibTm,
    me: Pair,
    /// The thread's buffers, taken from `home` for this attempt.
    bufs: LtBuffers,
    home: &'tm Cell<LtBuffers>,
    /// The owning thread's interleave injector.
    inject: &'tm Interleave,
}

impl Drop for LtTxn<'_> {
    fn drop(&mut self) {
        let me = self.me.thread;
        let b = &mut self.bufs;
        for r in b.registered.drain(..) {
            r.remove_reader(me);
        }
        b.read_set.clear();
        b.registered_keys.clear();
        b.write_set.clear();
        self.home.set(std::mem::take(&mut self.bufs));
    }
}

impl<'tm> LtTxn<'tm> {
    pub(crate) fn new(
        tm: &'tm LibTm,
        me: Pair,
        inject: &'tm Interleave,
        home: &'tm Cell<LtBuffers>,
    ) -> Self {
        LtTxn {
            tm,
            me,
            bufs: home.take(),
            home,
            inject,
        }
    }

    /// Explicitly abort and retry.
    pub fn retry(&self) -> Abort {
        Abort::EXPLICIT
    }

    fn check_doomed(&self) -> TxResult<()> {
        if let Some((writer, addr)) = self.tm.take_doom(self.me.thread) {
            return Err(Abort::at(
                AbortCause::AbortedByWriter {
                    writer: Some(writer),
                },
                addr,
            ));
        }
        Ok(())
    }

    fn write_index(&self, key: usize) -> Option<usize> {
        self.bufs.write_set.iter().position(|e| e.key() == key)
    }

    fn register_reader(&mut self, inner: &Arc<dyn LtTarget>) {
        if self.bufs.registered_keys.insert(inner.key()) {
            inner.add_reader(self.me.thread);
            self.bufs.registered.push(Arc::clone(inner));
        }
    }

    /// Transactional read: register as a visible reader, then take a
    /// version-validated snapshot.
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, obj: &TObject<T>) -> TxResult<T> {
        self.check_doomed()?;
        self.inject.at_access();
        if let Some(i) = self.write_index(obj.inner.key()) {
            // Invariant, not a recoverable error: keys are allocation
            // addresses kept alive by the entry's TObject clone, so a
            // same-key entry is the same allocation and the same T.
            let e = self.bufs.write_set[i]
                .as_any()
                .downcast_ref::<TypedWrite<T>>()
                .expect("write-set entry type mismatch");
            return Ok(e.value.clone());
        }
        let target: Arc<dyn LtTarget> = obj.inner.clone();
        let me = self.me.thread;
        // A held writer lock means a commit is in flight: back off.
        if let Some(owner) = target.writer() {
            if owner != me {
                return Err(Abort::at(
                    AbortCause::ReadLocked { owner: Some(owner) },
                    target.key(),
                ));
            }
        }
        // Visible-reader registration: a committing writer dooms us.
        self.register_reader(&target);
        let v1 = target.version();
        let value = obj.inner.snapshot();
        if target.version() != v1 || target.writer().is_some_and(|w| w != me) {
            return Err(Abort::at(AbortCause::ReadVersion, target.key()));
        }
        self.bufs.read_set.push((target, v1));
        Ok(value)
    }

    /// Transactional write: buffer `value` until commit.
    pub fn write<T: Clone + Send + Sync + 'static>(
        &mut self,
        obj: &TObject<T>,
        value: T,
    ) -> TxResult<()> {
        self.check_doomed()?;
        self.inject.at_access();
        let key = obj.inner.key();
        if let Some(i) = self.write_index(key) {
            // Same invariant as the read-own-write path above.
            let e = self.bufs.write_set[i]
                .as_any_mut()
                .downcast_mut::<TypedWrite<T>>()
                .expect("write-set entry type mismatch");
            e.value = value;
            return Ok(());
        }
        self.bufs.write_set.push(Box::new(TypedWrite {
            obj: obj.clone(),
            value,
        }));
        Ok(())
    }

    /// Read-modify-write convenience.
    pub fn modify<T: Clone + Send + Sync + 'static>(
        &mut self,
        obj: &TObject<T>,
        f: impl FnOnce(T) -> T,
    ) -> TxResult<()> {
        let v = self.read(obj)?;
        self.write(obj, f(v))
    }

    fn acquire_writer(&self, target: &dyn LtTarget) -> TxResult<()> {
        let me = self.me.thread;
        for _ in 0..COMMIT_SPIN {
            if target.try_lock_writer(me) {
                return Ok(());
            }
            std::thread::yield_now();
        }
        Err(Abort::at(
            AbortCause::CommitLockBusy {
                owner: target.writer(),
            },
            target.key(),
        ))
    }

    /// The commit protocol up to publication, counting the commit-time
    /// writer locks it takes in `acquired` for [`Attempt::commit`] to
    /// release.
    fn commit_locked(&mut self, acquired: &mut usize) -> TxResult<()> {
        let me = self.me.thread;
        self.check_doomed()?;
        if self.bufs.write_set.is_empty() {
            return Ok(());
        }
        // Keys are unique within the write set, so the unstable sort gives
        // the stable order without the stable sort's scratch buffer.
        self.bufs.write_set.sort_unstable_by_key(|e| e.key());
        for entry in &self.bufs.write_set {
            self.acquire_writer(entry.target())?;
            *acquired += 1;
        }
        // Validate reads: versions unchanged and no foreign writer in
        // flight.
        for (t, v) in &self.bufs.read_set {
            if t.version() != *v || t.writer().is_some_and(|w| w != me) {
                return Err(Abort::at(AbortCause::Validation, t.key()));
            }
        }
        self.check_doomed()?;
        // Abort-readers resolution: doom the other visible readers of each
        // written object, then publish. Dooming only stores atomics, so it
        // runs under the registry lock without collecting readers first.
        for entry in &self.bufs.write_set {
            let target = entry.target();
            let key = target.key();
            target.for_each_other_reader(me, &mut |reader| self.tm.doom(reader, me, key));
        }
        for entry in &self.bufs.write_set {
            entry.publish();
            entry.target().bump_version();
        }
        Ok(())
    }
}

impl Attempt for LtTxn<'_> {
    const FAULT_SITES: (FaultSite, FaultSite) =
        (FaultSite::LibtmAbort, FaultSite::LibtmCommitDelay);

    fn write_set_size(&self) -> usize {
        self.bufs.write_set.len()
    }

    /// Commit: take writer locks in key order, validate reads, doom the
    /// written objects' other readers, publish, and release the locks.
    fn commit(mut self) -> TxResult<()> {
        // Commit-time locks are taken in sorted write-set order and the
        // first failure stops, so they always cover a prefix of the write
        // set: `acquired` counts it.
        let mut acquired = 0;
        let result = self.commit_locked(&mut acquired);
        // Release the writer locks; Drop releases reader registrations.
        let me = self.me.thread;
        for entry in &self.bufs.write_set[..acquired] {
            entry.target().unlock_writer(me);
        }
        result
    }
}
