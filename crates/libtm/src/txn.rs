//! LibTM transactions: the fully-optimistic read/write protocol and the
//! commit protocol with abort-readers resolution.

use crate::object::{ObjectHeader, TObject};
use crate::runtime::LibTm;
use gstm_core::faultinject::FaultSite;
use gstm_core::rng::Interleave;
use gstm_core::WriteSet;
use gstm_core::{commit_lock, Abort, AbortCause, AddrSet, AnyLocation, Attempt, Pair, TxResult};
use std::cell::Cell;
use std::sync::Arc;

/// A location of any value type, as LibTM's read sets hold it.
type Target = Arc<dyn AnyLocation<ObjectHeader>>;

/// A thread's LibTM transaction buffers. [`crate::LtThreadCtx`] owns one
/// bundle; each attempt borrows it, and its `Drop` clears and returns it,
/// so a thread's attempts allocate no sets of their own once the buffers
/// have grown to its largest transaction.
#[derive(Default)]
pub(crate) struct LtBuffers {
    /// Read validation entries: `(object, observed version)`.
    read_set: Vec<(Target, u64)>,
    /// Objects where this attempt registered as a visible reader.
    registered: Vec<Target>,
    /// Keys of `registered`, for O(1) dedup on every read (a linear scan
    /// here made reader registration quadratic in read-set size).
    registered_keys: AddrSet,
    /// Buffered writes.
    write_set: WriteSet<ObjectHeader>,
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
            r.header().remove_reader(me);
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

    /// Transactional read: register as a visible reader, then take a
    /// version-validated snapshot.
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, obj: &TObject<T>) -> TxResult<T> {
        self.check_doomed()?;
        self.inject.at_access();
        let location = &obj.inner;
        if let Some(value) = self.bufs.write_set.get(location) {
            return Ok(value.clone());
        }
        let (header, key) = (location.header(), location.key());
        let me = self.me.thread;
        // A held writer lock means a commit is in flight: back off.
        if let Some(owner) = header.writer() {
            if owner != me {
                return Err(Abort::at(
                    AbortCause::ReadLocked { owner: Some(owner) },
                    key,
                ));
            }
        }
        // Visible-reader registration: a committing writer dooms us.
        let target: Target = location.clone();
        if self.bufs.registered_keys.insert(key) {
            header.add_reader(me);
            self.bufs.registered.push(Arc::clone(&target));
        }
        let v1 = header.version();
        let value = location.snapshot();
        if header.version() != v1 || header.writer().is_some_and(|w| w != me) {
            return Err(Abort::at(AbortCause::ReadVersion, key));
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
        let location = &obj.inner;
        if let Some(slot) = self.bufs.write_set.get_mut(location) {
            *slot = value;
        } else {
            self.bufs.write_set.push(location, value);
        }
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

    /// The commit protocol up to publication, counting the commit-time
    /// writer locks it takes in `acquired` for [`Attempt::commit`] to
    /// release.
    fn commit_locked(&mut self, acquired: &mut usize) -> TxResult<()> {
        let me = self.me.thread;
        self.check_doomed()?;
        if self.bufs.write_set.is_empty() {
            return Ok(());
        }
        self.bufs.write_set.sort();
        let write_set = &self.bufs.write_set;
        for (key, header) in write_set.iter() {
            commit_lock(key, || header.try_lock_writer(me))?;
            *acquired += 1;
        }
        // Validate reads: versions unchanged and no foreign writer in
        // flight.
        for (t, v) in &self.bufs.read_set {
            let h = t.header();
            if h.version() != *v || h.writer().is_some_and(|w| w != me) {
                return Err(Abort::at(AbortCause::Validation, t.key()));
            }
        }
        self.check_doomed()?;
        // Abort-readers resolution: doom the other visible readers of each
        // written object, then publish. Dooming only stores atomics, so it
        // runs under the registry lock without collecting readers first.
        for (key, header) in write_set.iter() {
            header.for_each_other_reader(me, |reader| self.tm.doom(reader, me, key));
        }
        write_set.publish_all();
        for (_, header) in write_set.iter() {
            header.bump_version();
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
        for (_, header) in self.bufs.write_set.iter().take(acquired) {
            header.unlock_writer(me);
        }
        result
    }
}
