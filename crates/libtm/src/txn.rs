//! The LibTM protocol: the doomed-flag table and outcome totals of an
//! instance, the begin step, the fully-optimistic read/write protocol and
//! the commit protocol with abort-readers resolution.

use crate::object::{ObjectHeader, TObject};
use crate::runtime::LibTmConfig;
use gstm_core::faultinject::FaultSite;
use gstm_core::rng::Interleave;
use gstm_core::sync::{PerThread, SLOTS};
use gstm_core::{commit_lock, Abort, AbortCause, AddrSet, AnyLocation, Attempt, Pair, TxResult};
use gstm_core::{Backend, ThreadId, WriteSet};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A location of any value type, as LibTM's read sets hold it.
type Target = Arc<dyn AnyLocation<ObjectHeader>>;

/// One thread's doomed flag (abort-readers resolution).
#[derive(Default)]
struct Doom {
    /// 0 (clear) or the dooming writer's id + 1.
    writer: AtomicU32,
    /// The contended object key behind the doom, written (Relaxed)
    /// before the flag's Release store. Best-effort under concurrent
    /// dooms of one victim — the partition counters stay exact; only
    /// which address gets charged can race, like the flag itself.
    addr: AtomicUsize,
}

/// One thread id's commit and abort totals, for the instance-wide sums.
#[derive(Default)]
struct Outcomes {
    commits: AtomicU64,
    aborts: AtomicU64,
}

/// The LibTM commit protocol of one instance.
pub struct LibTmProtocol {
    config: LibTmConfig,
    /// Doomed flags, one per registered thread id.
    doomed: PerThread<Doom>,
    /// Outcome totals, one per registered thread id.
    totals: PerThread<Outcomes>,
}

impl Backend for LibTmProtocol {
    type Config = LibTmConfig;
    type Buffers = LtBuffers;
    /// Ids index the doom table and the objects' reader bitmaps.
    const SLOTS: usize = SLOTS;
    type Attempt<'a> = LtTxn<'a>;

    fn new(config: LibTmConfig) -> Self {
        LibTmProtocol {
            config,
            doomed: PerThread::default(),
            totals: PerThread::default(),
        }
    }

    fn yield_prob_log2(&self) -> Option<u32> {
        self.config.yield_prob_log2
    }

    fn is_idle(b: &LtBuffers) -> bool {
        b.read_set.is_empty() && b.read_keys.is_empty() && b.write_set.is_empty()
    }

    /// An attempt begins by clearing any doom aimed at a previous one.
    #[inline]
    fn begin<'a>(
        &'a self,
        me: Pair,
        retries: u32,
        inject: &'a Interleave,
        home: &'a Cell<LtBuffers>,
    ) -> LtTxn<'a> {
        let _ = self.take_doom(me.thread);
        LtTxn {
            tm: self,
            me,
            retries,
            bufs: home.take(),
            home,
            inject,
        }
    }
}

impl LibTmProtocol {
    /// Total commits across all threads.
    pub fn total_commits(&self) -> u64 {
        self.totals
            .iter()
            .map(|t| t.commits.load(Ordering::Relaxed))
            .sum()
    }

    /// Total aborts across all threads.
    pub fn total_aborts(&self) -> u64 {
        self.totals
            .iter()
            .map(|t| t.aborts.load(Ordering::Relaxed))
            .sum()
    }

    /// Count a committed transaction of `thread` and the `retries`
    /// aborts before it.
    pub(crate) fn count_commit(&self, thread: ThreadId, retries: u32) {
        let totals = self.totals.get(thread.index());
        totals.commits.fetch_add(1, Ordering::Relaxed);
        if retries != 0 {
            totals
                .aborts
                .fetch_add(u64::from(retries), Ordering::Relaxed);
        }
    }

    /// Mark `victim` as doomed by `writer` over the object keyed `addr`
    /// (abort-readers resolution). The address lands before the flag's
    /// Release store, so a victim that observes the flag also observes
    /// the address.
    pub(crate) fn doom(&self, victim: ThreadId, writer: ThreadId, addr: usize) {
        let doom = self.doomed.get(victim.index());
        doom.addr.store(addr, Ordering::Relaxed);
        doom.writer.store(writer.0 as u32 + 1, Ordering::Release);
    }

    /// Consume `me`'s doomed flag, returning the dooming writer and the
    /// contended object key if set. A clear flag costs one load: only a
    /// set one is swapped out, so the common check writes no line.
    pub(crate) fn take_doom(&self, me: ThreadId) -> Option<(ThreadId, usize)> {
        let doom = self.doomed.get(me.index());
        if doom.writer.load(Ordering::Acquire) == 0 {
            return None;
        }
        match doom.writer.swap(0, Ordering::AcqRel) {
            0 => None,
            w => Some((ThreadId((w - 1) as u16), doom.addr.load(Ordering::Relaxed))),
        }
    }
}

/// A thread's LibTM transaction buffers. [`crate::LtThreadCtx`] owns one
/// bundle; each attempt borrows it, and its `Drop` clears and returns it,
/// so a thread's attempts allocate no sets of their own once the buffers
/// have grown to its largest transaction.
#[derive(Default)]
pub struct LtBuffers {
    /// One entry per object this attempt has read: the object, where the
    /// attempt is registered as a visible reader, and the version its
    /// first read observed, which commit validates.
    read_set: Vec<(Target, u64)>,
    /// Keys of `read_set`, for O(1) dedup on every read (a linear scan
    /// here made reader registration quadratic in read-set size).
    read_keys: AddrSet,
    /// Buffered writes.
    write_set: WriteSet<ObjectHeader>,
}

/// One in-flight LibTM transaction attempt.
///
/// Dropping an attempt (committed or aborted) deregisters its visible
/// reads, so no later commit dooms this thread over a finished attempt.
pub struct LtTxn<'tm> {
    tm: &'tm LibTmProtocol,
    me: Pair,
    /// Aborts of this transaction before this attempt.
    retries: u32,
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
        for (r, _) in b.read_set.drain(..) {
            r.header().remove_reader(me);
        }
        b.read_keys.clear();
        b.write_set.clear();
        self.home.set(std::mem::take(&mut self.bufs));
    }
}

impl<'tm> LtTxn<'tm> {
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
    /// version-validated snapshot. Only an object's first read in an
    /// attempt registers and enters the read set; a re-read of it writes
    /// no shared line but the value lock's.
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
        // Visible-reader registration: a committing writer dooms us. The
        // entry goes in before the snapshot, so a failed first read is
        // still deregistered by `Drop`.
        let v1 = if self.bufs.read_keys.insert(key) {
            header.add_reader(me);
            let v1 = header.version();
            self.bufs.read_set.push((location.clone(), v1));
            v1
        } else {
            header.version()
        };
        let value = location.snapshot();
        if header.version() != v1 || header.writer().is_some_and(|w| w != me) {
            return Err(Abort::at(AbortCause::ReadVersion, key));
        }
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
        // written object, then publish. Each object's readers come from
        // one load of its registry, after this commit took the object's
        // lock (see `ObjectHeader` for the handshake).
        for (key, header) in write_set.iter() {
            header.for_each_other_reader(me, |reader| self.tm.doom(reader, me, key));
        }
        self.bufs.write_set.publish_all();
        for (_, header) in self.bufs.write_set.iter() {
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
    /// written objects' other readers, publish, and release the locks. A
    /// commit counts the transaction into the instance totals.
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
        if result.is_ok() {
            self.tm.count_commit(me, self.retries);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use crate::{LibTm, LibTmConfig, TObject};
    use gstm_core::{Abort, AbortCause, AnyLocation, ThreadId, TxnId};
    use std::sync::Arc;

    #[test]
    fn rereads_share_one_read_set_entry() {
        let tm = LibTm::new(LibTmConfig::default());
        let x = TObject::new(7u32);
        let mut ctx = tm.register();
        ctx.atomically(TxnId(0), |tx| {
            assert_eq!(tx.read(&x)?, 7);
            let once = Arc::strong_count(&x.inner);
            for _ in 0..2 {
                assert_eq!(tx.read(&x)?, 7);
            }
            assert_eq!(tx.bufs.read_set.len(), 1, "one entry per object");
            assert_eq!(Arc::strong_count(&x.inner), once, "a re-read clones");
            Ok(())
        });
    }

    #[test]
    fn writer_dooms_a_reader_registered_before_its_scan() {
        let tm = LibTm::new(LibTmConfig::default());
        let (x, y) = (TObject::new(0u32), TObject::new(0u32));
        let mut reader = tm.register_as(ThreadId(0));
        let mut writer = tm.register_as(ThreadId(1));
        let mut seen = Vec::new();
        reader.atomically(TxnId(0), |tx| {
            tx.read(&x)?;
            if seen.is_empty() {
                // The writer commits while this attempt is registered on x.
                writer.atomically(TxnId(1), |w| w.write(&x, 1));
            }
            let next = tx.read(&y).inspect_err(|&a| seen.push(a));
            next.map(drop)
        });
        let doomed = AbortCause::AbortedByWriter {
            writer: Some(ThreadId(1)),
        };
        assert_eq!(seen, [Abort::at(doomed, x.inner.key())]);
        assert_eq!((tm.total_aborts(), tm.total_commits()), (1, 2));
    }

    #[test]
    fn read_of_a_locked_object_aborts() {
        let tm = LibTm::new(LibTmConfig::default());
        let x = TObject::new(0u32);
        let header = x.inner.header();
        header.try_lock_writer(ThreadId(1)).expect("lock is free");
        let mut ctx = tm.register_as(ThreadId(0));
        let mut seen = Vec::new();
        let v = ctx.atomically(TxnId(0), |tx| {
            let read = tx.read(&x).inspect_err(|&a| seen.push(a));
            if read.is_err() {
                header.unlock_writer(ThreadId(1));
            }
            read
        });
        assert_eq!(v, 0);
        let locked = AbortCause::ReadLocked {
            owner: Some(ThreadId(1)),
        };
        assert_eq!(seen, [Abort::at(locked, x.inner.key())]);
    }
}
