//! One transactional location and one write set for both STMs.
//!
//! TL2 and LibTM differ in their protocol state (TL2's versioned lock
//! word; LibTM's version, writer lock and visible-reader registry) but not
//! in what sits under it: a committed value behind a reader-writer lock,
//! an address naming the location, a write set of typed buffered values
//! with read-own-write lookup, and a bounded spin on commit-time locks.
//! This module holds that part once; a backend supplies its header `H`.

use crate::events::{Abort, AbortCause, TxResult};
use crate::ids::ThreadId;
use crate::sync::RwLock;
use std::any::Any;
use std::ops::Index;
use std::sync::Arc;

/// Attempts a writer makes at one location's lock, each failed attempt
/// ending in a yield, before [`commit_lock`] aborts.
const COMMIT_SPIN: u32 = 64;

/// A transactional location: a backend's protocol header `H` plus the
/// committed value.
///
/// The value sits behind a reader-writer lock held only for a clone or a
/// swap, so a reader that races a commit clones an intact, if stale, value
/// and the backend's protocol decides whether it was current.
pub struct Location<H, T> {
    header: H,
    value: RwLock<T>,
}

impl<H, T> Location<H, T> {
    /// A location holding `value` under protocol state `header`.
    pub fn new(header: H, value: T) -> Self {
        let value = RwLock::new(value);
        Location { header, value }
    }

    /// Install a new committed value (the caller holds the location's
    /// commit lock) and return the value it displaced. The write guard is
    /// released on return, so the old value's destructor never blocks a
    /// reader on the value lock; the write set keeps it until the
    /// attempt's buffers are cleared, after the commit locks are released.
    pub fn publish(&self, value: T) -> T {
        std::mem::replace(&mut *self.value.write(), value)
    }

    /// Apply `f` to the committed value under its read lock, without
    /// cloning it. Outside a transaction this sees the latest publish; it
    /// checks no header, so inside a commit window it may see a value
    /// whose version is not yet bumped.
    pub fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.value.read())
    }
}

impl<H, T: Clone> Location<H, T> {
    /// Clone the committed value. Backends sandwich this between samples
    /// of their header to learn whether the value was current.
    pub fn snapshot(&self) -> T {
        self.value.read().clone()
    }
}

/// A location of any value type, as read and write sets hold it.
pub trait AnyLocation<H>: Send + Sync {
    /// The backend's protocol state.
    fn header(&self) -> &H;

    /// The location's address: non-zero and fixed for the life of the
    /// allocation. It orders write sets, finds read-own-writes and names
    /// the location in aborts.
    fn key(&self) -> usize;
}

impl<H: Send + Sync, T: Send + Sync> AnyLocation<H> for Location<H, T> {
    fn header(&self) -> &H {
        &self.header
    }

    fn key(&self) -> usize {
        self as *const Self as usize
    }
}

/// Take a commit-time lock. `try_lock` makes one attempt and returns what
/// the lock yields, or the holder it observed. After `COMMIT_SPIN`
/// failures, each followed by a yield, this aborts with
/// [`AbortCause::CommitLockBusy`] naming the last observed holder.
pub fn commit_lock<R>(
    key: usize,
    mut try_lock: impl FnMut() -> Result<R, Option<ThreadId>>,
) -> TxResult<R> {
    let mut owner = None;
    for _ in 0..COMMIT_SPIN {
        match try_lock() {
            Ok(r) => return Ok(r),
            Err(holder) => owner = holder,
        }
        std::hint::spin_loop();
        std::thread::yield_now();
    }
    Err(Abort::at(AbortCause::CommitLockBusy { owner }, key))
}

/// A buffered write awaiting commit; the write set downcasts it through
/// `Any` to its `TypedWrite`.
trait WriteEntry<H>: Any + Send {
    fn header(&self) -> &H;
    /// Move the buffered value into the location (commit lock held).
    fn publish(&mut self);
}

struct TypedWrite<H, T> {
    location: Arc<Location<H, T>>,
    /// The buffered value, until publishing moves it into the location.
    value: Option<T>,
    /// The committed value publishing displaced. Freeing it inside the
    /// commit-lock window lengthened the window (on LibTM, concurrent
    /// readers found the writer lock held more than twice as often), so
    /// it is dropped with the entry instead.
    displaced: Option<T>,
}

impl<H: Send + Sync + 'static, T: Send + Sync + 'static> WriteEntry<H> for TypedWrite<H, T> {
    fn header(&self) -> &H {
        &self.location.header
    }

    fn publish(&mut self) {
        if let Some(value) = self.value.take() {
            self.displaced = Some(self.location.publish(value));
        }
    }
}

/// Keys are addresses of live allocations (each entry holds its
/// location's `Arc`), so a same-key entry is the same allocation and so
/// the same `T`. A failed downcast means heap corruption, which retrying
/// the transaction could not fix.
const ALIASED: &str = "write-set entry type mismatch for aliased key";

/// A transaction's buffered writes, one boxed typed entry per location.
///
/// Each entry sits next to its location's key, so a lookup scans keys
/// without a dynamic call. Write sets are small in STAMP-style workloads,
/// and a linear scan beats a map until tens of entries.
pub struct WriteSet<H> {
    entries: Vec<(usize, Box<dyn WriteEntry<H>>)>,
}

impl<H> Default for WriteSet<H> {
    fn default() -> Self {
        WriteSet { entries: vec![] }
    }
}

impl<H: Send + Sync + 'static> WriteSet<H> {
    fn position(&self, key: usize) -> Option<usize> {
        self.entries.iter().position(|&(k, _)| k == key)
    }

    /// The value buffered for `location`, if any (read-own-write).
    pub fn get<T: Send + Sync + 'static>(&self, location: &Location<H, T>) -> Option<&T> {
        let entry: &dyn Any = &*self.entries[self.position(location.key())?].1;
        let typed = entry.downcast_ref::<TypedWrite<H, T>>().expect(ALIASED);
        typed.value.as_ref()
    }

    /// The value buffered for `location`, if any, to overwrite in place.
    pub fn get_mut<T: Send + Sync + 'static>(
        &mut self,
        location: &Location<H, T>,
    ) -> Option<&mut T> {
        let i = self.position(location.key())?;
        let entry: &mut dyn Any = &mut *self.entries[i].1;
        let typed = entry.downcast_mut::<TypedWrite<H, T>>().expect(ALIASED);
        typed.value.as_mut()
    }

    /// Buffer `value` for a location not yet in the set (one allocation).
    pub fn push<T: Send + Sync + 'static>(&mut self, location: &Arc<Location<H, T>>, value: T) {
        let (key, location) = (location.key(), Arc::clone(location));
        let (value, displaced) = (Some(value), None);
        self.entries.push((
            key,
            Box::new(TypedWrite {
                location,
                value,
                displaced,
            }),
        ));
    }

    /// Order the entries by key, the global lock order. Keys are unique,
    /// so the unstable sort gives the stable order without a scratch buffer.
    pub fn sort(&mut self) {
        self.entries.sort_unstable_by_key(|&(k, _)| k);
    }

    /// Every entry's key and header, in set order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &H)> {
        self.entries.iter().map(|(k, e)| (*k, e.header()))
    }

    /// Move every buffered value into its location, in set order (commit
    /// locks held). The entries stay, so their headers can still be
    /// reached to release the locks, but hold no buffered value: `get` and
    /// `get_mut` return `None`. The displaced values are dropped by the
    /// next `clear`.
    pub fn publish_all(&mut self) {
        for (_, entry) in &mut self.entries {
            entry.publish();
        }
    }

    /// Entries in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry and the values publishing displaced, keeping the
    /// allocation for the next attempt.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The header of entry `i`.
impl<H: 'static> Index<usize> for WriteSet<H> {
    type Output = H;

    fn index(&self, i: usize) -> &H {
        self.entries[i].1.header()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn loc<T>(value: T) -> Arc<Location<(), T>> {
        Arc::new(Location::new((), value))
    }

    #[test]
    fn read_own_write_returns_the_latest_value() {
        let (a, b) = (loc(1u32), loc(String::from("b")));
        let mut ws = WriteSet::default();
        assert_eq!(ws.get(&a), None);
        ws.push(&a, 10);
        ws.push(&b, String::from("B"));
        *ws.get_mut(&a).unwrap() = 11;
        assert_eq!(ws.get(&a), Some(&11));
        assert_eq!(ws.get(&b).map(String::as_str), Some("B"));
        assert_eq!(a.snapshot(), 1, "buffered, not published");
    }

    #[test]
    fn second_write_updates_in_place() {
        let a = loc(0u8);
        let mut ws = WriteSet::default();
        ws.push(&a, 1);
        for v in 2..5 {
            *ws.get_mut(&a).expect("entry exists") = v;
        }
        assert_eq!(ws.len(), 1, "overwrites add no entry");
        assert_eq!(ws.get(&a), Some(&4));
        ws.clear();
        assert!(ws.is_empty());
        assert_eq!(ws.get(&a), None);
    }

    #[test]
    fn sort_orders_entries_by_key() {
        let locs: Vec<_> = (0..8u64).map(loc).collect();
        let mut ws = WriteSet::default();
        for l in locs.iter().rev() {
            ws.push(l, 0);
        }
        ws.sort();
        let keys: Vec<usize> = ws.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        let mut want: Vec<usize> = locs.iter().map(|l| l.key()).collect();
        want.sort_unstable();
        assert_eq!(keys, want);
    }

    #[test]
    fn publish_all_installs_every_value() {
        let (a, b) = (loc(1u32), loc(vec![1u8]));
        let mut ws = WriteSet::default();
        ws.push(&a, 2);
        ws.push(&b, vec![2, 2]);
        ws.publish_all();
        assert_eq!((a.snapshot(), b.snapshot()), (2, vec![2, 2]));
        assert_eq!(ws.len(), 2, "publishing keeps the entries");
        assert_eq!(ws.get(&a), None, "the value moved out");
    }

    #[test]
    fn publish_moves_values_and_clear_drops_the_displaced_ones() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Not `Clone`; each token adds its id to `dropped` when dropped.
        struct Token(u32, Arc<AtomicU32>);
        impl Drop for Token {
            fn drop(&mut self) {
                self.1.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        let dropped = Arc::new(AtomicU32::new(0));
        let token = |id| Token(id, Arc::clone(&dropped));
        let a = loc(token(1));
        let mut ws = WriteSet::default();
        ws.push(&a, token(2));
        ws.get_mut(&a).expect("buffered").0 = 3;
        ws.publish_all();
        ws.publish_all(); // nothing left to publish
        assert_eq!(a.peek(|t| t.0), 3);
        assert_eq!(dropped.load(Ordering::Relaxed), 0, "displaced, not dropped");
        ws.clear();
        assert_eq!(dropped.load(Ordering::Relaxed), 1, "clear drops the old value");
    }

    #[test]
    fn headers_are_reachable_by_index_and_type_erased_view() {
        let a = Arc::new(Location::new(7u64, ()));
        let mut ws = WriteSet::default();
        ws.push(&a, ());
        let erased: Arc<dyn AnyLocation<u64>> = a.clone();
        assert_eq!((ws[0], *erased.header()), (7, 7));
        assert_eq!(erased.key(), a.key());
    }

    #[test]
    fn publish_drops_the_old_value_after_releasing_the_guard() {
        // The old value's destructor reads the same location from another
        // thread: under a held write guard that read would block, and the
        // destructor gives up after the timeout and reports it. The test
        // joins the reader once `publish` has returned.
        type Loc = Location<(), Reenter>;
        type Report = mpsc::Sender<(bool, std::thread::JoinHandle<()>)>;
        struct Reenter(Option<(Arc<Loc>, Report)>);
        impl Clone for Reenter {
            fn clone(&self) -> Self {
                Reenter(None)
            }
        }
        impl Drop for Reenter {
            fn drop(&mut self) {
                let Some((location, report)) = self.0.take() else {
                    return;
                };
                let (done, read) = mpsc::channel();
                let reader = std::thread::spawn(move || {
                    drop(location.snapshot());
                    let _ = done.send(());
                });
                let unblocked = read.recv_timeout(Duration::from_secs(10)).is_ok();
                let _ = report.send((unblocked, reader));
            }
        }

        let location: Arc<Loc> = Arc::new(Location::new((), Reenter(None)));
        let (report, outcome) = mpsc::channel();
        location.publish(Reenter(Some((Arc::clone(&location), report))));
        location.publish(Reenter(None));
        let (unblocked, reader) = outcome.try_recv().expect("old value dropped");
        reader.join().unwrap();
        assert!(unblocked, "destructor blocked on the value lock");
    }

    #[test]
    fn commit_lock_retries_then_names_the_last_holder() {
        let mut tries = 0;
        let got = commit_lock(8, || {
            tries += 1;
            if tries < 3 {
                Err(Some(ThreadId(4)))
            } else {
                Ok(tries)
            }
        });
        assert_eq!(got, Ok(3));
        let busy = commit_lock::<()>(8, || Err(Some(ThreadId(5)))).unwrap_err();
        let cause = AbortCause::CommitLockBusy {
            owner: Some(ThreadId(5)),
        };
        assert_eq!(busy, Abort::at(cause, 8));
    }
}
