//! Allocation counts of steady-state transaction attempts.
//!
//! Each thread reuses its read/write-set buffers across attempts, so once
//! a context has run one transaction of a given shape, running it again
//! allocates only what the shape itself needs: nothing for reads, one
//! boxed write entry per distinct location written. This binary installs
//! a counting global allocator (counts are per thread, so the test
//! harness's parallel tests do not disturb each other) and pins those
//! counts.
//!
//! Run it in release as well as debug, since the claim is about the
//! optimized build:
//!
//! ```text
//! cargo test --offline --release -p gstm-integration-tests --test alloc_free
//! ```

use gstm_core::{ThreadId, TxnId};
use gstm_libtm::{LibTm, LibTmConfig, TObject};
use gstm_tl2::{Detection, Stm, StmConfig, TVar};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made by each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread's TLS is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    let n = ALLOCS.with(Cell::get) - before;
    drop(r);
    n
}

/// Locations per transaction: enough that the read set's address set
/// grows past its initial table.
const VARS: usize = 24;

fn tl2_modes() -> [Detection; 2] {
    [Detection::Lazy, Detection::Eager]
}

#[test]
fn tl2_read_only_transaction_allocates_nothing() {
    for detection in tl2_modes() {
        let stm = Stm::new(StmConfig {
            detection,
            ..StmConfig::default()
        });
        let vars: Vec<TVar<u64>> = (0..VARS as u64).map(TVar::new).collect();
        let mut ctx = stm.register_as(ThreadId(0));
        let mut sum_all = || {
            ctx.atomically(TxnId(0), |tx| {
                let mut sum = 0;
                for v in &vars {
                    sum += tx.read(v)?;
                }
                Ok(sum)
            })
        };
        sum_all(); // warm-up: the thread's buffers grow here
        assert_eq!(allocs_during(&mut sum_all), 0, "{detection:?}");
    }
}

#[test]
fn tl2_write_transaction_allocates_one_entry_per_write() {
    for detection in tl2_modes() {
        for k in [1, 4, VARS] {
            let stm = Stm::new(StmConfig {
                detection,
                ..StmConfig::default()
            });
            let vars: Vec<TVar<u64>> = (0..VARS as u64).map(TVar::new).collect();
            let mut ctx = stm.register_as(ThreadId(0));
            // Read every location, then write (twice) the first k: the
            // second write to a location updates its entry in place.
            let mut bump_k = || {
                ctx.atomically(TxnId(0), |tx| {
                    for v in &vars {
                        tx.read(v)?;
                    }
                    for v in &vars[..k] {
                        tx.modify(v, |x| x + 1)?;
                        tx.modify(v, |x| x + 1)?;
                    }
                    Ok(())
                })
            };
            bump_k();
            let n = allocs_during(&mut bump_k);
            assert_eq!(n, k as u64, "{detection:?}, {k} writes");
            assert_eq!(vars[0].load_quiesced(), 4);
        }
    }
}

#[test]
fn tl2_abort_then_commit_allocates_only_the_commit() {
    const K: usize = 3;
    for detection in tl2_modes() {
        let stm = Stm::new(StmConfig {
            detection,
            ..StmConfig::default()
        });
        let vars: Vec<TVar<u64>> = (0..VARS as u64).map(TVar::new).collect();
        let mut ctx = stm.register_as(ThreadId(0));
        // The first attempt reads everything and aborts; the retry reads
        // everything again and commits K writes.
        let mut abort_once = || {
            let mut attempts = 0;
            ctx.atomically(TxnId(0), |tx| {
                attempts += 1;
                for v in &vars {
                    tx.read(v)?;
                }
                if attempts == 1 {
                    return Err(tx.retry());
                }
                for v in &vars[..K] {
                    tx.modify(v, |x| x + 1)?;
                }
                Ok(())
            })
        };
        abort_once();
        assert_eq!(allocs_during(&mut abort_once), K as u64, "{detection:?}");
        assert_eq!(ctx.stats().aborts, 2);
    }
}

#[test]
fn libtm_read_only_transaction_allocates_nothing() {
    let tm = LibTm::new(LibTmConfig::default());
    let objs: Vec<TObject<u64>> = (0..VARS as u64).map(TObject::new).collect();
    let mut ctx = tm.register_as(ThreadId(0));
    let mut sum_all = || {
        ctx.atomically(TxnId(0), |tx| {
            let mut sum = 0;
            for o in &objs {
                sum += tx.read(o)?;
            }
            Ok(sum)
        })
    };
    sum_all(); // warm-up: buffers and reader registries grow here
    assert_eq!(allocs_during(&mut sum_all), 0);
}

#[test]
fn libtm_abort_then_commit_allocates_only_the_commit() {
    const K: usize = 3;
    let tm = LibTm::new(LibTmConfig::default());
    let objs: Vec<TObject<u64>> = (0..VARS as u64).map(TObject::new).collect();
    let mut ctx = tm.register_as(ThreadId(0));
    let mut abort_once = || {
        let mut attempts = 0;
        ctx.atomically(TxnId(0), |tx| {
            attempts += 1;
            for o in &objs {
                tx.read(o)?;
            }
            if attempts == 1 {
                return Err(tx.retry());
            }
            for o in &objs[..K] {
                tx.modify(o, |x| x + 1)?;
            }
            Ok(())
        })
    };
    abort_once();
    assert_eq!(allocs_during(&mut abort_once), K as u64);
    assert_eq!(objs[0].load_quiesced(), 2);
}
