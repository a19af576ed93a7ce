//! Failure injection: a panicking transaction body must never wedge the
//! STM — no lock may stay held, no reader registration may leak — and
//! other threads must keep committing. A fault-plan-forced abort must go
//! through the shared retry driver's bookkeeping exactly once.

use gstm_core::contention::ContentionTracker;
use gstm_core::faultinject::{FaultPlan, FaultSite};
use gstm_core::telemetry::{Telemetry, TraceKind};
use gstm_core::{AbortCause, ThreadId, ThreadStats, TxnId};
use gstm_libtm::{LibTm, LibTmBuilder, LibTmConfig, TObject};
use gstm_tl2::{Stm, StmBuilder, StmConfig, TVar};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

#[test]
fn tl2_panicking_body_leaves_no_locks() {
    let stm = Stm::new(StmConfig::default());
    let v = TVar::new(7u32);
    let mut ctx = stm.register_as(ThreadId(0));
    let result = catch_unwind(AssertUnwindSafe(|| {
        ctx.atomically(TxnId(0), |tx| {
            tx.write(&v, 99)?;
            panic!("injected failure");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(result.is_err(), "panic propagates");
    // TL2 only locks at commit, so the location must be untouched and
    // freely usable afterwards.
    assert_eq!(v.load_quiesced(), 7, "buffered write discarded");
    let mut ctx2 = stm.register_as(ThreadId(1));
    ctx2.atomically(TxnId(1), |tx| tx.modify(&v, |x| x + 1));
    assert_eq!(v.load_quiesced(), 8);
}

#[test]
fn libtm_panicking_body_releases_reader_registrations() {
    // A LibTM read registers a visible reader *during the body*; the
    // transaction's Drop must deregister it even on panic.
    let tm = LibTm::new(LibTmConfig::default());
    let v = TObject::new(7u32);
    let mut ctx = tm.register_as(ThreadId(0));
    let result = catch_unwind(AssertUnwindSafe(|| {
        ctx.atomically(TxnId(0), |tx| {
            let _ = tx.read(&v)?;
            tx.write(&v, 99)?;
            panic!("injected failure");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(result.is_err());
    assert_eq!(v.load_quiesced(), 7, "write leaked");
    // Another thread must commit to `v` at once, and a registration leaked
    // on `v` would let that commit doom the panicked thread's next
    // transaction, which never touches `v`.
    let w = TObject::new(0u32);
    let mut ctx2 = tm.register_as(ThreadId(1));
    let mut attempts = 0;
    ctx.atomically(TxnId(0), |tx| {
        attempts += 1;
        let x = tx.read(&w)?;
        if attempts == 1 {
            ctx2.atomically(TxnId(1), |tx2| tx2.modify(&v, |x| x + 1));
        }
        tx.write(&w, x + 1)
    });
    assert_eq!(attempts, 1, "doomed through a leaked registration");
    assert_eq!((v.load_quiesced(), w.load_quiesced()), (8, 1));
}

#[test]
fn tl2_survives_a_crashing_worker_among_live_ones() {
    let stm = Stm::new(StmConfig::with_yield_injection(3));
    let v = TVar::new(0u64);
    std::thread::scope(|s| {
        // A worker that panics mid-transaction.
        let stm_c = Arc::clone(&stm);
        let v_c = v.clone();
        let crasher = s.spawn(move || {
            let mut ctx = stm_c.register_as(ThreadId(0));
            let _ = catch_unwind(AssertUnwindSafe(|| {
                ctx.atomically(TxnId(0), |tx| {
                    tx.write(&v_c, u64::MAX)?;
                    panic!("boom");
                    #[allow(unreachable_code)]
                    Ok(())
                })
            }));
        });
        // Healthy workers.
        for t in 1..4u16 {
            let stm = Arc::clone(&stm);
            let v = v.clone();
            s.spawn(move || {
                let mut ctx = stm.register_as(ThreadId(t));
                for _ in 0..200 {
                    ctx.atomically(TxnId(1), |tx| tx.modify(&v, |x| x + 1));
                }
            });
        }
        crasher.join().unwrap();
    });
    assert_eq!(v.load_quiesced(), 600, "healthy workers unaffected");
}

#[test]
fn explicit_retry_storm_does_not_starve_commits() {
    // Threads that explicitly retry on a predicate make progress as soon
    // as the predicate flips, even under heavy conflict.
    let stm = Stm::new(StmConfig::with_yield_injection(3));
    let gatevar = TVar::new(false);
    let hits = TVar::new(0u32);
    std::thread::scope(|s| {
        for t in 0..3u16 {
            let stm = Arc::clone(&stm);
            let gatevar = gatevar.clone();
            let hits = hits.clone();
            s.spawn(move || {
                let mut ctx = stm.register_as(ThreadId(t));
                ctx.atomically(TxnId(0), |tx| {
                    if !tx.read(&gatevar)? {
                        return Err(tx.retry());
                    }
                    tx.modify(&hits, |h| h + 1)
                });
            });
        }
        let stm_o = Arc::clone(&stm);
        let gate_o = gatevar.clone();
        s.spawn(move || {
            std::thread::yield_now();
            let mut ctx = stm_o.register_as(ThreadId(3));
            ctx.atomically(TxnId(1), |tx| tx.write(&gate_o, true));
        });
    });
    assert_eq!(hits.load_quiesced(), 3);
}

/// Run `three_increments` (which must commit three increments through
/// the given instruments and return the thread's stats and the instance
/// totals) under a plan that forces one abort at `site`. Every record
/// point must see that abort exactly once, and the trace must show the
/// retried attempt in driver order.
fn check_forced_abort_counted_once(
    site: FaultSite,
    three_increments: impl FnOnce(
        Arc<Telemetry>,
        Arc<FaultPlan>,
        Arc<ContentionTracker>,
    ) -> (ThreadStats, u64, u64),
) {
    let tel = Arc::new(Telemetry::new());
    let tracker = Arc::new(ContentionTracker::new());
    let plan = Arc::new(FaultPlan::parse_spec("1:forced-aborts@1000x1").unwrap());
    let (stats, commits, aborts) = three_increments(tel.clone(), plan.clone(), tracker.clone());
    assert_eq!(plan.injected(site), 1);
    assert_eq!((stats.commits, stats.aborts, stats.explicit), (3, 1, 1));
    assert_eq!((commits, aborts), (3, 1), "instance totals");
    let snap = tel.snapshot();
    let counted = (snap.commits, snap.aborts_total(), snap.explicit_retries());
    assert_eq!((counted, snap.backoff_ns.count), ((3, 1, 1), 1));
    let ctn = tracker.snapshot();
    assert_eq!(
        (ctn.total(), ctn.unattributed, ctn.owner_unknown),
        (1, 1, 1)
    );
    // A gate slice is traced only when the (here ungated) pass happened
    // to take over 1 µs, so it carries no information.
    let kinds: Vec<&str> = tel
        .trace_events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::GateWait { .. } => None,
            TraceKind::Begin => Some("begin"),
            TraceKind::Abort {
                cause: AbortCause::Explicit,
                addr: 0,
            } => Some("explicit"),
            TraceKind::Commit { writes: 1, .. } => Some("commit"),
            _ => Some("unexpected"),
        })
        .collect();
    let expected = "begin explicit begin commit begin commit begin commit";
    assert_eq!(kinds.join(" "), expected);
}

#[test]
fn tl2_forced_abort_is_counted_once() {
    check_forced_abort_counted_once(FaultSite::Tl2Abort, |tel, plan, tracker| {
        let stm = StmBuilder::new(StmConfig::default())
            .telemetry(Some(tel))
            .faults(Some(plan))
            .contention(Some(tracker))
            .build();
        let v = TVar::new(0u64);
        let mut ctx = stm.register();
        for _ in 0..3 {
            ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
        }
        assert_eq!(v.load_quiesced(), 3);
        // TL2 keeps no instance totals: its one thread's stats are them.
        let stats = ctx.take_stats();
        let (commits, aborts) = (stats.commits, stats.aborts);
        (stats, commits, aborts)
    });
}

#[test]
fn libtm_forced_abort_is_counted_once() {
    check_forced_abort_counted_once(FaultSite::LibtmAbort, |tel, plan, tracker| {
        let tm = LibTmBuilder::new(LibTmConfig::default())
            .telemetry(Some(tel))
            .faults(Some(plan))
            .contention(Some(tracker))
            .build();
        let v = TObject::new(0u64);
        let mut ctx = tm.register();
        for _ in 0..3 {
            ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
        }
        assert_eq!(v.load_quiesced(), 3);
        (ctx.take_stats(), tm.total_commits(), tm.total_aborts())
    });
}
