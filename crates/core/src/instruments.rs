//! One instrumentation path for both STMs: the [`Instruments`] bundle and
//! the retry driver [`Instruments::run`].
//!
//! The paper's hook contract — gate at begin, record on abort, classify
//! on commit — is the same for TL2 and LibTM, so it is written once. A
//! backend supplies only its begin step and an [`Attempt`] impl. The
//! driver is generic over both, so each backend gets a monomorphized loop
//! that adds no dynamic call, allocation or reference-count traffic per
//! transaction; an absent instrument costs one predictable branch.

use crate::contention::ContentionTracker;
use crate::events::{Abort, TxResult};
use crate::faultinject::{spin_for, FaultPlan, FaultSite, InjectedFault};
use crate::guidance::GuidanceHook;
use crate::ids::Pair;
use crate::rng::Interleave;
use crate::stats::ThreadStats;
use crate::telemetry::{Telemetry, TraceKind};
use std::sync::Arc;

/// One in-flight transaction attempt, as the retry driver sees it.
pub trait Attempt {
    /// The backend's `(forced abort, commit delay)` chaos sites, probed in
    /// that order between a successful body and the commit.
    const FAULT_SITES: (FaultSite, FaultSite);

    /// Distinct locations buffered for write-back (telemetry reports
    /// this per committed attempt).
    fn write_set_size(&self) -> usize;

    /// Run the backend's commit protocol, consuming the attempt.
    fn commit(self) -> TxResult<()>;
}

/// What one STM instance reports to: the guidance hook and the optional
/// telemetry collector, chaos fault plan and conflict-provenance tracker.
pub struct Instruments {
    pub(crate) hook: Arc<dyn GuidanceHook>,
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) contention: Option<Arc<ContentionTracker>>,
}

impl Instruments {
    /// Bundle a hook with the optional instruments (`None` = off).
    pub fn new(
        hook: Arc<dyn GuidanceHook>,
        telemetry: Option<Arc<Telemetry>>,
        faults: Option<Arc<FaultPlan>>,
        contention: Option<Arc<ContentionTracker>>,
    ) -> Self {
        Instruments {
            hook,
            telemetry,
            faults,
            contention,
        }
    }

    /// Open an attempt: pass the guidance gate and, with telemetry,
    /// record the backoff since `backoff_from` (what the previous
    /// [`Instruments::abort`] returned) and the gate wait, then trace
    /// `Begin` and, for a visible wait, `GateWait`. Both events carry the
    /// clock read that ends the gate wait.
    #[inline]
    pub fn begin(&self, me: Pair, backoff_from: Option<u64>) {
        let Some(t) = &self.telemetry else {
            self.hook.gate(me);
            return;
        };
        let t0 = t.now_ns();
        if let Some(prev) = backoff_from {
            t.record_backoff(me, t0.saturating_sub(prev));
        }
        self.hook.gate(me);
        let passed = t.now_ns();
        let wait_ns = passed.saturating_sub(t0);
        t.record_gate_wait(me, wait_ns);
        t.trace_at(me, TraceKind::Begin, Some(passed));
        // Guided waits are µs-scale; ungated passes would drown the trace.
        if wait_ns >= 1_000 {
            t.trace_at(me, TraceKind::GateWait { wait_ns }, Some(passed));
        }
    }

    /// Record a transaction that committed after `retries` aborts, with
    /// its `(commit_ns, writes)`: commit latency and write-set size (used
    /// only by telemetry).
    #[inline]
    pub fn commit(&self, me: Pair, stats: &mut ThreadStats, retries: u32, done: (u64, u32)) {
        self.committed(me, stats, retries, done, None);
    }

    /// [`Instruments::commit`], tracing `Commit` at `end_ns` when the
    /// caller read the commit's end (`None` reads the clock).
    #[inline]
    fn committed(
        &self,
        me: Pair,
        stats: &mut ThreadStats,
        retries: u32,
        (commit_ns, writes): (u64, u32),
        end_ns: Option<u64>,
    ) {
        self.hook.on_commit(me);
        stats.record_commit(retries);
        if let Some(t) = &self.telemetry {
            t.record_commit(me, commit_ns);
            t.trace_at(me, TraceKind::Commit { commit_ns, writes }, end_ns);
        }
    }

    /// Record a rolled-back attempt. With telemetry, returns the abort
    /// timestamp: the `Abort` event's stamp and the backoff start for the
    /// next [`Instruments::begin`].
    #[inline]
    pub fn abort(&self, me: Pair, stats: &mut ThreadStats, abort: Abort) -> Option<u64> {
        self.hook.on_abort(me, abort.cause);
        stats.record_abort(abort.cause);
        if let Some(ct) = &self.contention {
            ct.record(me.thread, abort.cause, abort.site);
        }
        let t = self.telemetry.as_ref()?;
        let (cause, addr) = (abort.cause, abort.site.raw());
        t.record_abort(me, cause);
        let now = t.now_ns();
        t.trace_at(me, TraceKind::Abort { cause, addr }, Some(now));
        Some(now)
    }

    #[inline]
    fn fires(&self, site: FaultSite, me: Pair) -> Option<InjectedFault> {
        self.faults.as_ref()?.should_fire(site, me.thread.index())
    }

    /// Run the commit protocol; with telemetry, time it and return
    /// `(commit_ns, writes)` and the clock read that ended it.
    #[inline]
    fn timed_commit<A: Attempt>(&self, tx: A) -> TxResult<((u64, u32), Option<u64>)> {
        let Some(t) = &self.telemetry else {
            return tx.commit().map(|()| ((0, 0), None));
        };
        let writes = tx.write_set_size() as u32;
        let c0 = t.now_ns();
        let res = tx.commit();
        res.map(|()| {
            let end = t.now_ns();
            ((end.saturating_sub(c0), writes), Some(end))
        })
    }

    /// The retry loop: run `body` on attempts opened by `begin` until one
    /// commits, and return its result. `begin` receives the number of
    /// aborts before the attempt it opens.
    ///
    /// An attempt passes [`Instruments::begin`], the begin-time
    /// interleave coin and the backend's `begin`; after the body come the
    /// chaos probes and the commit, then [`Instruments::commit`] or
    /// [`Instruments::abort`]. After an abort the thread yields once
    /// (reduces livelock); an attempt that aborted before its commit
    /// protocol ran is dropped, releasing what it holds, after that yield.
    #[inline]
    pub fn run<A: Attempt, R>(
        &self,
        me: Pair,
        stats: &mut ThreadStats,
        inject: &Interleave,
        mut begin: impl FnMut(u32) -> A,
        mut body: impl FnMut(&mut A) -> TxResult<R>,
    ) -> R {
        let mut retries: u32 = 0;
        let mut backoff_from = None;
        loop {
            self.begin(me, backoff_from);
            inject.at_begin();
            let mut tx = begin(retries);
            let outcome = match body(&mut tx) {
                Err(a) => Err(a),
                // A forced abort takes the ordinary rollback path; a
                // commit delay stalls the committer.
                Ok(_) if self.fires(A::FAULT_SITES.0, me).is_some() => Err(Abort::EXPLICIT),
                Ok(r) => {
                    if let Some(fault) = self.fires(A::FAULT_SITES.1, me) {
                        spin_for(fault.spins);
                    }
                    self.timed_commit(tx).map(|done| (r, done))
                }
            };
            match outcome {
                Ok((r, (done, end_ns))) => {
                    self.committed(me, stats, retries, done, end_ns);
                    return r;
                }
                Err(abort) => {
                    backoff_from = self.abort(me, stats, abort);
                    retries = retries.saturating_add(1);
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject::FaultSite;
    use crate::ids::{ThreadId, TxnId};
    use crate::telemetry::TraceEvent;
    use std::time::{Duration, Instant};

    /// A gate that holds every attempt for a few microseconds.
    struct SlowGate;

    impl GuidanceHook for SlowGate {
        fn gate(&self, _who: Pair) {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(5) {
                std::hint::spin_loop();
            }
        }
    }

    /// An attempt whose commit always succeeds.
    struct Trivial;

    impl Attempt for Trivial {
        const FAULT_SITES: (FaultSite, FaultSite) =
            (FaultSite::Tl2Abort, FaultSite::Tl2CommitDelay);

        fn write_set_size(&self) -> usize {
            1
        }

        fn commit(self) -> TxResult<()> {
            Ok(())
        }
    }

    #[test]
    fn trace_stamps_reuse_the_phase_boundary_reads() {
        let tel = Arc::new(Telemetry::with_trace_capacity(16));
        let instr = Instruments::new(Arc::new(SlowGate), Some(Arc::clone(&tel)), None, None);
        let me = Pair::new(TxnId(0), ThreadId(0));
        let mut stats = ThreadStats::new();
        let inject = Interleave::for_thread(None, me.thread);
        let mut attempts = 0;
        instr.run(
            me,
            &mut stats,
            &inject,
            |_| Trivial,
            |_| {
                attempts += 1;
                if attempts == 1 {
                    Err(Abort::EXPLICIT)
                } else {
                    Ok(())
                }
            },
        );
        let events = tel.trace_events();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        let [b1, g1, abort, b2, g2, commit]: [TraceEvent; 6] =
            events.try_into().unwrap_or_else(|_| panic!("{kinds:?}"));
        assert_eq!(b1.kind, TraceKind::Begin);
        assert_eq!(b2.kind, TraceKind::Begin);
        assert!(matches!(abort.kind, TraceKind::Abort { .. }), "{kinds:?}");
        let TraceKind::GateWait { wait_ns } = g2.kind else {
            panic!("{kinds:?}");
        };
        let TraceKind::Commit { commit_ns, writes } = commit.kind else {
            panic!("{kinds:?}");
        };
        assert_eq!(writes, 1);
        // Begin and GateWait share the read that ended the gate wait.
        assert_eq!((b1.ts_ns, b2.ts_ns), (g1.ts_ns, g2.ts_ns));
        assert!(matches!(g1.kind, TraceKind::GateWait { .. }));
        // The abort's stamp starts the backoff, which ends where the
        // second gate wait starts.
        assert!(b1.ts_ns <= abort.ts_ns);
        assert!(abort.ts_ns <= g2.ts_ns - wait_ns);
        // The commit began after the gate passed and ended at its stamp.
        assert!(g2.ts_ns <= commit.ts_ns - commit_ns);
        let snap = tel.snapshot();
        assert_eq!(snap.backoff_ns.count, 1);
        assert_eq!(snap.gate_wait_ns.count, 2);
        assert_eq!((snap.commits, snap.aborts_total()), (1, 1));
    }
}
