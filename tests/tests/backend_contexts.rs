//! The generic thread context, checked once per backend: what
//! `gstm_core::Context` does at the guidance hook must hold on TL2 and on
//! LibTM alike.

use gstm_core::{Backend, GuidanceHook, GuidedHook, Pair, Runtime, ThreadId, TxnId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fixed guided hook whose model lets only thread 0 go after
/// thread 1 commits, with a budget no test could sit out.
fn after_thread_one_only_zero_goes() -> Arc<GuidedHook> {
    use gstm_core::{GuidanceConfig, GuidedModel, StateKey, Tsa};
    let [zero, one] = [0, 1].map(|t| StateKey::solo(Pair::new(TxnId(0), ThreadId(t))));
    let run: Vec<_> = (0..8).flat_map(|_| [one.clone(), zero.clone()]).collect();
    let cfg = GuidanceConfig {
        k_retries: 1_000_000,
        wait_spins: 1_000_000,
        ..GuidanceConfig::default()
    };
    let model = GuidedModel::build(Tsa::from_runs(&[run]), &cfg);
    Arc::new(GuidedHook::new(Arc::new(model), cfg))
}

/// Thread 2, which the model never lets go, gates: it returns only if
/// no other gater can wake it.
fn lone_waiter_returns(hook: &Arc<GuidedHook>) -> bool {
    let hook = Arc::clone(hook);
    let waiter = std::thread::spawn(move || hook.gate(Pair::new(TxnId(0), ThreadId(2))));
    let t0 = Instant::now();
    while !waiter.is_finished() && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    waiter.is_finished()
}

fn dropping_a_context_retires_its_thread_at_the_hook<B: Backend>(config: B::Config) {
    let hook = after_thread_one_only_zero_goes();
    let rt = Runtime::<B>::with_hook(hook.clone(), config);
    let mut ctx = rt.register_as(ThreadId(1));
    ctx.atomically(TxnId(0), |_| Ok(()));
    drop(ctx);
    assert!(
        lone_waiter_returns(&hook),
        "thread 1 still counts as a waker"
    );
    assert_eq!(hook.stats().released, 1);
}

mod tl2 {
    #[test]
    fn dropping_a_context_retires_its_thread_at_the_hook() {
        super::dropping_a_context_retires_its_thread_at_the_hook::<gstm_tl2::Tl2>(
            gstm_tl2::StmConfig::default(),
        );
    }
}

mod libtm {
    #[test]
    fn dropping_a_context_retires_its_thread_at_the_hook() {
        super::dropping_a_context_retires_its_thread_at_the_hook::<gstm_libtm::LibTmProtocol>(
            gstm_libtm::LibTmConfig::default(),
        );
    }
}
