//! Bank transfers: the classic STM demo, showing composable atomicity,
//! explicit retry, and conflict statistics on `gstm-tl2`.
//!
//! Threads transfer money between accounts; an auditor thread repeatedly
//! snapshots the whole bank inside one transaction and checks that the
//! total is conserved *at every instant it looks* — the property locks
//! make hard and STM makes trivial.
//!
//! ```sh
//! cargo run --release --example bank_transfer
//! ```

use gstm_core::{ThreadId, ThreadStats, TxnId};
use gstm_tl2::{Stm, StmConfig, TVar, TxResult, Txn};
use std::sync::Arc;

const ACCOUNTS: usize = 16;
const INITIAL: i64 = 1_000;
const TRANSFERS_PER_THREAD: usize = 2_000;
const THREADS: u16 = 4;

/// Move up to `amount` from `from` to `to`; transfers what the source can
/// afford (skipping blocked transfers rather than waiting keeps the demo
/// deadlock-free — a transfer that *blocked* on funds could starve when
/// every would-be depositor is itself blocked).
fn transfer(
    tx: &mut Txn,
    from: &TVar<i64>,
    to: &TVar<i64>,
    amount: i64,
) -> TxResult<i64> {
    let balance = tx.read(from)?;
    let moved = amount.min(balance.max(0));
    if moved > 0 {
        tx.write(from, balance - moved)?;
        let dst = tx.read(to)?;
        tx.write(to, dst + moved)?;
    }
    Ok(moved)
}

fn main() {
    let stm = Stm::new(StmConfig::with_yield_injection(2));
    let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect();
    let expected_total = (ACCOUNTS as i64) * INITIAL;

    let overall = std::thread::scope(|s| {
        // Transfer threads.
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let stm = Arc::clone(&stm);
            let accounts = accounts.clone();
            workers.push(s.spawn(move || {
                let mut ctx = stm.register_as(ThreadId(t));
                let mut r: u64 = 0x1234_5678 ^ (t as u64) << 32;
                for _ in 0..TRANSFERS_PER_THREAD {
                    r = r
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let from = (r >> 16) as usize % ACCOUNTS;
                    let to = (r >> 32) as usize % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amount = (r % 50) as i64 + 1;
                    let (a, b) = (accounts[from].clone(), accounts[to].clone());
                    ctx.atomically(TxnId(0), |tx| transfer(tx, &a, &b, amount));
                }
                let st = ctx.take_stats();
                println!(
                    "thread {t}: {} commits, {} aborts ({} explicit retries)",
                    st.commits, st.aborts, st.explicit
                );
                st
            }));
        }
        // Auditor thread: consistent whole-bank snapshots.
        let stm_a = Arc::clone(&stm);
        let accounts_a = accounts.clone();
        workers.push(s.spawn(move || {
            let mut ctx = stm_a.register_as(ThreadId(THREADS));
            for audit in 0..200 {
                let total = ctx.atomically(TxnId(1), |tx| {
                    let mut sum = 0i64;
                    for a in &accounts_a {
                        sum += tx.read(a)?;
                    }
                    Ok(sum)
                });
                assert_eq!(
                    total, expected_total,
                    "audit {audit}: money created or destroyed!"
                );
                std::thread::yield_now();
            }
            println!("auditor: 200 consistent snapshots, total always {expected_total}");
            ctx.take_stats()
        }));
        let mut overall = ThreadStats::new();
        for w in workers {
            overall.merge(&w.join().unwrap());
        }
        overall
    });

    let final_total: i64 = accounts.iter().map(TVar::load_quiesced).sum();
    println!(
        "final total: {final_total} (expected {expected_total}); {} commits, {} aborts overall",
        overall.commits, overall.aborts
    );
    assert_eq!(final_total, expected_total);

    // Bonus: `Txn::retry` as a condition variable — a consumer blocks (via
    // abort-and-retry) until a producer funds the mailbox. Progress is
    // guaranteed because the producer never waits on the consumer.
    let mailbox = TVar::new(0i64);
    let stm2 = Stm::new(StmConfig::default());
    std::thread::scope(|s| {
        let stm_c = Arc::clone(&stm2);
        let mb = mailbox.clone();
        s.spawn(move || {
            let mut ctx = stm_c.register_as(ThreadId(0));
            let got = ctx.atomically(TxnId(2), |tx| {
                let v = tx.read(&mb)?;
                if v == 0 {
                    return Err(tx.retry()); // block until funded
                }
                tx.write(&mb, 0)?;
                Ok(v)
            });
            println!("consumer received {got} via retry-based blocking");
            assert_eq!(got, 250);
        });
        let stm_p = Arc::clone(&stm2);
        let mb = mailbox.clone();
        s.spawn(move || {
            let mut ctx = stm_p.register_as(ThreadId(1));
            std::thread::yield_now();
            ctx.atomically(TxnId(3), |tx| tx.write(&mb, 250));
        });
    });
}
