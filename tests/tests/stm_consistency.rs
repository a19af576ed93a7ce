//! Cross-crate STM consistency stress tests: TL2 + containers under
//! dense interleaving, with structural audits after the dust settles.

use gstm_core::{ThreadId, TxnId};
use gstm_structs::{THashMap, TList, TMap, TQueue};
use gstm_tl2::{Stm, StmConfig, TVar};
use std::sync::Arc;

#[test]
fn mixed_structure_transaction_is_all_or_nothing() {
    // One transaction that touches a map, a queue, a hash map, and a
    // counter: after concurrent execution, all four views agree.
    let stm = Stm::new(StmConfig::with_yield_injection(2));
    let map: TMap<u64> = TMap::new();
    let queue: TQueue<u64> = TQueue::new();
    let index: THashMap<u64> = THashMap::new(64);
    let counter = TVar::new(0u64);

    std::thread::scope(|s| {
        for t in 0..4u16 {
            let stm = Arc::clone(&stm);
            let map = map.clone();
            let queue = queue.clone();
            let index = index.clone();
            let counter = counter.clone();
            s.spawn(move || {
                let mut ctx = stm.register_as(ThreadId(t));
                for i in 0..80u64 {
                    let key = t as u64 * 1000 + i;
                    ctx.atomically(TxnId(0), |tx| {
                        map.insert(tx, key, key)?;
                        queue.push(tx, key)?;
                        index.insert(tx, key, key)?;
                        tx.modify(&counter, |c| c + 1)
                    });
                }
            });
        }
    });

    let stm2 = Stm::new(StmConfig::default());
    let mut ctx = stm2.register();
    let (map_len, q_len, index_len, count) = ctx.atomically(TxnId(1), |tx| {
        Ok((
            map.len(tx)?,
            queue.len(tx)?,
            index.len(tx)?,
            tx.read(&counter)?,
        ))
    });
    assert_eq!(map_len, 320);
    assert_eq!(q_len, 320);
    assert_eq!(index_len, 320);
    assert_eq!(count, 320);
}

#[test]
fn producer_consumer_through_hashmap_and_list_conserves_items() {
    // Producers stage items in a hash map; movers atomically transfer
    // them into a list; nothing is lost or duplicated.
    let stm = Stm::new(StmConfig::with_yield_injection(2));
    let staged: THashMap<u64> = THashMap::new(32);
    let done: TList<u64> = TList::new();
    let produced = 3u64 * 60;

    std::thread::scope(|s| {
        // Producers.
        for t in 0..3u16 {
            let stm = Arc::clone(&stm);
            let staged = staged.clone();
            s.spawn(move || {
                let mut ctx = stm.register_as(ThreadId(t));
                for i in 0..60u64 {
                    let key = t as u64 * 100 + i;
                    ctx.atomically(TxnId(0), |tx| staged.insert(tx, key, key * 2));
                }
            });
        }
        // Movers: scan a key range, move one item at a time.
        for t in 3..5u16 {
            let stm = Arc::clone(&stm);
            let staged = staged.clone();
            let done = done.clone();
            s.spawn(move || {
                let mut ctx = stm.register_as(ThreadId(t));
                let mut idle = 0;
                while idle < 400 {
                    let mut moved = false;
                    for key in 0..300u64 {
                        let did = ctx.atomically(TxnId(1), |tx| {
                            match staged.remove(tx, key)? {
                                Some(v) => {
                                    done.insert(tx, key, v)?;
                                    Ok(true)
                                }
                                None => Ok(false),
                            }
                        });
                        moved |= did;
                    }
                    if moved {
                        idle = 0;
                    } else {
                        idle += 1;
                        std::thread::yield_now();
                    }
                }
            });
        }
    });

    let stm2 = Stm::new(StmConfig::default());
    let mut ctx = stm2.register();
    let (left, finished) = ctx.atomically(TxnId(2), |tx| {
        Ok((staged.len(tx)?, done.len(tx)?))
    });
    assert_eq!(left + finished, produced, "items conserved");
    assert_eq!(left, 0, "movers drained the staging table");
    // Values preserved through the move.
    let snap = ctx.atomically(TxnId(2), |tx| done.snapshot(tx));
    assert!(snap.iter().all(|&(k, v)| v == k * 2));
}

#[test]
fn long_reader_sees_consistent_aggregate() {
    // Writers keep the sum of a vector invariant; a long transactional
    // reader must never observe a partial update, even while being
    // aborted often.
    let stm = Stm::new(StmConfig::with_yield_injection(1));
    let cells: Vec<TVar<i64>> = (0..32).map(|_| TVar::new(10)).collect();
    let expected: i64 = 320;

    std::thread::scope(|s| {
        for t in 0..3u16 {
            let stm = Arc::clone(&stm);
            let cells = cells.clone();
            s.spawn(move || {
                let mut ctx = stm.register_as(ThreadId(t));
                let mut r = t as u64 + 1;
                for _ in 0..300 {
                    r = r.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let i = (r >> 20) as usize % cells.len();
                    let j = (r >> 40) as usize % cells.len();
                    if i == j {
                        continue;
                    }
                    let (a, b) = (cells[i].clone(), cells[j].clone());
                    ctx.atomically(TxnId(0), |tx| {
                        let av = tx.read(&a)?;
                        let bv = tx.read(&b)?;
                        tx.write(&a, av - 3)?;
                        tx.write(&b, bv + 3)?;
                        Ok(())
                    });
                }
            });
        }
        let stm_r = Arc::clone(&stm);
        let cells_r = cells.clone();
        s.spawn(move || {
            let mut ctx = stm_r.register_as(ThreadId(3));
            for _ in 0..150 {
                let sum = ctx.atomically(TxnId(1), |tx| {
                    let mut sum = 0;
                    for c in &cells_r {
                        sum += tx.read(c)?;
                    }
                    Ok(sum)
                });
                assert_eq!(sum, expected, "torn aggregate observed");
            }
        });
    });
    let final_sum: i64 = cells.iter().map(TVar::load_quiesced).sum();
    assert_eq!(final_sum, expected);
}
