//! vacation — travel reservation system (STAMP `vacation`).
//!
//! A client/server OLTP emulation: four relation tables (cars, flights,
//! rooms, customers) held in transactional ordered maps. Client threads
//! issue a pseudo-random mix of operations, each one transaction:
//!
//! * **make reservation** (txn 0): query `q` random items across the three
//!   resource tables, pick the cheapest available one per kind, reserve it
//!   and bill the customer;
//! * **delete customer** (txn 1): cancel a customer's reservations and
//!   release the resources;
//! * **update tables** (txn 2): add/remove/reprice random items.
//!
//! The paper remarks that vacation's pseudo-random client behaviour is the
//! hardest pattern for the trained model to capture.

use crate::{mix64, run_workers, BenchResult, Benchmark, InputSize, RunConfig};
use gstm_core::TxnId;
use gstm_structs::TMap;
use gstm_tl2::Stm;
use std::sync::Arc;

const TXN_RESERVE: TxnId = TxnId(0);
const TXN_DELETE_CUSTOMER: TxnId = TxnId(1);
const TXN_UPDATE_TABLES: TxnId = TxnId(2);

struct Params {
    relations: u64,
    customers: u64,
    tasks_per_thread: usize,
    queries_per_task: usize,
}

fn params(size: InputSize) -> Params {
    match size {
        InputSize::Small => Params {
            relations: 32,
            customers: 24,
            tasks_per_thread: 100,
            queries_per_task: 6,
        },
        InputSize::Medium => Params {
            relations: 256,
            customers: 192,
            tasks_per_thread: 300,
            queries_per_task: 6,
        },
        InputSize::Large => Params {
            relations: 1024,
            customers: 768,
            tasks_per_thread: 800,
            queries_per_task: 8,
        },
    }
}

/// One reservable resource (a car, flight, or room).
#[derive(Clone, Debug)]
struct Resource {
    total: u32,
    used: u32,
    price: u32,
}

/// A customer with outstanding reservations `(kind, resource id)` and a
/// running bill.
#[derive(Clone, Debug, Default)]
struct Customer {
    reservations: Vec<(u8, u64)>,
    bill: u64,
}

/// The vacation benchmark.
pub(crate) struct Vacation;

struct Tables {
    resources: [TMap<Resource>; 3], // cars, flights, rooms
    customers: TMap<Customer>,
}

fn setup(p: &Params, seed: u64) -> Tables {
    let tables = Tables {
        resources: [TMap::new(), TMap::new(), TMap::new()],
        customers: TMap::new(),
    };
    // Populate sequentially through a throwaway STM instance.
    let stm = Stm::new(gstm_tl2::StmConfig::default());
    let mut ctx = stm.register_as(gstm_core::ThreadId(u16::MAX));
    for kind in 0..3usize {
        for i in 0..p.relations {
            let r = mix64(seed ^ ((kind as u64) << 40) ^ i);
            let res = Resource {
                total: (r % 4 + 1) as u32,
                used: 0,
                price: (mix64(r) % 500 + 50) as u32,
            };
            ctx.atomically(TxnId(100), |tx| tables.resources[kind].insert(tx, i, res.clone()));
        }
    }
    for c in 0..p.customers {
        ctx.atomically(TxnId(100), |tx| {
            tables.customers.insert(tx, c, Customer::default())
        });
    }
    tables
}

impl Benchmark for Vacation {
    fn name(&self) -> &'static str {
        "vacation"
    }

    fn num_txn_sites(&self) -> u16 {
        3
    }

    fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> BenchResult {
        let p = params(cfg.size);
        let tables = Arc::new(setup(&p, cfg.seed));

        run_workers(stm, cfg, |t, ctx| {
            let mut checksum = 0u64;
            let mut r = mix64(cfg.seed ^ thread_salt(t));
            for task in 0..p.tasks_per_thread {
                r = mix64(r ^ task as u64);
                let action = r % 100;
                if action < 80 {
                    // Make reservation.
                    let customer = mix64(r >> 3) % p.customers;
                    let queries: Vec<(usize, u64)> = (0..p.queries_per_task)
                        .map(|q| {
                            let rr = mix64(r ^ (q as u64) << 17);
                            ((rr % 3) as usize, mix64(rr) % p.relations)
                        })
                        .collect();
                    let booked = ctx.atomically(TXN_RESERVE, |tx| {
                        // Cheapest available item per kind among the queried.
                        let mut best: [Option<(u64, u32)>; 3] = [None, None, None];
                        for &(kind, id) in &queries {
                            if let Some(res) = tables.resources[kind].get(tx, id)? {
                                if res.used < res.total {
                                    let better = match best[kind] {
                                        Some((_, price)) => res.price < price,
                                        None => true,
                                    };
                                    if better {
                                        best[kind] = Some((id, res.price));
                                    }
                                }
                            }
                        }
                        let mut booked = 0u64;
                        if tables.customers.contains(tx, customer)? {
                            for (kind, slot) in best.iter().enumerate() {
                                if let Some((id, price)) = *slot {
                                    tables.resources[kind].update(tx, id, |mut res| {
                                        res.used += 1;
                                        res
                                    })?;
                                    tables.customers.update(tx, customer, |mut c| {
                                        c.reservations.push((kind as u8, id));
                                        c.bill += price as u64;
                                        c
                                    })?;
                                    booked += 1;
                                }
                            }
                        }
                        Ok(booked)
                    });
                    checksum = checksum.wrapping_add(booked);
                } else if action < 90 {
                    // Delete customer: release reservations.
                    let customer = mix64(r >> 5) % p.customers;
                    let released = ctx.atomically(TXN_DELETE_CUSTOMER, |tx| {
                        match tables.customers.remove(tx, customer)? {
                            Some(c) => {
                                for &(kind, id) in &c.reservations {
                                    tables.resources[kind as usize].update(tx, id, |mut res| {
                                        res.used = res.used.saturating_sub(1);
                                        res
                                    })?;
                                }
                                // Re-create the customer fresh (the original
                                // recycles ids).
                                tables
                                    .customers
                                    .insert(tx, customer, Customer::default())?;
                                Ok(c.reservations.len() as u64)
                            }
                            None => Ok(0),
                        }
                    });
                    checksum = checksum.wrapping_add(released);
                } else {
                    // Update tables: reprice or resize random items.
                    let kind = (mix64(r >> 7) % 3) as usize;
                    let id = mix64(r >> 9) % p.relations;
                    ctx.atomically(TXN_UPDATE_TABLES, |tx| {
                        tables.resources[kind].update(tx, id, |mut res| {
                            res.price = (mix64(res.price as u64 ^ r) % 500 + 50) as u32;
                            res
                        })
                    });
                    checksum = checksum.wrapping_add(1);
                }
            }
            checksum
        })
    }
}

/// Per-thread seed salt so client streams are decorrelated.
fn thread_salt(t: u16) -> u64 {
    0x7aca_7107 ^ ((t as u64) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_tl2::StmConfig;

    fn run(threads: u16, yield_k: Option<u32>) -> BenchResult {
        let config = match yield_k {
            Some(k) => StmConfig::with_yield_injection(k),
            None => StmConfig::default(),
        };
        let stm = Stm::new(config);
        let cfg = RunConfig {
            threads,
            size: InputSize::Small,
            seed: 11,
        };
        Vacation.run(&stm, &cfg)
    }

    #[test]
    fn single_thread_completes_all_tasks() {
        let r = run(1, None);
        let p = params(InputSize::Small);
        assert_eq!(r.merged_stats().commits, p.tasks_per_thread as u64);
        assert!(r.checksum > 0, "some bookings must happen");
    }

    #[test]
    fn resource_accounting_never_oversubscribes() {
        // Run concurrently, then audit: used <= total for every resource
        // and every used seat corresponds to a customer reservation.
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let cfg = RunConfig {
            threads: 4,
            size: InputSize::Small,
            seed: 11,
        };
        let p = params(InputSize::Small);
        let tables = Arc::new(setup(&p, cfg.seed));
        let tables2 = Arc::clone(&tables);
        // Inline a small version of the kernel against our own tables so we
        // can audit them afterwards.
        crate::run_workers(&stm, &cfg, |t, ctx| {
            let mut r = mix64(t as u64 + 1);
            for _ in 0..150 {
                r = mix64(r);
                let customer = r % p.customers;
                let kind = (r >> 8) as usize % 3;
                let id = mix64(r) % p.relations;
                ctx.atomically(TXN_RESERVE, |tx| {
                    if let Some(res) = tables2.resources[kind].get(tx, id)? {
                        if res.used < res.total && tables2.customers.contains(tx, customer)? {
                            tables2.resources[kind].update(tx, id, |mut x| {
                                x.used += 1;
                                x
                            })?;
                            tables2.customers.update(tx, customer, |mut c| {
                                c.reservations.push((kind as u8, id));
                                c.bill += res.price as u64;
                                c
                            })?;
                        }
                    }
                    Ok(())
                });
            }
            0
        });
        // Audit with a fresh context.
        let mut ctx = stm.register_as(gstm_core::ThreadId(99));
        let (resources, customers) = ctx.atomically(TxnId(50), |tx| {
            let mut snaps = Vec::new();
            for k in 0..3 {
                snaps.push(tables.resources[k].snapshot(tx)?);
            }
            let c = tables.customers.snapshot(tx)?;
            Ok((snaps, c))
        });
        let mut reserved_per_item: std::collections::HashMap<(u8, u64), u32> = Default::default();
        for (_, c) in &customers {
            for &(kind, id) in &c.reservations {
                *reserved_per_item.entry((kind, id)).or_insert(0) += 1;
            }
        }
        for (kind, snap) in resources.iter().enumerate() {
            for &(id, ref res) in snap {
                assert!(res.used <= res.total, "oversubscribed {kind}/{id}");
                let held = reserved_per_item
                    .get(&(kind as u8, id))
                    .copied()
                    .unwrap_or(0);
                assert_eq!(res.used, held, "ledger mismatch on {kind}/{id}");
            }
        }
    }

    #[test]
    fn concurrent_full_kernel_is_consistent() {
        let r = run(4, Some(2));
        let p = params(InputSize::Small);
        assert_eq!(
            r.merged_stats().commits,
            4 * p.tasks_per_thread as u64,
            "every task commits exactly once"
        );
    }
}
