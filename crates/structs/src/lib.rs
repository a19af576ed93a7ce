//! # gstm-structs — transactional data structures over gstm-tl2
//!
//! Rust ports of the TM-aware containers the STAMP benchmarks are built
//! from (the C suite ships `list.c`, `rbtree.c`, `hashtable.c`, `queue.c`
//! with `TM_*` accessors). Every operation takes a
//! `&mut Txn` and composes inside a single atomic region; conflict
//! detection falls out of the underlying [`gstm_tl2::TVar`] protocol.
//!
//! * [`TList`] — sorted singly-linked list with set/map semantics.
//! * [`TMap`] — unbalanced binary search tree (STAMP's red-black tree
//!   stand-in; keys in these workloads are uniformly random, so expected
//!   depth is O(log n) without rotations — and fewer rotations means the
//!   conflict footprint matches the workload, not the balancing scheme).
//! * [`THashMap`] — fixed-bucket chained hash table.
//! * [`TQueue`] — FIFO queue.
//!
//! Each container offers only the operations the ported workloads call;
//! ports of STAMP's `vector.c` and `bitmap.c` were removed because no
//! workload used them.
//!
//! ## Example
//!
//! ```
//! use gstm_structs::{TMap, TQueue};
//! use gstm_tl2::{Stm, StmConfig};
//! use gstm_core::TxnId;
//!
//! let stm = Stm::new(StmConfig::default());
//! let inventory: TMap<u32> = TMap::new();
//! let orders: TQueue<u64> = TQueue::new();
//! let mut ctx = stm.register();
//! // One atomic region spanning two containers.
//! ctx.atomically(TxnId(0), |tx| {
//!     inventory.insert(tx, 42, 10)?;
//!     inventory.update(tx, 42, |stock| stock - 1)?;
//!     orders.push(tx, 42)
//! });
//! let (stock, next) = ctx.atomically(TxnId(1), |tx| {
//!     Ok((inventory.get(tx, 42)?, orders.pop(tx)?))
//! });
//! assert_eq!(stock, Some(9));
//! assert_eq!(next, Some(42));
//! ```

#![forbid(unsafe_code)]

pub mod hashmap;
pub mod list;
pub mod map;
pub mod queue;

pub use hashmap::THashMap;
pub use list::TList;
pub use map::TMap;
pub use queue::TQueue;
