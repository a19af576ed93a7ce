//! # gstm-tl2 — a TL2-style software transactional memory
//!
//! A Rust implementation of Transactional Locking II (Dice, Shalev, Shavit
//! — DISC'06), the STM the paper's STAMP experiments run on:
//!
//! * **Version clock** (`clock::GlobalClock`): committers advance it;
//!   every transaction samples it at begin into its read version `rv`.
//! * **Commit-time locking, write-back**: writes are buffered in the
//!   transaction's write set; at commit the write locations are locked,
//!   the read set is validated against `rv`, and the buffered values are
//!   published with the new write version `wv`.
//! * **Invisible readers, lazy conflict detection**: a read samples the
//!   location's versioned lock before and after reading; a version newer
//!   than `rv` (or a held lock) aborts the transaction.
//!
//! Transactional locations are object-granularity [`TVar<T>`]s. Each value
//! sits behind a reader-writer lock held only for the clone (read) or the
//! swap (commit write-back), the scheme LibTM's objects use. That is what
//! makes the racy read window of TL2 expressible in safe terms: a reader
//! that loses the version race clones a stale-but-intact value and then
//! aborts.
//!
//! This crate keeps only the protocol: [`Tl2`] is a [`gstm_core::Backend`]
//! whose begin step samples the clock, and [`Stm`], [`StmBuilder`] and
//! [`ThreadCtx`] are gstm-core's generic runtime, builder and thread
//! context over it. That runtime reports every begin/abort/commit to a
//! [`gstm_core::GuidanceHook`], which is how profiled and guided execution
//! (the paper's contribution) plug in without touching the STM's core.
//!
//! ## Example
//!
//! ```
//! use gstm_tl2::{Stm, StmConfig, TVar};
//! use gstm_core::TxnId;
//! use std::sync::Arc;
//!
//! let stm = Stm::new(StmConfig::default());
//! let acct = TVar::new(100i64);
//! let mut ctx = stm.register();
//! let seen = ctx.atomically(TxnId(0), |tx| {
//!     let v = tx.read(&acct)?;
//!     tx.write(&acct, v - 30)?;
//!     Ok(v)
//! });
//! assert_eq!(seen, 100);
//! assert_eq!(acct.load_quiesced(), 70);
//! ```

#![forbid(unsafe_code)]

mod clock;
mod runtime;
mod tvar;
mod txn;
mod vlock;

pub use gstm_core::{ThreadStats, TxResult};
pub use runtime::{Detection, Stm, StmBuilder, StmConfig, ThreadCtx};
pub use tvar::TVar;
pub use txn::{Tl2, Txn};
