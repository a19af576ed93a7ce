//! # gstm-libtm — a LibTM-style object STM
//!
//! Reproduction of the STM the SynQuake experiments run on. The original
//! LibTM (Lupei et al., PPoPP'10) is closed source; the paper describes
//! its design surface precisely, which is what this crate implements:
//!
//! * **object-granularity** consistency (per-object locks and versions,
//!   eliminating false sharing),
//! * **fully-optimistic conflict detection**: reads proceed without locks
//!   and are version-validated, write locks are taken at commit,
//! * **abort-readers resolution**: a committing writer dooms the other
//!   transactions registered as visible readers of each object it writes.
//!
//! That is the configuration the paper's SynQuake experiments use, and
//! the only one implemented. LibTM's other detection modes (pessimistic
//! reads and/or encounter-time write locks) and its wait-for-readers
//! policy were implemented once and removed: no workload ran them.
//!
//! Like `gstm-tl2`, this crate keeps only the protocol: [`LibTmProtocol`]
//! is a [`gstm_core::Backend`] whose begin step clears a stale doom, and
//! [`LibTm`], [`LibTmBuilder`] and [`LtThreadCtx`] are gstm-core's generic
//! runtime, builder and thread context over it. Every transaction
//! reports begin/abort/commit to a [`gstm_core::GuidanceHook`] through
//! that one runtime, so profiling and model-guided execution work
//! identically on both STMs.
//!
//! ## Example
//!
//! ```
//! use gstm_libtm::{LibTm, LibTmConfig, TObject};
//! use gstm_core::TxnId;
//!
//! let tm = LibTm::new(LibTmConfig::default());
//! let hp = TObject::new(100i32);
//! let mut ctx = tm.register();
//! ctx.atomically(TxnId(0), |tx| tx.modify(&hp, |h| h - 25));
//! assert_eq!(hp.load_quiesced(), 75);
//! ```

#![forbid(unsafe_code)]

mod object;
pub(crate) mod runtime;
pub(crate) mod txn;

pub use object::TObject;
pub use runtime::{LibTm, LibTmBuilder, LibTmConfig, LtThreadCtx};
pub use txn::{LibTmProtocol, LtTxn};
