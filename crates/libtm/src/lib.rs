//! # gstm-libtm — a LibTM-style object STM
//!
//! Reproduction of the STM the SynQuake experiments run on. The original
//! LibTM (Lupei et al., PPoPP'10) is closed source; the paper describes
//! its design surface precisely, which is what this crate implements:
//!
//! * **object-granularity** consistency (per-object locks and versions,
//!   eliminating false sharing),
//! * **four conflict-detection modes** ranging from fully pessimistic
//!   (read and write locks acquired before access) to fully optimistic
//!   (reads proceed without locks, write locks taken at commit),
//! * **two conflict-resolution policies** — *wait-for-readers* and
//!   *abort-readers* — applied by committing writers against the visible
//!   reader registry of each object.
//!
//! The paper's experiments (and ours) use **fully-optimistic detection
//! with abort-readers resolution**.
//!
//! Like `gstm-tl2`, every transaction reports begin/abort/commit to a
//! [`gstm_core::GuidanceHook`], so profiling and model-guided execution
//! work identically on both STMs.
//!
//! ## Example
//!
//! ```
//! use gstm_libtm::{LibTm, LibTmConfig, TObject};
//! use gstm_core::TxnId;
//!
//! let tm = LibTm::new(LibTmConfig::default()); // fully-optimistic + abort-readers
//! let hp = TObject::new(100i32);
//! let mut ctx = tm.register();
//! ctx.atomically(TxnId(0), |tx| tx.modify(&hp, |h| h - 25));
//! assert_eq!(hp.load_quiesced(), 75);
//! ```

#![forbid(unsafe_code)]

pub mod object;
pub mod runtime;
pub mod txn;

pub use object::TObject;
pub use runtime::{DetectionMode, LibTm, LibTmConfig, LtThreadCtx, Resolution};
pub use txn::LtTxn;
