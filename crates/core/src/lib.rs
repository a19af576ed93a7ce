//! # gstm-core — model-driven commit optimization for STM
//!
//! This crate implements the primary contribution of *"Quantifying and
//! Reducing Execution Variance in STM via Model Driven Commit Optimization"*
//! (Mururu, Gavrilovska, Pande — PPoPP 2018): a pipeline that
//!
//! 1. **profiles** an STM application into a *transaction sequence* of
//!    [`StateKey`] tuples (*Thread Transactional States*, TSS),
//! 2. builds a probabilistic **Thread State Automaton** ([`Tsa`]),
//! 3. **analyzes** the automaton's bias with the *guidance metric*
//!    ([`analyzer`]), and
//! 4. **guides** subsequent executions by holding back transactions that
//!    would lead to low-probability states ([`guidance::GuidedHook`]).
//!
//! The crate is STM-agnostic: an STM integrates by invoking a
//! [`guidance::GuidanceHook`] at transaction begin, abort, and commit.
//! Both `gstm-tl2` and `gstm-libtm` do exactly that, through one shared
//! runtime ([`Runtime`], [`Context`]) over their [`Backend`] impls and one
//! retry driver ([`Instruments::run`]).
//!
//! ## Quick tour
//!
//! ```
//! use gstm_core::prelude::*;
//! use std::sync::Arc;
//!
//! // A profiled run is a sequence of thread transactional states.
//! let run = vec![
//!     StateKey::solo(Pair::new(TxnId(0), ThreadId(1))),
//!     StateKey::new(
//!         vec![Pair::new(TxnId(0), ThreadId(2))],
//!         Pair::new(TxnId(0), ThreadId(1)),
//!     ),
//! ];
//! let tsa = Tsa::from_runs(&[run]);
//! assert_eq!(tsa.num_states(), 2);
//!
//! // Derive the guided model (destination sets thresholded by Tfactor).
//! let model = Arc::new(GuidedModel::build(tsa, &GuidanceConfig::default()));
//! let report = gstm_core::analyzer::analyze(&model);
//! assert!(report.guidance_metric_pct <= 100.0);
//! ```

#![deny(unsafe_code)]

pub(crate) mod adapt;
pub mod analyzer;
pub mod backend;
pub mod breaker;
pub mod config;
pub mod contention;
pub mod drift;
pub mod events;
pub(crate) mod fastset;
pub mod faultinject;
pub mod guidance;
pub mod ids;
pub mod instruments;
pub mod json;
pub(crate) mod location;
pub mod mck;
pub mod metrics;
pub mod model_io;
pub mod ops;
pub mod prom;
pub mod rng;
pub(crate) mod stats;
pub mod sync;
pub mod telemetry;
pub mod tsa;
pub mod tss;

/// Convenient re-exports of the types used by nearly every integration.
pub mod prelude {
    pub use crate::adapt::AdaptConfig;
    pub use crate::analyzer::AnalyzerReport;
    pub use crate::backend::{Backend, Builder, Context, Runtime};
    pub use crate::breaker::{Breaker, BreakerCause, BreakerConfig, BreakerState};
    pub use crate::config::GuidanceConfig;
    pub use crate::contention::{ContentionStats, ContentionTracker};
    pub use crate::drift::{DriftTracker, DriftVerdict};
    pub use crate::events::{Abort, AbortCause, TxResult};
    pub use crate::fastset::AddrSet;
    pub use crate::faultinject::{FaultPlan, FaultSite};
    pub use crate::guidance::{GateStats, GuidanceHook, GuidedHook, NoopHook, RecorderHook};
    pub use crate::ids::{Pair, ThreadId, TxnId};
    pub use crate::instruments::{Attempt, Instruments};
    pub use crate::location::{commit_lock, AnyLocation, Location, WriteSet};
    pub use crate::metrics::AbortHistogram;
    pub use crate::ops::{OpsPlane, SloSpec};
    pub use crate::stats::ThreadStats;
    pub use crate::telemetry::{Telemetry, TraceKind};
    pub use crate::tsa::{GuidedModel, StateId, Tsa};
    pub use crate::tss::StateKey;
}

pub use prelude::*;
