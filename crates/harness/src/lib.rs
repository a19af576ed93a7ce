//! # gstm-harness — experiment harness for the paper's evaluation
//!
//! This crate is the Rust equivalent of the paper artifact's `exec.sh`:
//! it orchestrates the profile → model → analyze → guided/default
//! pipeline over the STAMP suite ([`experiment`]) and the SynQuake game
//! ([`game`]), and renders every table and figure of the paper
//! ([`tables`], [`figures`]). The `gstm-repro` binary exposes one
//! subcommand per table/figure; see `gstm-repro help`.

#![forbid(unsafe_code)]

pub mod experiment;
pub mod figures;
pub mod game;
pub mod report;
pub mod tables;

pub use experiment::{run_experiment, BenchExperiment, ExperimentConfig, ModeMeasurement};
pub use game::{run_game_experiment, GameExperiment, GameExperimentConfig};
