//! The SynQuake network server.
//!
//! Promotes the in-process SynQuake workload (`gstm-synquake`) to a real
//! TCP game server so the guidance/breaker/ops stack faces traffic it
//! does not script: sessions speak a length-prefixed frame protocol
//! ([`proto`]), a per-tick cost budget drives admission control and a
//! four-rung graceful-degradation ladder ([`admission`]), and bounded
//! per-session write queues give backpressure instead of unbounded
//! buffering (`session`).
//!
//! The heart is [`engine::Engine`]: a *pure, single-threaded* state
//! machine mapping input events (connect / bytes / disconnect / tick)
//! to output effects (send / close). All socket-layer chaos — accept
//! stalls, partial reads, mid-frame disconnects, malformed frames,
//! slow-loris clients — is probed from `gstm_core::faultinject` inside
//! the engine in input order, so a given `--chaos=SEED` and input
//! script replays a bit-identical fault log and ladder trajectory. The
//! real socket loop ([`net`]) feeds the engine from non-blocking
//! sockets; the deterministic tests feed it directly.
//!
//! Operational state exports through the PR 8 ops plane: [`stats`]
//! implements `gstm_core::ops::ServerSource`, annotating every closed
//! window with the frame p99 and the ladder rung (the `frame-p99-*` and
//! `ladder` SLO rules judge them) and contributing the
//! `gstm_server_*` Prometheus families to `/metrics`.

pub mod admission;
pub mod engine;
pub mod net;
pub mod proto;
mod session;
pub mod signal;
pub mod stats;
