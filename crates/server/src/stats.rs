//! Server counters and their ops-plane export.
//!
//! [`ServerStats`] is the one shared sink: the engine increments it,
//! the ops plane drains one [`ServerWindow`] per roll (via the
//! [`ServerSource`] impl) to annotate the closed window for SLO
//! judging, and `/metrics` scrapes gain the cumulative `gstm_server_*`
//! families.

use gstm_core::metrics::quantile;
use gstm_core::ops::{ServerSource, ServerWindow};
use gstm_core::sync::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::admission::Rung;

/// Cumulative server counters plus window bookkeeping.
#[derive(Default)]
pub struct ServerStats {
    /// Complete frames decoded from clients.
    pub(crate) frames_in: AtomicU64,
    /// Frames queued toward clients.
    pub(crate) frames_out: AtomicU64,
    /// Outbound frames shed by per-session backpressure.
    pub(crate) frames_dropped: AtomicU64,
    /// Actions executed against the world.
    pub actions_executed: AtomicU64,
    /// Actions shed by admission control.
    pub(crate) actions_shed: AtomicU64,
    /// Sessions refused with an `Overloaded` frame.
    pub(crate) sessions_rejected: AtomicU64,
    /// Sessions accepted over the server's lifetime.
    pub(crate) sessions_accepted: AtomicU64,
    /// Frames the decoder could not parse (desyncs observed).
    pub(crate) malformed_frames: AtomicU64,
    /// Sessions closed, any reason.
    pub(crate) disconnects: AtomicU64,
    /// Sessions closed by the idle reaper specifically.
    pub(crate) idle_reaped: AtomicU64,
    /// Live sessions (gauge).
    pub(crate) sessions: AtomicU64,
    /// Current ladder rung (gauge; [`Rung::code`]).
    ladder: AtomicU32,
    /// Ladder entries per rung (index = code).
    ladder_entries: [AtomicU64; 4],
    /// Ticks processed.
    ticks: AtomicU64,
    /// Σ engine frame time, ns.
    frame_ns_sum: AtomicU64,
    inner: Mutex<StatsInner>,
}

#[derive(Default)]
struct StatsInner {
    /// Frame times since the last window drain, ns.
    window_frame_ns: Vec<u64>,
    /// Cumulative counter values at the last drain (delta base).
    last: ServerWindow,
}

impl ServerStats {
    /// Fresh zeroed stats.
    pub fn new() -> ServerStats {
        ServerStats::default()
    }

    /// Record one engine tick's duration.
    pub(crate) fn record_tick(&self, frame_ns: u64) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.frame_ns_sum.fetch_add(frame_ns, Ordering::Relaxed);
        self.inner.lock().window_frame_ns.push(frame_ns);
    }

    /// Record a ladder move (updates the gauge and entry counter).
    pub(crate) fn record_ladder(&self, to: Rung) {
        self.ladder.store(to.code() as u32, Ordering::Relaxed);
        self.ladder_entries[to.code() as usize].fetch_add(1, Ordering::Relaxed);
    }
}

impl ServerSource for ServerStats {
    fn window(&self) -> ServerWindow {
        let mut inner = self.inner.lock();
        let mut frames = std::mem::take(&mut inner.window_frame_ns);
        frames.sort_unstable();
        let cur = ServerWindow {
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            actions_executed: self.actions_executed.load(Ordering::Relaxed),
            actions_shed: self.actions_shed.load(Ordering::Relaxed),
            sessions_rejected: self.sessions_rejected.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            frame_p50_ns: quantile(&frames, 0.50),
            frame_p99_ns: quantile(&frames, 0.99),
            ladder: self.ladder.load(Ordering::Relaxed) as u8,
            sessions: self.sessions.load(Ordering::Relaxed),
        };
        let out = ServerWindow {
            frames_in: cur.frames_in - inner.last.frames_in,
            frames_out: cur.frames_out - inner.last.frames_out,
            actions_executed: cur.actions_executed - inner.last.actions_executed,
            actions_shed: cur.actions_shed - inner.last.actions_shed,
            sessions_rejected: cur.sessions_rejected - inner.last.sessions_rejected,
            malformed_frames: cur.malformed_frames - inner.last.malformed_frames,
            disconnects: cur.disconnects - inner.last.disconnects,
            ..cur.clone()
        };
        inner.last = cur;
        out
    }

    fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE gstm_server_frames_total counter");
        let _ = writeln!(
            out,
            "gstm_server_frames_total{{dir=\"in\"}} {}",
            self.frames_in.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "gstm_server_frames_total{{dir=\"out\"}} {}",
            self.frames_out.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE gstm_server_frames_dropped_total counter");
        let _ = writeln!(
            out,
            "gstm_server_frames_dropped_total {}",
            self.frames_dropped.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE gstm_server_actions_total counter");
        let _ = writeln!(
            out,
            "gstm_server_actions_total{{outcome=\"executed\"}} {}",
            self.actions_executed.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "gstm_server_actions_total{{outcome=\"shed\"}} {}",
            self.actions_shed.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE gstm_server_sessions_total counter");
        let _ = writeln!(
            out,
            "gstm_server_sessions_total{{outcome=\"accepted\"}} {}",
            self.sessions_accepted.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "gstm_server_sessions_total{{outcome=\"rejected\"}} {}",
            self.sessions_rejected.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE gstm_server_malformed_frames_total counter");
        let _ = writeln!(
            out,
            "gstm_server_malformed_frames_total {}",
            self.malformed_frames.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE gstm_server_disconnects_total counter");
        let _ = writeln!(
            out,
            "gstm_server_disconnects_total {}",
            self.disconnects.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE gstm_server_idle_reaped_total counter");
        let _ = writeln!(
            out,
            "gstm_server_idle_reaped_total {}",
            self.idle_reaped.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE gstm_server_sessions gauge");
        let _ = writeln!(out, "gstm_server_sessions {}", self.sessions.load(Ordering::Relaxed));
        let _ = writeln!(out, "# TYPE gstm_server_ladder gauge");
        let _ = writeln!(out, "gstm_server_ladder {}", self.ladder.load(Ordering::Relaxed));
        let _ = writeln!(out, "# TYPE gstm_server_ladder_entries_total counter");
        for rung in [Rung::FullTick, Rung::ReducedAoi, Rung::GuidedBypass, Rung::LoadShed] {
            let _ = writeln!(
                out,
                "gstm_server_ladder_entries_total{{rung=\"{}\"}} {}",
                rung.label(),
                self.ladder_entries[rung.code() as usize].load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(out, "# TYPE gstm_server_ticks_total counter");
        let _ = writeln!(out, "gstm_server_ticks_total {}", self.ticks.load(Ordering::Relaxed));
        let _ = writeln!(out, "# TYPE gstm_server_frame_ns_sum counter");
        let _ = writeln!(
            out,
            "gstm_server_frame_ns_sum {}",
            self.frame_ns_sum.load(Ordering::Relaxed)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_deltas_and_gauges_are_points() {
        let s = ServerStats::new();
        s.frames_in.store(10, Ordering::Relaxed);
        s.sessions.store(3, Ordering::Relaxed);
        s.record_tick(100);
        s.record_tick(900);
        let w1 = s.window();
        assert_eq!(w1.frames_in, 10);
        assert_eq!(w1.sessions, 3);
        assert_eq!(w1.frame_p50_ns, 100);
        assert_eq!(w1.frame_p99_ns, 900);
        s.frames_in.store(15, Ordering::Relaxed);
        let w2 = s.window();
        assert_eq!(w2.frames_in, 5, "second window is a delta");
        assert_eq!(w2.frame_p99_ns, 0, "frame samples drained");
    }

    #[test]
    fn prometheus_exposition_has_the_core_families() {
        let s = ServerStats::new();
        s.record_ladder(Rung::ReducedAoi);
        let text = s.render_prometheus();
        for family in [
            "gstm_server_frames_total",
            "gstm_server_actions_total",
            "gstm_server_sessions_total",
            "gstm_server_malformed_frames_total",
            "gstm_server_ladder 1",
            "gstm_server_ladder_entries_total{rung=\"reduced-aoi\"} 1",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
