//! Server counters and their ops-plane export.
//!
//! [`ServerStats`] is the one shared sink: the engine increments it,
//! the ops plane drains one [`ServerWindow`] per roll (via the
//! [`ServerSource`] impl) to annotate the closed window for SLO
//! judging, and `/metrics` scrapes gain the cumulative `gstm_server_*`
//! families.

use gstm_core::metrics::quantile;
use gstm_core::ops::{ServerSource, ServerWindow};
use gstm_core::prom::{Kind, Writer};
use gstm_core::sync::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::admission::Rung;

/// Cumulative server counters plus the current window's frame times.
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
    /// Frame times since the last window drain, ns.
    window_frame_ns: Mutex<Vec<u64>>,
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
        self.window_frame_ns.lock().push(frame_ns);
    }

    /// Record a ladder move (updates the gauge and entry counter).
    pub(crate) fn record_ladder(&self, to: Rung) {
        self.ladder.store(to.code() as u32, Ordering::Relaxed);
        self.ladder_entries[to.code() as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Ladder moves so far: the entries into every rung.
    pub fn ladder_moves(&self) -> u64 {
        self.ladder_entries
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

impl ServerSource for ServerStats {
    fn window(&self) -> ServerWindow {
        let mut frames = std::mem::take(&mut *self.window_frame_ns.lock());
        frames.sort_unstable();
        ServerWindow {
            frame_p99_ns: quantile(&frames, 0.99),
            ladder: self.ladder.load(Ordering::Relaxed) as u8,
        }
    }

    fn write_metrics(&self, w: &mut Writer) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut f = w.family("gstm_server_frames_total", Kind::Counter);
        f.sample(&[("dir", &"in")], load(&self.frames_in));
        f.sample(&[("dir", &"out")], load(&self.frames_out));
        w.counter(
            "gstm_server_frames_dropped_total",
            load(&self.frames_dropped),
        );
        let mut f = w.family("gstm_server_actions_total", Kind::Counter);
        f.sample(&[("outcome", &"executed")], load(&self.actions_executed));
        f.sample(&[("outcome", &"shed")], load(&self.actions_shed));
        let mut f = w.family("gstm_server_sessions_total", Kind::Counter);
        f.sample(&[("outcome", &"accepted")], load(&self.sessions_accepted));
        f.sample(&[("outcome", &"rejected")], load(&self.sessions_rejected));
        w.counter(
            "gstm_server_malformed_frames_total",
            load(&self.malformed_frames),
        );
        w.counter("gstm_server_disconnects_total", load(&self.disconnects));
        w.counter("gstm_server_idle_reaped_total", load(&self.idle_reaped));
        w.gauge("gstm_server_sessions", load(&self.sessions));
        w.gauge("gstm_server_ladder", self.ladder.load(Ordering::Relaxed));
        let mut f = w.family("gstm_server_ladder_entries_total", Kind::Counter);
        for rung in [
            Rung::FullTick,
            Rung::ReducedAoi,
            Rung::GuidedBypass,
            Rung::LoadShed,
        ] {
            f.sample(
                &[("rung", &rung.label())],
                load(&self.ladder_entries[rung.code() as usize]),
            );
        }
        w.counter("gstm_server_ticks_total", load(&self.ticks));
        w.counter("gstm_server_frame_ns_sum", load(&self.frame_ns_sum));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_deltas_and_gauges_are_points() {
        let s = ServerStats::new();
        s.record_ladder(Rung::GuidedBypass);
        s.record_tick(100);
        s.record_tick(900);
        let w1 = s.window();
        assert_eq!(w1.frame_p99_ns, 900);
        assert_eq!(w1.ladder, 2);
        let w2 = s.window();
        assert_eq!(w2.frame_p99_ns, 0, "frame samples drained");
        assert_eq!(w2.ladder, 2, "the rung is a point, not drained");
    }

    #[test]
    fn prometheus_exposition_has_the_core_families() {
        let s = ServerStats::new();
        s.record_ladder(Rung::ReducedAoi);
        let mut w = Writer::new();
        s.write_metrics(&mut w);
        let text = w.finish();
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
