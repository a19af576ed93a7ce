//! Per-session state: decoder, bounded write queue, liveness.

use crate::proto::{Frame, FrameDecoder};
use std::collections::VecDeque;

/// Cap on a session's queued outbound bytes. Beyond this the session is
/// not draining (slow-loris or a dead link) and low-priority frames are
/// dropped instead of buffered without bound — the backpressure policy.
const WRITE_QUEUE_CAP: usize = 32 * 1024;

/// Priority at or above which a frame is *critical*: queued even past
/// the cap (`Welcome`/`Overloaded`/`Goodbye` use 255) so control frames
/// survive backpressure while bulk tick reports are shed.
const CRITICAL_PRIORITY: u8 = 250;

/// Ticks a session may sit without delivering a frame before the idle
/// reaper closes it.
pub(crate) const IDLE_TICKS_MAX: u64 = 1_000;

/// One connected client.
pub(crate) struct Session {
    /// Assigned player, once the `Hello` handshake completed.
    pub(crate) player: Option<u32>,
    /// Incremental frame decoder for this session's byte stream.
    pub(crate) decoder: FrameDecoder,
    /// Encoded outbound bytes not yet handed to the socket layer.
    pub(crate) outq: VecDeque<u8>,
    /// Outbound frames dropped by backpressure.
    dropped_frames: u64,
    /// Ticks since the last complete inbound frame.
    pub(crate) idle_ticks: u64,
    /// Remaining ticks this session's drain is stalled (slow-loris
    /// fault: the peer reads one byte per eon, so our queue backs up).
    pub(crate) loris_ticks: u32,
    /// Inbound bytes deferred by a partial-read fault, prepended to the
    /// next delivery.
    pub(crate) deferred_in: Vec<u8>,
    /// A `Goodbye` is queued; close once the queue drains.
    pub(crate) closing: bool,
}

impl Session {
    /// A fresh session, before its `Hello` handshake.
    pub(crate) fn new() -> Session {
        Session {
            player: None,
            decoder: FrameDecoder::new(),
            outq: VecDeque::new(),
            dropped_frames: 0,
            idle_ticks: 0,
            loris_ticks: 0,
            deferred_in: Vec::new(),
            closing: false,
        }
    }

    /// Queue a frame for delivery. Returns `false` (and counts a drop)
    /// when backpressure sheds it: queue at cap and the frame is below
    /// [`CRITICAL_PRIORITY`].
    pub(crate) fn queue_frame(&mut self, frame: &Frame) -> bool {
        if self.outq.len() >= WRITE_QUEUE_CAP && frame.priority < CRITICAL_PRIORITY {
            self.dropped_frames += 1;
            return false;
        }
        self.outq.extend(frame.encode());
        true
    }

    /// Take up to `max` queued bytes for the wire (empty while a
    /// slow-loris stall is in force).
    pub(crate) fn drain_out(&mut self, max: usize) -> Vec<u8> {
        if self.loris_ticks > 0 {
            return Vec::new();
        }
        let n = self.outq.len().min(max);
        self.outq.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FrameType;

    #[test]
    fn backpressure_sheds_bulk_but_keeps_control_frames() {
        let mut s = Session::new();
        // Fill the queue past the cap with bulk frames.
        let bulk = Frame::new(FrameType::TickReport, 10, vec![0; 500]);
        while s.outq.len() < WRITE_QUEUE_CAP {
            assert!(s.queue_frame(&bulk));
        }
        assert!(!s.queue_frame(&bulk), "bulk frame shed at cap");
        assert_eq!(s.dropped_frames, 1);
        assert!(s.queue_frame(&Frame::goodbye(0)), "critical frame still queued");
    }

    #[test]
    fn loris_stall_blocks_drain() {
        let mut s = Session::new();
        s.queue_frame(&Frame::welcome(3));
        s.loris_ticks = 2;
        assert!(s.drain_out(4096).is_empty());
        s.loris_ticks = 0;
        assert_eq!(s.drain_out(4096), Frame::welcome(3).encode());
        assert!(s.outq.is_empty());
    }
}
