//! The wire protocol: length-prefixed frames with a resynchronizing
//! decoder.
//!
//! A frame is a 6-byte header followed by a payload:
//!
//! ```text
//! +------+------+------+----------+-----------+---------\
//! | 0xA5 | 0x7E | type | priority | len (LE16)| payload  \
//! +------+------+------+----------+-----------+---------/
//! ```
//!
//! The two magic bytes exist for the decoder's benefit: after garbage
//! (a malformed-frame fault, a buggy client, a mid-frame disconnect
//! splice) it scans forward to the next magic and resumes, counting one
//! *desync* per scan. A session that desyncs more than `MAX_DESYNCS`
//! times is judged hostile or hopeless and disconnected. The decoder
//! never panics on any byte sequence — the seeded fuzz tests below hold
//! it to that.

/// First magic byte.
pub(crate) const MAGIC0: u8 = 0xA5;
/// Second magic byte.
const MAGIC1: u8 = 0x7E;
/// Header length: magic (2) + type (1) + priority (1) + len (2, LE).
const HEADER_LEN: usize = 6;
/// Hard cap on a frame payload; a longer length field is treated as
/// garbage (desync), not an allocation request.
const MAX_PAYLOAD: usize = 512;
/// Desyncs tolerated per session before the decoder turns fatal.
const MAX_DESYNCS: u32 = 8;
/// Cap on buffered undecoded bytes per session; beyond this the peer is
/// not speaking the protocol and the decoder turns fatal.
const MAX_BUFFER: usize = 8 * 1024;

/// Frame types. Client→server types are `0x0_`, server→client `0x8_`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameType {
    /// C→S: open a session.
    Hello = 0x01,
    /// C→S: one player action (payload: op, a, b — see [`Frame::action`]).
    Action = 0x02,
    /// C→S: RTT probe; payload echoed back in a `Pong`.
    Ping = 0x03,
    /// C→S: polite close; server answers `Goodbye` and drops the session.
    Bye = 0x04,
    /// S→C: session accepted (payload: assigned player id, LE16).
    Welcome = 0x81,
    /// S→C: per-tick world report (payload starts with the ladder rung).
    TickReport = 0x82,
    /// S→C: `Ping` echo.
    Pong = 0x83,
    /// S→C: admission control rejected the session or action
    /// (payload: suggested backoff in ticks, LE16).
    Overloaded = 0x84,
    /// S→C: orderly close (payload: reason code).
    Goodbye = 0x85,
}

impl FrameType {
    /// Decode a type byte.
    fn from_code(code: u8) -> Option<FrameType> {
        Some(match code {
            0x01 => FrameType::Hello,
            0x02 => FrameType::Action,
            0x03 => FrameType::Ping,
            0x04 => FrameType::Bye,
            0x81 => FrameType::Welcome,
            0x82 => FrameType::TickReport,
            0x83 => FrameType::Pong,
            0x84 => FrameType::Overloaded,
            0x85 => FrameType::Goodbye,
            _ => return None,
        })
    }

    /// The wire byte.
    pub(crate) fn code(self) -> u8 {
        self as u8
    }
}

/// Action opcodes inside an `Action` payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionOp {
    /// Move to absolute `(a, b)` (clamped to the map by the engine).
    Move = 0,
    /// Attack a cell-mate; `a` seeds the victim pick.
    Attack = 1,
    /// Pick up an item in the current cell.
    Pickup = 2,
}

impl ActionOp {
    /// Decode an opcode byte.
    fn from_code(code: u8) -> Option<ActionOp> {
        Some(match code {
            0 => ActionOp::Move,
            1 => ActionOp::Attack,
            2 => ActionOp::Pickup,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Frame type.
    pub kind: FrameType,
    /// Priority, 0 (droppable) … 255 (critical). Admission control
    /// sheds the lowest priorities first.
    pub(crate) priority: u8,
    /// Payload bytes (≤ `MAX_PAYLOAD`).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with an explicit payload (truncated to [`MAX_PAYLOAD`]).
    pub(crate) fn new(kind: FrameType, priority: u8, mut payload: Vec<u8>) -> Frame {
        payload.truncate(MAX_PAYLOAD);
        Frame { kind, priority, payload }
    }

    /// C→S session open.
    pub fn hello() -> Frame {
        Frame::new(FrameType::Hello, 255, Vec::new())
    }

    /// C→S action: `op` with two 16-bit arguments.
    pub fn action(op: ActionOp, priority: u8, a: u16, b: u16) -> Frame {
        let mut p = Vec::with_capacity(5);
        p.push(op as u8);
        p.extend_from_slice(&a.to_le_bytes());
        p.extend_from_slice(&b.to_le_bytes());
        Frame::new(FrameType::Action, priority, p)
    }

    /// Parse an `Action` payload back into `(op, a, b)`.
    pub(crate) fn parse_action(payload: &[u8]) -> Option<(ActionOp, u16, u16)> {
        if payload.len() < 5 {
            return None;
        }
        let op = ActionOp::from_code(payload[0])?;
        let a = u16::from_le_bytes([payload[1], payload[2]]);
        let b = u16::from_le_bytes([payload[3], payload[4]]);
        Some((op, a, b))
    }

    /// C→S RTT probe carrying an opaque token.
    pub fn ping(token: u64) -> Frame {
        Frame::new(FrameType::Ping, 200, token.to_le_bytes().to_vec())
    }

    /// C→S polite close.
    pub fn bye() -> Frame {
        Frame::new(FrameType::Bye, 255, Vec::new())
    }

    /// S→C session accepted, carrying the assigned player id.
    pub(crate) fn welcome(player: u16) -> Frame {
        Frame::new(FrameType::Welcome, 255, player.to_le_bytes().to_vec())
    }

    /// S→C rejection with a suggested backoff (ticks).
    pub(crate) fn overloaded(backoff_ticks: u16) -> Frame {
        Frame::new(FrameType::Overloaded, 255, backoff_ticks.to_le_bytes().to_vec())
    }

    /// S→C orderly close.
    pub(crate) fn goodbye(reason: u8) -> Frame {
        Frame::new(FrameType::Goodbye, 255, vec![reason])
    }

    /// S→C `Ping` echo.
    pub(crate) fn pong(token_payload: &[u8]) -> Frame {
        Frame::new(FrameType::Pong, 200, token_payload.to_vec())
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let len = self.payload.len().min(MAX_PAYLOAD) as u16;
        let mut out = Vec::with_capacity(HEADER_LEN + len as usize);
        out.push(MAGIC0);
        out.push(MAGIC1);
        out.push(self.kind.code());
        out.push(self.priority);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.payload[..len as usize]);
        out
    }
}

/// One step of the incremental decoder.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeStep {
    /// A complete frame.
    Frame(Frame),
    /// The buffer holds no complete frame — feed more bytes.
    NeedMore,
    /// The stream is beyond saving (desync budget exhausted or the peer
    /// floods undecodable bytes); disconnect the session.
    Fatal(&'static str),
}

/// Incremental, resynchronizing frame decoder. One per session.
///
/// Invariants the fuzz tests enforce: `push`+`next_step` never panic on any
/// input, a `Fatal` verdict is sticky, and after arbitrary garbage a
/// well-formed frame is either decoded or the session is cleanly
/// fatal — never silently stuck.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    desyncs: u32,
    dead: Option<&'static str>,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.dead.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Desyncs survived so far.
    pub(crate) fn desyncs(&self) -> u32 {
        self.desyncs
    }

    /// Drop `n` buffered bytes as garbage, counting one desync and
    /// turning fatal past the budget.
    fn desync(&mut self, n: usize) -> DecodeStep {
        self.buf.drain(..n.min(self.buf.len()));
        self.desyncs += 1;
        if self.desyncs > MAX_DESYNCS {
            self.dead = Some("desync budget exhausted");
            self.buf.clear();
            return DecodeStep::Fatal("desync budget exhausted");
        }
        // Tail-call into the (now shorter) buffer.
        self.next_step()
    }

    /// Pull the next complete frame, resynchronizing past garbage.
    pub fn next_step(&mut self) -> DecodeStep {
        if let Some(why) = self.dead {
            return DecodeStep::Fatal(why);
        }
        // Scan to the next plausible frame start.
        if !self.buf.is_empty() && self.buf[0] != MAGIC0 {
            let skip = self
                .buf
                .iter()
                .position(|&b| b == MAGIC0)
                .unwrap_or(self.buf.len());
            return self.desync(skip);
        }
        if self.buf.len() < HEADER_LEN {
            if self.buf.len() >= 2 && self.buf[1] != MAGIC1 {
                return self.desync(1);
            }
            return DecodeStep::NeedMore;
        }
        if self.buf[1] != MAGIC1 {
            return self.desync(1);
        }
        let kind = FrameType::from_code(self.buf[2]);
        let len = u16::from_le_bytes([self.buf[4], self.buf[5]]) as usize;
        let (Some(kind), true) = (kind, len <= MAX_PAYLOAD) else {
            // Unknown type or absurd length: this was not a real header.
            return self.desync(1);
        };
        if self.buf.len() < HEADER_LEN + len {
            if self.buf.len() > MAX_BUFFER {
                self.dead = Some("buffer cap exceeded");
                self.buf.clear();
                return DecodeStep::Fatal("buffer cap exceeded");
            }
            return DecodeStep::NeedMore;
        }
        let priority = self.buf[3];
        let payload = self.buf[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.buf.drain(..HEADER_LEN + len);
        DecodeStep::Frame(Frame { kind, priority, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::rng::SplitMix64;

    fn decode_all(dec: &mut FrameDecoder) -> (Vec<Frame>, Option<&'static str>) {
        let mut out = Vec::new();
        loop {
            match dec.next_step() {
                DecodeStep::Frame(f) => out.push(f),
                DecodeStep::NeedMore => return (out, None),
                DecodeStep::Fatal(why) => return (out, Some(why)),
            }
        }
    }

    #[test]
    fn roundtrip_every_frame_type() {
        let frames = vec![
            Frame::hello(),
            Frame::action(ActionOp::Move, 3, 120, 77),
            Frame::ping(0xdead_beef),
            Frame::bye(),
            Frame::welcome(42),
            Frame::overloaded(16),
            Frame::goodbye(1),
            Frame::pong(&7u64.to_le_bytes()),
        ];
        let mut dec = FrameDecoder::new();
        for f in &frames {
            dec.push(&f.encode());
        }
        let (got, fatal) = decode_all(&mut dec);
        assert_eq!(fatal, None);
        assert_eq!(got, frames);
        assert_eq!(dec.desyncs(), 0);
    }

    #[test]
    fn action_payload_roundtrips() {
        let f = Frame::action(ActionOp::Attack, 9, 500, 65535);
        let (op, a, b) = Frame::parse_action(&f.payload).unwrap();
        assert_eq!((op, a, b), (ActionOp::Attack, 500, 65535));
        assert_eq!(Frame::parse_action(&[1, 2]), None, "short payload is None, not a panic");
    }

    #[test]
    fn resyncs_after_leading_garbage() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0x00, 0x13, 0x37]);
        dec.push(&Frame::welcome(7).encode());
        let (got, fatal) = decode_all(&mut dec);
        assert_eq!(fatal, None);
        assert_eq!(got, vec![Frame::welcome(7)]);
        assert!(dec.desyncs() >= 1);
    }

    #[test]
    fn split_delivery_reassembles() {
        let wire = Frame::action(ActionOp::Move, 1, 9, 9).encode();
        let mut dec = FrameDecoder::new();
        for b in &wire[..wire.len() - 1] {
            dec.push(&[*b]);
            assert_eq!(dec.next_step(), DecodeStep::NeedMore);
        }
        dec.push(&[wire[wire.len() - 1]]);
        assert!(matches!(dec.next_step(), DecodeStep::Frame(_)));
    }

    #[test]
    fn oversized_length_is_desync_not_allocation() {
        let mut dec = FrameDecoder::new();
        let mut evil = vec![MAGIC0, MAGIC1, 0x02, 0, 0xff, 0xff];
        evil.extend_from_slice(&Frame::hello().encode());
        dec.push(&evil);
        let (got, fatal) = decode_all(&mut dec);
        assert_eq!(fatal, None);
        assert_eq!(got, vec![Frame::hello()]);
        assert!(dec.desyncs() >= 1);
    }

    #[test]
    fn persistent_garbage_turns_fatal() {
        let mut dec = FrameDecoder::new();
        for _ in 0..=MAX_DESYNCS {
            dec.push(&[MAGIC0, 0x00]);
        }
        let (_, fatal) = decode_all(&mut dec);
        assert!(fatal.is_some(), "desync budget must be finite");
        // Sticky: later perfect frames are refused.
        dec.push(&Frame::hello().encode());
        assert!(matches!(dec.next_step(), DecodeStep::Fatal(_)));
    }

    #[test]
    fn fuzz_decoder_never_panics_and_always_recovers_or_dies() {
        // Satellite: seeded fuzz of truncated/oversized/garbage frames.
        // For each seed: a mix of valid frames, corrupted frames, and raw
        // noise; the decoder must never panic, and afterwards must either
        // be fatal or decode a fresh well-formed frame (resynchronized).
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(0x5eed ^ seed);
            let mut dec = FrameDecoder::new();
            for _ in 0..200 {
                match rng.below(4) {
                    0 => {
                        let f = Frame::action(
                            ActionOp::Move,
                            rng.below(256) as u8,
                            rng.below(65536) as u16,
                            rng.below(65536) as u16,
                        );
                        dec.push(&f.encode());
                    }
                    1 => {
                        // Corrupted frame: flip one byte.
                        let mut wire = Frame::ping(rng.next()).encode();
                        let i = (rng.below(wire.len() as u64)) as usize;
                        wire[i] ^= 1 << rng.below(8);
                        dec.push(&wire);
                    }
                    2 => {
                        // Truncated frame.
                        let wire = Frame::welcome(rng.below(65536) as u16).encode();
                        let keep = (rng.below(wire.len() as u64)) as usize;
                        dec.push(&wire[..keep]);
                    }
                    _ => {
                        // Raw noise.
                        let n = rng.below(32) + 1;
                        let noise: Vec<u8> =
                            (0..n).map(|_| rng.below(256) as u8).collect();
                        dec.push(&noise);
                    }
                }
                // Drain whatever is decodable; must not panic.
                let (_, fatal) = decode_all(&mut dec);
                if fatal.is_some() {
                    break;
                }
            }
            // Post-condition: fatal (clean disconnect) or able to decode
            // a fresh frame once the noise stops.
            let probe = Frame::goodbye(0);
            dec.push(&probe.encode());
            let (got, fatal) = decode_all(&mut dec);
            assert!(
                fatal.is_some() || got.contains(&probe),
                "seed {seed}: decoder wedged — neither fatal nor resynchronized"
            );
        }
    }

    #[test]
    fn fuzz_decoder_is_deterministic() {
        // Same seed → same frame sequence and desync count.
        let run = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            let mut dec = FrameDecoder::new();
            let mut log = Vec::new();
            for _ in 0..300 {
                let n = rng.below(24) + 1;
                let noise: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
                dec.push(&noise);
                loop {
                    match dec.next_step() {
                        DecodeStep::Frame(f) => log.push(format!("{:?}", f.kind)),
                        DecodeStep::NeedMore => break,
                        DecodeStep::Fatal(w) => {
                            log.push(format!("fatal:{w}"));
                            break;
                        }
                    }
                }
            }
            (log, dec.desyncs())
        };
        assert_eq!(run(0xabcd), run(0xabcd));
    }
}
