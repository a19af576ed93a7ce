//! The deterministic server engine.
//!
//! A pure, single-threaded state machine: the socket layer (or a test
//! script) feeds [`Event`]s — connects, byte deliveries, disconnects,
//! ticks — and the engine answers with [`Effect`]s — bytes to send,
//! sessions to close. All world mutation goes through the guided STM
//! (`LibTm` transactions on the SynQuake [`World`]), so "zero lost
//! committed updates" is checkable: executed actions equal STM commits
//! and the world audit stays clean.
//!
//! Determinism is the design constraint everything else bends around:
//!
//! - sessions live in a `BTreeMap` (stable iteration order);
//! - every socket fault site is probed *here*, in event order, from the
//!   one engine thread — so a fault schedule is a pure function of the
//!   `--chaos` seed and the input script;
//! - in deterministic mode the tick clock is synthetic
//!   (`Admission::synthetic_cost`), making the degradation-ladder
//!   trajectory itself replayable bit-for-bit (wall time never feeds
//!   back into control flow);
//! - ties inside a tick break on arrival order (`seq`), never on map or
//!   hash order.

use crate::admission::{Admission, AdmissionConfig, Rung};
use crate::proto::{ActionOp, DecodeStep, Frame, FrameType};
use crate::session::Session;
use crate::stats::ServerStats;
use gstm_core::breaker::Breaker;
use gstm_core::faultinject::{FaultPlan, FaultSite};
use gstm_core::ids::{ThreadId, TxnId};
use gstm_libtm::{LibTm, LtThreadCtx};
use gstm_synquake::World;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Bytes drained from one session's write queue per tick.
const DRAIN_PER_TICK: usize = 64 * 1024;
/// Backoff hint (ticks) inside an `Overloaded` frame.
const OVERLOAD_BACKOFF_TICKS: u16 = 32;
/// Cap on retained per-tick records (the tail is what analysis wants).
/// Reaching it drops the oldest half.
const MAX_TICK_RECORDS: usize = 200_000;

/// Goodbye reason codes.
pub(crate) mod goodbye {
    /// Orderly close (client `Bye` or server shutdown).
    pub(crate) const ORDERLY: u8 = 0;
    /// Idle reaper.
    pub(crate) const IDLE: u8 = 1;
    /// Protocol violation (decoder fatal).
    pub(crate) const PROTOCOL: u8 = 2;
}

/// Engine tunables.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// World edge length.
    pub world_size: u32,
    /// Cell edge length.
    pub cell_size: u32,
    /// Player slots (one per concurrent session).
    pub players: u32,
    /// Items scattered at startup.
    pub items: u32,
    /// World/placement seed.
    pub seed: u64,
    /// Admission/ladder tunables.
    pub admission: AdmissionConfig,
    /// Use the synthetic tick clock (replayable) instead of wall time.
    pub deterministic: bool,
    /// Real-mode tick budget in nanoseconds (maps elapsed ns onto the
    /// admission cost scale).
    pub tick_budget_ns: u64,
    /// Ticks a session may idle before the reaper closes it.
    pub idle_ticks_max: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            world_size: 256,
            cell_size: 64,
            players: 64,
            items: 128,
            seed: 0x9a3e,
            admission: AdmissionConfig::default(),
            deterministic: false,
            tick_budget_ns: 2_000_000,
            idle_ticks_max: crate::session::IDLE_TICKS_MAX,
        }
    }
}

/// One input to the engine.
#[derive(Clone, Debug)]
pub enum Event {
    /// A new connection.
    Connect {
        /// Connection id (net layer handle).
        conn: u64,
    },
    /// Bytes received on a connection.
    Data {
        /// Connection id.
        conn: u64,
        /// Received bytes.
        bytes: Vec<u8>,
    },
    /// The peer went away.
    Disconnect {
        /// Connection id.
        conn: u64,
    },
    /// One server tick.
    Tick,
}

/// One output of the engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Effect {
    /// Write these bytes to the connection.
    Send {
        /// Connection id.
        conn: u64,
        /// Encoded frame bytes.
        bytes: Vec<u8>,
    },
    /// Close the connection.
    Close {
        /// Connection id.
        conn: u64,
    },
}

/// One action waiting for the tick barrier.
struct PendingAction {
    conn: u64,
    priority: u8,
    op: ActionOp,
    a: u16,
    b: u16,
    seq: u64,
}

/// One tick's bookkeeping, exported as `ticks.jsonl` for
/// `gstm-analyze`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickRecord {
    /// Tick index (1-based).
    pub tick: u64,
    /// Tick duration: wall ns in real mode, synthetic cost units in
    /// deterministic mode.
    pub frame_ns: u64,
    /// Cost on the admission scale.
    pub cost: u64,
    /// Ladder rung after this tick.
    pub ladder: u8,
    /// Actions offered this tick.
    pub offered: u64,
    /// Actions executed.
    pub executed: u64,
    /// Actions shed.
    pub shed: u64,
    /// Live sessions after this tick.
    pub sessions: u64,
}

impl TickRecord {
    /// One JSONL line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tick\":{},\"frame_ns\":{},\"cost\":{},\"ladder\":{},\"offered\":{},\
             \"executed\":{},\"shed\":{},\"sessions\":{}}}",
            self.tick,
            self.frame_ns,
            self.cost,
            self.ladder,
            self.offered,
            self.executed,
            self.shed,
            self.sessions
        )
    }
}

/// The server state machine. See the module docs for the determinism
/// contract.
pub struct Engine {
    cfg: EngineConfig,
    world: World,
    ctx: LtThreadCtx,
    breaker: Option<Arc<Breaker>>,
    faults: Option<Arc<FaultPlan>>,
    stats: Arc<ServerStats>,
    admission: Admission,
    sessions: BTreeMap<u64, Session>,
    free_players: Vec<u32>,
    pending: Vec<PendingAction>,
    deferred_connects: VecDeque<u64>,
    accept_stall_ticks: u32,
    tick: u64,
    seq: u64,
    records: Vec<TickRecord>,
    records_dropped: u64,
    shutting_down: bool,
}

impl Engine {
    /// Build an engine over an STM instance the caller configured
    /// (hook, telemetry, faults). The engine registers itself as
    /// `ThreadId(0)`.
    pub fn new(
        cfg: EngineConfig,
        tm: Arc<LibTm>,
        breaker: Option<Arc<Breaker>>,
        faults: Option<Arc<FaultPlan>>,
        stats: Arc<ServerStats>,
    ) -> Engine {
        let mut world = World::new(cfg.world_size, cfg.cell_size, cfg.players, cfg.seed);
        world.spawn_items(cfg.items, cfg.seed ^ 0x17e5);
        let ctx = tm.register_as(ThreadId(0));
        Engine {
            admission: Admission::new(cfg.admission),
            free_players: (0..cfg.players).rev().collect(),
            cfg,
            world,
            ctx,
            breaker,
            faults,
            stats,
            sessions: BTreeMap::new(),
            pending: Vec::new(),
            deferred_connects: VecDeque::new(),
            accept_stall_ticks: 0,
            tick: 0,
            seq: 0,
            records: Vec::new(),
            records_dropped: 0,
            shutting_down: false,
        }
    }

    /// The game world (tests audit it).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// STM commits so far (zero-lost-updates accounting): the engine's
    /// own thread context is the only one registered on its `LibTm`.
    pub fn commits(&self) -> u64 {
        self.ctx.stats().commits
    }

    /// Ticks processed.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Current ladder rung.
    pub fn rung(&self) -> Rung {
        self.admission.rung()
    }

    /// Ladder transitions so far.
    pub fn ladder_transitions(&self) -> &[(u64, Rung, Rung)] {
        self.admission.transitions()
    }

    /// Retained per-tick records (the oldest half dropped at the cap).
    pub fn records(&self) -> &[TickRecord] {
        &self.records
    }

    /// The per-tick ladder trajectory (replay comparisons).
    pub fn ladder_trajectory(&self) -> Vec<u8> {
        self.records.iter().map(|r| r.ladder).collect()
    }

    /// Serialize the retained tick records as JSONL.
    pub fn write_ticks_jsonl(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        if self.records_dropped > 0 {
            writeln!(w, "{{\"truncated_ticks\":{}}}", self.records_dropped)?;
        }
        for r in &self.records {
            writeln!(w, "{}", r.to_json())?;
        }
        Ok(())
    }

    fn probe(&self, site: FaultSite) -> Option<gstm_core::faultinject::InjectedFault> {
        self.faults.as_ref()?.should_fire(site, 0)
    }

    /// Feed one event; returns the effects it produced.
    pub fn handle(&mut self, ev: Event) -> Vec<Effect> {
        match ev {
            Event::Connect { conn } => self.on_connect(conn),
            Event::Data { conn, bytes } => self.on_data(conn, bytes),
            Event::Disconnect { conn } => self.on_disconnect(conn),
            Event::Tick => self.on_tick(),
        }
    }

    fn on_connect(&mut self, conn: u64) -> Vec<Effect> {
        if self.shutting_down {
            return vec![
                Effect::Send { conn, bytes: Frame::goodbye(goodbye::ORDERLY).encode() },
                Effect::Close { conn },
            ];
        }
        if let Some(f) = self.probe(FaultSite::AcceptStall) {
            self.accept_stall_ticks = self.accept_stall_ticks.max(f.spins.max(1));
        }
        if self.accept_stall_ticks > 0 {
            // The accept loop is stalled: the connection sits unserved
            // until the stall lifts at a later tick.
            self.deferred_connects.push_back(conn);
            return Vec::new();
        }
        self.admit(conn)
    }

    fn admit(&mut self, conn: u64) -> Vec<Effect> {
        if !self.admission.accepts_sessions(self.sessions.len()) || self.free_players.is_empty() {
            self.stats.sessions_rejected.fetch_add(1, atomic_order());
            return vec![
                Effect::Send {
                    conn,
                    bytes: Frame::overloaded(OVERLOAD_BACKOFF_TICKS).encode(),
                },
                Effect::Close { conn },
            ];
        }
        self.sessions.insert(conn, Session::new());
        self.stats.sessions_accepted.fetch_add(1, atomic_order());
        self.stats.sessions.store(self.sessions.len() as u64, atomic_order());
        Vec::new()
    }

    fn on_data(&mut self, conn: u64, mut bytes: Vec<u8>) -> Vec<Effect> {
        if !self.sessions.contains_key(&conn) {
            return Vec::new();
        }
        // Socket-layer chaos, probed in delivery order from the one
        // engine thread (determinism).
        if self.probe(FaultSite::Disconnect).is_some() {
            return self.close_session(conn, None);
        }
        if let Some(f) = self.probe(FaultSite::SlowLoris) {
            if let Some(s) = self.sessions.get_mut(&conn) {
                s.loris_ticks = s.loris_ticks.saturating_add(f.spins.max(1));
            }
        }
        if let Some(f) = self.probe(FaultSite::MalformedFrame) {
            if !bytes.is_empty() {
                let i = (f.entropy % bytes.len() as u64) as usize;
                bytes[i] ^= 1 << ((f.entropy >> 8) % 8);
            }
        }
        if let Some(f) = self.probe(FaultSite::PartialIo) {
            // Short read: only a prefix arrives now; the tail is
            // re-delivered at the next tick.
            let keep = (f.entropy % (bytes.len() as u64 + 1)) as usize;
            let tail = bytes.split_off(keep);
            if let Some(s) = self.sessions.get_mut(&conn) {
                s.deferred_in.extend_from_slice(&tail);
            }
        }
        self.feed_decoder(conn, &bytes)
    }

    /// Push bytes through a session's decoder and act on every frame.
    fn feed_decoder(&mut self, conn: u64, bytes: &[u8]) -> Vec<Effect> {
        let Some(s) = self.sessions.get_mut(&conn) else {
            return Vec::new();
        };
        s.idle_ticks = 0;
        let before = s.decoder.desyncs();
        s.decoder.push(bytes);
        let mut frames = Vec::new();
        let mut fatal = false;
        loop {
            match s.decoder.next_step() {
                DecodeStep::Frame(f) => frames.push(f),
                DecodeStep::NeedMore => break,
                DecodeStep::Fatal(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        let desyncs = s.decoder.desyncs() - before;
        if desyncs > 0 {
            self.stats.malformed_frames.fetch_add(desyncs as u64, atomic_order());
        }
        self.stats.frames_in.fetch_add(frames.len() as u64, atomic_order());
        for f in frames {
            self.on_frame(conn, f);
        }
        if fatal {
            return self.close_session(conn, Some(goodbye::PROTOCOL));
        }
        Vec::new()
    }

    fn on_frame(&mut self, conn: u64, frame: Frame) {
        match frame.kind {
            FrameType::Hello => {
                let player = self.free_players.pop();
                if let Some(s) = self.sessions.get_mut(&conn) {
                    if s.player.is_some() {
                        // Duplicate Hello: keep the original assignment.
                        if let Some(p) = player {
                            self.free_players.push(p);
                        }
                        return;
                    }
                    match player {
                        Some(p) => {
                            s.player = Some(p);
                            self.queue(conn, &Frame::welcome(p as u16));
                        }
                        None => {
                            self.queue(conn, &Frame::overloaded(OVERLOAD_BACKOFF_TICKS));
                        }
                    }
                } else if let Some(p) = player {
                    self.free_players.push(p);
                }
            }
            FrameType::Action => match Frame::parse_action(&frame.payload) {
                Some((op, a, b)) => {
                    let player_ready =
                        self.sessions.get(&conn).map(|s| s.player.is_some()).unwrap_or(false);
                    if player_ready {
                        self.seq += 1;
                        self.pending.push(PendingAction {
                            conn,
                            priority: frame.priority,
                            op,
                            a,
                            b,
                            seq: self.seq,
                        });
                    }
                }
                None => {
                    self.stats.malformed_frames.fetch_add(1, atomic_order());
                }
            },
            FrameType::Ping => {
                let pong = Frame::pong(&frame.payload);
                self.queue(conn, &pong);
            }
            FrameType::Bye => {
                if let Some(s) = self.sessions.get_mut(&conn) {
                    s.closing = true;
                }
                self.queue(conn, &Frame::goodbye(goodbye::ORDERLY));
            }
            // Server→client frames from a client are protocol noise;
            // tolerated (the decoder already validated framing).
            _ => {}
        }
    }

    /// Queue a frame toward a session, counting backpressure drops.
    fn queue(&mut self, conn: u64, frame: &Frame) {
        if let Some(s) = self.sessions.get_mut(&conn) {
            if s.queue_frame(frame) {
                self.stats.frames_out.fetch_add(1, atomic_order());
            } else {
                self.stats.frames_dropped.fetch_add(1, atomic_order());
            }
        }
    }

    fn on_disconnect(&mut self, conn: u64) -> Vec<Effect> {
        if self.sessions.contains_key(&conn) {
            self.close_session(conn, None)
        } else {
            Vec::new()
        }
    }

    /// Tear a session down. With a reason, a `Goodbye` is flushed ahead
    /// of the close; without, the close is abrupt (peer is gone).
    fn close_session(&mut self, conn: u64, reason: Option<u8>) -> Vec<Effect> {
        let Some(mut s) = self.sessions.remove(&conn) else {
            return Vec::new();
        };
        if let Some(p) = s.player.take() {
            self.free_players.push(p);
        }
        self.pending.retain(|a| a.conn != conn);
        self.stats.disconnects.fetch_add(1, atomic_order());
        self.stats.sessions.store(self.sessions.len() as u64, atomic_order());
        let mut fx = Vec::new();
        if let Some(code) = reason {
            let mut bytes: Vec<u8> = s.outq.drain(..).collect();
            bytes.extend(Frame::goodbye(code).encode());
            self.stats.frames_out.fetch_add(1, atomic_order());
            fx.push(Effect::Send { conn, bytes });
        }
        fx.push(Effect::Close { conn });
        fx
    }

    fn on_tick(&mut self) -> Vec<Effect> {
        let started = (!self.cfg.deterministic).then(std::time::Instant::now);
        self.tick += 1;
        let mut fx = Vec::new();

        // Accept stall bookkeeping: lift by one tick, then serve the
        // backlog once clear.
        if self.accept_stall_ticks > 0 {
            self.accept_stall_ticks -= 1;
        }
        if self.accept_stall_ticks == 0 {
            while let Some(conn) = self.deferred_connects.pop_front() {
                fx.extend(self.admit(conn));
            }
        }

        // Re-deliver partial-read tails.
        let held: Vec<(u64, Vec<u8>)> = self
            .sessions
            .iter_mut()
            .filter(|(_, s)| !s.deferred_in.is_empty())
            .map(|(&c, s)| (c, std::mem::take(&mut s.deferred_in)))
            .collect();
        for (conn, bytes) in held {
            fx.extend(self.feed_decoder(conn, &bytes));
        }

        // Admission: order by priority (high first), arrival order
        // breaking ties, then shed the tail.
        let mut actions = std::mem::take(&mut self.pending);
        actions.retain(|a| self.sessions.get(&a.conn).is_some_and(|s| s.player.is_some()));
        actions.sort_by_key(|a| (std::cmp::Reverse(a.priority), a.seq));
        let offered = actions.len();
        let admit = self.admission.admit(offered);
        let shed: Vec<PendingAction> = actions.split_off(admit);
        let executed = actions.len();
        self.stats.actions_shed.fetch_add(shed.len() as u64, atomic_order());
        let mut overloaded_conns: Vec<u64> = shed.iter().map(|a| a.conn).collect();
        overloaded_conns.sort_unstable();
        overloaded_conns.dedup();
        for conn in overloaded_conns {
            self.queue(conn, &Frame::overloaded(OVERLOAD_BACKOFF_TICKS));
        }

        // Execute admitted actions through the guided STM.
        for a in &actions {
            let Some(player) = self.sessions.get(&a.conn).and_then(|s| s.player) else {
                continue;
            };
            let world = &self.world;
            match a.op {
                ActionOp::Move => {
                    let x = (a.a as u32).min(self.cfg.world_size - 1);
                    let y = (a.b as u32).min(self.cfg.world_size - 1);
                    self.ctx.atomically(TxnId(0), |tx| world.move_player(tx, player, x, y));
                }
                ActionOp::Attack => {
                    let _ = self.ctx.atomically(TxnId(1), |tx| {
                        world.attack(tx, player, 10, a.a as u64)
                    });
                }
                ActionOp::Pickup => {
                    let _ = self.ctx.atomically(TxnId(2), |tx| world.pickup(tx, player));
                }
            }
        }
        self.stats.actions_executed.fetch_add(executed as u64, atomic_order());

        // Tick cost → ladder. Deterministic mode charges the synthetic
        // model (replayable); real mode scales elapsed wall time onto
        // the admission cost scale.
        let shed_n = shed.len();
        let elapsed_ns = started.map(|t| t.elapsed().as_nanos() as u64);
        let cost = match elapsed_ns {
            None => self.admission.synthetic_cost(executed, shed_n),
            Some(ns) => {
                ns.saturating_mul(self.admission.config().tick_budget)
                    / self.cfg.tick_budget_ns.max(1)
            }
        };
        if let Some((from, to)) = self.admission.observe_tick(self.tick, cost) {
            self.stats.record_ladder(to);
            if to >= Rung::GuidedBypass && from < Rung::GuidedBypass {
                if let Some(b) = &self.breaker {
                    b.force_open();
                }
            }
        }

        // Tick reports: full neighborhood at rung 0, own cell only
        // under reduced AOI.
        let rung = self.admission.rung();
        let conns: Vec<u64> = self.sessions.keys().copied().collect();
        for conn in conns {
            let Some(player) = self.sessions.get(&conn).and_then(|s| s.player) else {
                continue;
            };
            let report = self.tick_report(player, rung);
            self.queue(conn, &report);
        }

        // Idle reaper + slow-loris countdown + queue drain.
        let mut to_close: Vec<(u64, Option<u8>)> = Vec::new();
        for (&conn, s) in self.sessions.iter_mut() {
            s.idle_ticks += 1;
            if s.loris_ticks > 0 {
                s.loris_ticks -= 1;
            }
            if s.idle_ticks > self.cfg.idle_ticks_max {
                self.stats.idle_reaped.fetch_add(1, atomic_order());
                to_close.push((conn, Some(goodbye::IDLE)));
                continue;
            }
            let bytes = s.drain_out(DRAIN_PER_TICK);
            if !bytes.is_empty() {
                fx.push(Effect::Send { conn, bytes });
            }
            if s.closing && s.outq.is_empty() {
                to_close.push((conn, None));
            }
        }
        for (conn, reason) in to_close {
            fx.extend(self.close_session(conn, reason));
        }

        // Bookkeeping.
        let frame_ns = elapsed_ns.unwrap_or(cost);
        self.stats.record_tick(frame_ns);
        if self.records.len() == MAX_TICK_RECORDS {
            // Drop the oldest half in one move, so the cap costs amortised
            // O(1) per tick instead of shifting every record each tick.
            self.records.drain(..MAX_TICK_RECORDS / 2);
            self.records_dropped += (MAX_TICK_RECORDS / 2) as u64;
        }
        self.records.push(TickRecord {
            tick: self.tick,
            frame_ns,
            cost,
            ladder: rung.code(),
            offered: offered as u64,
            executed: executed as u64,
            shed: shed_n as u64,
            sessions: self.sessions.len() as u64,
        });
        fx
    }

    /// Build one tick report for `player` at `rung`.
    fn tick_report(&self, player: u32, rung: Rung) -> Frame {
        let p = self.world.players[player as usize].load_quiesced();
        let mut payload = Vec::with_capacity(32);
        payload.push(rung.code());
        payload.extend_from_slice(&(self.tick as u32).to_le_bytes());
        payload.extend_from_slice(&(p.x as u16).to_le_bytes());
        payload.extend_from_slice(&(p.y as u16).to_le_bytes());
        payload.extend_from_slice(&(p.hp.clamp(0, 255) as u8).to_le_bytes());
        payload.extend_from_slice(&(p.score.min(u16::MAX as u32) as u16).to_le_bytes());
        if rung < Rung::ReducedAoi {
            // Full AOI: occupancy of the player's cell neighborhood.
            let cell = self.world.cell_index(p.x, p.y);
            let per_row = self.world.cells_per_row() as usize;
            let (cx, cy) = (cell % per_row, cell / per_row);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let nx = cx as i64 + dx;
                    let ny = cy as i64 + dy;
                    let n = if nx < 0 || ny < 0 || nx >= per_row as i64 || ny >= per_row as i64 {
                        0
                    } else {
                        self.world.cells[ny as usize * per_row + nx as usize]
                            .peek_quiesced(Vec::len)
                            .min(255)
                    };
                    payload.push(n as u8);
                }
            }
        }
        Frame::new(FrameType::TickReport, 10, payload)
    }

    /// Graceful shutdown: flush every queue, say `Goodbye`, close
    /// everything. The engine refuses new connections afterwards.
    pub fn shutdown(&mut self) -> Vec<Effect> {
        self.shutting_down = true;
        let conns: Vec<u64> = self.sessions.keys().copied().collect();
        let mut fx = Vec::new();
        for conn in conns {
            fx.extend(self.close_session(conn, Some(goodbye::ORDERLY)));
        }
        fx
    }
}

#[inline]
fn atomic_order() -> std::sync::atomic::Ordering {
    std::sync::atomic::Ordering::Relaxed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAGIC0;
    use gstm_libtm::LibTmConfig;

    fn engine(det: bool) -> Engine {
        let cfg = EngineConfig {
            players: 8,
            deterministic: det,
            admission: AdmissionConfig {
                tick_budget: 200,
                action_cost: 10,
                base_cost: 20,
                max_sessions: 8,
                escalate_after: 2,
                deescalate_after: 3,
                low_water_pct: 60,
            },
            ..EngineConfig::default()
        };
        let tm = LibTm::new(LibTmConfig::default());
        Engine::new(cfg, tm, None, None, Arc::new(ServerStats::new()))
    }

    fn hello(e: &mut Engine, conn: u64) {
        assert!(e.handle(Event::Connect { conn }).is_empty());
        assert!(e
            .handle(Event::Data { conn, bytes: Frame::hello().encode() })
            .is_empty());
    }

    #[test]
    fn handshake_assigns_a_player_and_welcomes() {
        let mut e = engine(true);
        hello(&mut e, 1);
        let fx = e.handle(Event::Tick);
        // Welcome + tick report flushed as one Send.
        let Some(Effect::Send { conn, bytes }) = fx.first() else {
            panic!("expected a send, got {fx:?}");
        };
        assert_eq!(*conn, 1);
        assert!(bytes.starts_with(&Frame::welcome(0).encode()), "player 0 assigned first");
        assert_eq!(e.sessions.len(), 1);
    }

    #[test]
    fn tick_records_past_the_cap_drop_the_oldest_half() {
        let mut e = engine(true);
        let ticks = MAX_TICK_RECORDS + 1;
        for _ in 0..ticks {
            e.handle(Event::Tick);
        }
        let (half, records) = (MAX_TICK_RECORDS / 2, e.records());
        assert_eq!(records.len(), half + 1, "one halving, then one push");
        assert_eq!(e.records_dropped, half as u64);
        let (first, last) = (records[0].tick, records[records.len() - 1].tick);
        assert_eq!(last, e.tick(), "the newest tick is kept");
        assert_eq!(last - first, half as u64, "retained ticks are contiguous");
        let mut jsonl = Vec::new();
        e.write_ticks_jsonl(&mut jsonl).unwrap();
        let head = jsonl.split(|&b| b == b'\n').next().unwrap();
        assert_eq!(head, format!("{{\"truncated_ticks\":{half}}}").as_bytes());
    }

    #[test]
    fn actions_execute_through_stm_and_stay_accounted() {
        let mut e = engine(true);
        hello(&mut e, 1);
        e.handle(Event::Tick);
        let base = e.commits();
        for i in 0..5u16 {
            let f = crate::proto::Frame::action(ActionOp::Move, 5, 10 + i, 10);
            e.handle(Event::Data { conn: 1, bytes: f.encode() });
        }
        e.handle(Event::Tick);
        assert_eq!(e.commits() - base, 5, "every executed action is one commit");
        assert_eq!(e.world().audit(), 0);
        let rec = e.records().last().unwrap();
        assert_eq!((rec.offered, rec.executed, rec.shed), (5, 5, 0));
    }

    #[test]
    fn overload_sheds_lowest_priority_first_and_climbs_the_ladder() {
        let mut e = engine(true);
        hello(&mut e, 1);
        e.handle(Event::Tick);
        // Budget admits (200-20)/10 = 18 actions; offer 40 per tick.
        let mut saw_shed = false;
        for _ in 0..8 {
            for i in 0..40u16 {
                let pri = (i % 4) as u8;
                let f = Frame::action(ActionOp::Move, pri, 10 + i, 20);
                e.handle(Event::Data { conn: 1, bytes: f.encode() });
            }
            e.handle(Event::Tick);
            let rec = *e.records().last().unwrap();
            if rec.shed > 0 {
                saw_shed = true;
                assert_eq!(rec.executed + rec.shed, rec.offered);
            }
        }
        assert!(saw_shed);
        assert!(e.rung() > Rung::FullTick, "sustained overload climbed the ladder");
        assert!(!e.ladder_transitions().is_empty());
        // Drain the pressure: the ladder steps back down.
        for _ in 0..32 {
            e.handle(Event::Tick);
        }
        assert_eq!(e.rung(), Rung::FullTick, "recovered");
        assert_eq!(e.world().audit(), 0);
    }

    #[test]
    fn session_cap_rejects_with_overloaded() {
        let mut e = engine(true);
        for conn in 0..8 {
            hello(&mut e, conn);
        }
        let fx = e.handle(Event::Connect { conn: 99 });
        assert_eq!(
            fx,
            vec![
                Effect::Send { conn: 99, bytes: Frame::overloaded(32).encode() },
                Effect::Close { conn: 99 },
            ]
        );
    }

    #[test]
    fn protocol_violation_gets_goodbye_then_close() {
        let mut e = engine(true);
        hello(&mut e, 1);
        // Flood garbage past the desync budget.
        let garbage: Vec<u8> = (0..64).flat_map(|_| [MAGIC0, 0x00]).collect();
        let fx = e.handle(Event::Data { conn: 1, bytes: garbage });
        let sends: Vec<_> = fx
            .iter()
            .filter_map(|f| match f {
                Effect::Send { bytes, .. } => Some(bytes.clone()),
                _ => None,
            })
            .collect();
        assert!(
            sends.iter().any(|b| b
                .windows(3)
                .any(|w| w[..2] == [MAGIC0, 0x7e] && w[2] == FrameType::Goodbye.code())),
            "goodbye flushed before close"
        );
        assert!(fx.contains(&Effect::Close { conn: 1 }));
        assert_eq!(e.sessions.len(), 0);
    }

    #[test]
    fn idle_reaper_closes_quiet_sessions() {
        let mut e = engine(true);
        e.cfg.idle_ticks_max = 3;
        hello(&mut e, 1);
        let mut closed = false;
        for _ in 0..6 {
            if e.handle(Event::Tick).contains(&Effect::Close { conn: 1 }) {
                closed = true;
                break;
            }
        }
        assert!(closed, "idle session reaped");
        assert_eq!(e.stats.idle_reaped.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_flushes_goodbyes() {
        let mut e = engine(true);
        hello(&mut e, 1);
        hello(&mut e, 2);
        let fx = e.shutdown();
        let closes = fx.iter().filter(|f| matches!(f, Effect::Close { .. })).count();
        assert_eq!(closes, 2);
        assert_eq!(e.sessions.len(), 0);
        // Late connect is refused.
        let fx = e.handle(Event::Connect { conn: 9 });
        assert!(fx.contains(&Effect::Close { conn: 9 }));
    }
}
