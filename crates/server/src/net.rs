//! The socket loop: std-only non-blocking TCP feeding the engine.
//!
//! One thread owns the listener, every connection, and the engine — an
//! epoll-style readiness loop approximated with non-blocking sockets
//! and a short poll sleep (the container build is std-only; no OS
//! readiness API bindings). Single ownership is a feature, not a
//! shortcut: events reach the engine in one deterministic order, which
//! is what makes the chaos sites replayable.
//!
//! The same socket fault sites the engine probes on scripted input are
//! probed here against real traffic: accept stalls skip the accept
//! round, partial-I/O clamps `read`/`write` lengths, slow-loris skips a
//! session's read turn, and disconnect faults drop the socket outright.
//! (Malformed-frame corruption happens inside the engine so the fault
//! log ordering is identical in both modes.)

use crate::engine::{Effect, Engine, Event};
use gstm_core::faultinject::{FaultPlan, FaultSite};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll sleep between readiness sweeps.
const POLL: Duration = Duration::from_millis(2);
/// Max bytes read per session per sweep.
const READ_CHUNK: usize = 4096;
/// Bytes of OS-refused writes buffered per connection before the link
/// is declared dead (physical backpressure bound; the engine's
/// per-session queue is the logical one).
const WRITE_BUF_CAP: usize = 64 * 1024;

/// Socket-loop settings.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Engine tick cadence.
    pub tick_ms: u64,
    /// Stop after this many ticks (0 = run until `stop`).
    pub max_ticks: u64,
}

struct Conn {
    stream: TcpStream,
    /// Bytes the OS would not take yet.
    backlog: Vec<u8>,
    /// Read turns to skip (slow-loris fault).
    skip_reads: u32,
    /// Engine asked for close once the backlog drains.
    closing: bool,
}

/// Serve until `stop` flips, `max_ticks` elapse, or the listener dies.
/// Returns the number of ticks run.
pub fn serve(
    engine: &mut Engine,
    listener: TcpListener,
    stop: &AtomicBool,
    cfg: &NetConfig,
    faults: Option<Arc<FaultPlan>>,
) -> std::io::Result<u64> {
    listener.set_nonblocking(true)?;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut accept_skip: u32 = 0;
    let mut last_tick = Instant::now();
    let tick_every = Duration::from_millis(cfg.tick_ms.max(1));
    let mut ticks = 0u64;
    let probe = |site: FaultSite| faults.as_ref().and_then(|f| f.should_fire(site, 0));

    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // ---- accept ----
        if accept_skip > 0 {
            accept_skip -= 1;
        } else {
            loop {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        if let Some(f) = probe(FaultSite::AcceptStall) {
                            accept_skip = accept_skip.max(f.spins.max(1));
                        }
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        let id = next_conn;
                        next_conn += 1;
                        conns.insert(
                            id,
                            Conn { stream, backlog: Vec::new(), skip_reads: 0, closing: false },
                        );
                        apply(engine.handle(Event::Connect { conn: id }), &mut conns);
                        if accept_skip > 0 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }

        // ---- read sweep (sorted ids: deterministic event order) ----
        let mut ids: Vec<u64> = conns.keys().copied().collect();
        ids.sort_unstable();
        let mut buf = vec![0u8; READ_CHUNK];
        for id in ids {
            let Some(c) = conns.get_mut(&id) else { continue };
            if c.skip_reads > 0 {
                c.skip_reads -= 1;
                continue;
            }
            if let Some(f) = probe(FaultSite::SlowLoris) {
                c.skip_reads = f.spins.max(1);
                continue;
            }
            let mut cap = buf.len();
            if let Some(f) = probe(FaultSite::PartialIo) {
                cap = 1 + (f.entropy % cap as u64) as usize;
            }
            match c.stream.read(&mut buf[..cap]) {
                Ok(0) => {
                    conns.remove(&id);
                    apply(engine.handle(Event::Disconnect { conn: id }), &mut conns);
                }
                Ok(n) => {
                    if probe(FaultSite::Disconnect).is_some() {
                        conns.remove(&id);
                        apply(engine.handle(Event::Disconnect { conn: id }), &mut conns);
                        continue;
                    }
                    let bytes = buf[..n].to_vec();
                    apply(engine.handle(Event::Data { conn: id, bytes }), &mut conns);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conns.remove(&id);
                    apply(engine.handle(Event::Disconnect { conn: id }), &mut conns);
                }
            }
        }

        // ---- tick ----
        if last_tick.elapsed() >= tick_every {
            last_tick = Instant::now();
            ticks += 1;
            apply(engine.handle(Event::Tick), &mut conns);
            if cfg.max_ticks != 0 && ticks >= cfg.max_ticks {
                break;
            }
        }

        // ---- flush backlogs ----
        let mut dead: Vec<u64> = Vec::new();
        for (&id, c) in conns.iter_mut() {
            if c.backlog.is_empty() {
                if c.closing {
                    dead.push(id);
                }
                continue;
            }
            let mut cap = c.backlog.len();
            if let Some(f) = probe(FaultSite::PartialIo) {
                cap = 1 + (f.entropy % cap as u64) as usize;
            }
            match c.stream.write(&c.backlog[..cap]) {
                Ok(n) => {
                    c.backlog.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => dead.push(id),
            }
            if c.backlog.len() > WRITE_BUF_CAP {
                // The peer stopped draining and the engine-level queue
                // already shed what it could: cut the link.
                dead.push(id);
            }
        }
        for id in dead {
            if conns.remove(&id).is_some() {
                apply(engine.handle(Event::Disconnect { conn: id }), &mut conns);
            }
        }

        std::thread::sleep(POLL);
    }

    // Graceful drain: goodbye frames out, best-effort flush, close.
    apply(engine.shutdown(), &mut conns);
    let deadline = Instant::now() + Duration::from_millis(500);
    while conns.values().any(|c| !c.backlog.is_empty()) && Instant::now() < deadline {
        for c in conns.values_mut() {
            if c.backlog.is_empty() {
                continue;
            }
            match c.stream.write(&c.backlog) {
                Ok(n) => {
                    c.backlog.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => c.backlog.clear(),
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(ticks)
}

/// Apply engine effects to the physical connections. `Send` appends to
/// the connection's backlog (flushed by the loop); `Close` marks the
/// connection for teardown once its backlog drains.
fn apply(effects: Vec<Effect>, conns: &mut HashMap<u64, Conn>) {
    for fx in effects {
        match fx {
            Effect::Send { conn, bytes } => {
                if let Some(c) = conns.get_mut(&conn) {
                    c.backlog.extend_from_slice(&bytes);
                }
            }
            Effect::Close { conn } => {
                if let Some(c) = conns.get_mut(&conn) {
                    c.closing = true;
                }
            }
        }
    }
    // Closing connections with nothing left to say can go now.
    conns.retain(|_, c| !(c.closing && c.backlog.is_empty()));
}
