//! `gstm-loadgen` — seeded, ramped load for `gstm-server`.
//!
//! Spawns client threads on a ramp schedule; every client's action
//! stream, priorities, and misbehavior are drawn from `SplitMix64`
//! streams split off the run seed, so a campaign is reproducible.
//! Modes:
//!
//! * `mix` (default) — well-formed Hello/Action/Ping traffic.
//! * `garbage` — interleaves seeded junk bytes to exercise the
//!   decoder's resynchronization.
//! * `loris` — connects, then trickles one byte per interval.
//!
//! Exit code 0 when every client ran its schedule without a protocol
//! error; 1 when any client saw one (unexpected frame, early EOF before
//! its schedule completed without a `Goodbye`/`Overloaded` excuse);
//! 2 on bad usage.

use gstm_core::rng::{parse_seed, SplitMix64};
use gstm_server::proto::{ActionOp, DecodeStep, Frame, FrameDecoder, FrameType};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Delay between client starts.
const RAMP: Duration = Duration::from_millis(50);
/// Delay between a client's frames.
const INTERVAL: Duration = Duration::from_millis(5);

#[derive(Clone)]
struct Options {
    addr: String,
    clients: u32,
    actions: u32,
    seed: u64,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    Mix,
    Garbage,
    Loris,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7777".into(),
            clients: 8,
            actions: 32,
            seed: 0x10ad,
            mode: Mode::Mix,
        }
    }
}

const USAGE: &str = "usage: gstm-loadgen [options]
  --addr=HOST:PORT   server address (default 127.0.0.1:7777)
  --clients=N        client connections, started 50 ms apart (default 8)
  --actions=N        actions per client, sent 5 ms apart (default 32)
  --seed=N           run seed, decimal or 0x hex (default 0x10ad)
  --mode=mix|garbage|loris (default mix)";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    for arg in args {
        let (key, val) = arg.split_once('=').unwrap_or((arg.as_str(), ""));
        match key {
            "--addr" => o.addr = val.to_string(),
            "--clients" => o.clients = num(key, val)?,
            "--actions" => o.actions = num(key, val)?,
            "--seed" => {
                o.seed =
                    parse_seed(val).ok_or_else(|| format!("--seed wants a number, got {val:?}"))?
            }
            "--mode" => {
                o.mode = match val {
                    "mix" => Mode::Mix,
                    "garbage" => Mode::Garbage,
                    "loris" => Mode::Loris,
                    _ => return Err(format!("--mode wants mix|garbage|loris, got {val:?}")),
                }
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            _ => return Err(format!("unknown flag {key:?}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse().map_err(|_| format!("{key} wants a number, got {val:?}"))
}

/// Shared outcome counters across client threads.
#[derive(Default)]
struct Tally {
    hellos: AtomicU64,
    welcomes: AtomicU64,
    overloaded: AtomicU64,
    goodbyes: AtomicU64,
    actions_sent: AtomicU64,
    ticks_seen: AtomicU64,
    pongs: AtomicU64,
    rtt_ns_sum: AtomicU64,
    protocol_errors: AtomicU64,
    early_closes: AtomicU64,
}

fn read_available(stream: &mut TcpStream, dec: &mut FrameDecoder) -> std::io::Result<bool> {
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(false),
            Ok(n) => dec.push(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// One client's scripted life. Returns `true` on a clean run.
fn client(id: u32, opts: &Options, tally: &Tally) -> bool {
    let mut rng = SplitMix64::new(opts.seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let Ok(mut stream) = TcpStream::connect(&opts.addr) else {
        tally.early_closes.fetch_add(1, Ordering::Relaxed);
        return false;
    };
    let _ = stream.set_nonblocking(true);
    let _ = stream.set_nodelay(true);
    let mut dec = FrameDecoder::new();

    if opts.mode == Mode::Loris {
        // Trickle a valid Hello one byte at a time, then go silent: the
        // server's slow-loris countermeasures (idle reaper, drain caps)
        // should close us, which counts as a clean outcome here.
        let bytes = Frame::hello().encode();
        for b in bytes {
            if stream.write_all(&[b]).is_err() {
                return true;
            }
            std::thread::sleep(INTERVAL * 4);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match read_available(&mut stream, &mut dec) {
                Ok(true) => {}
                _ => return true, // server cut us loose
            }
            std::thread::sleep(INTERVAL * 4);
        }
        return true;
    }

    let send = |stream: &mut TcpStream, rng: &mut SplitMix64, frame: &Frame| -> bool {
        let mut bytes = frame.encode();
        if opts.mode == Mode::Garbage && rng.below(4) == 0 {
            // Prepend seeded junk; the decoder must resync past it.
            let junk_len = 1 + rng.below(16) as usize;
            let mut junk: Vec<u8> = (0..junk_len).map(|_| (rng.next() & 0xff) as u8).collect();
            junk.extend(bytes);
            bytes = junk;
        }
        stream.write_all(&bytes).is_ok()
    };

    tally.hellos.fetch_add(1, Ordering::Relaxed);
    if !send(&mut stream, &mut rng, &Frame::hello()) {
        tally.early_closes.fetch_add(1, Ordering::Relaxed);
        return false;
    }

    let mut sent = 0u32;
    let mut welcomed = false;
    let mut said_goodbye = false;
    let mut ping_sent_at: Option<(u64, Instant)> = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut clean = true;

    'life: while Instant::now() < deadline {
        let open = read_available(&mut stream, &mut dec).unwrap_or_default();
        loop {
            match dec.next_step() {
                DecodeStep::Frame(f) => match f.kind {
                    FrameType::Welcome => {
                        welcomed = true;
                        tally.welcomes.fetch_add(1, Ordering::Relaxed);
                    }
                    FrameType::Overloaded => {
                        tally.overloaded.fetch_add(1, Ordering::Relaxed);
                        break 'life; // back off as told
                    }
                    FrameType::Goodbye => {
                        tally.goodbyes.fetch_add(1, Ordering::Relaxed);
                        break 'life;
                    }
                    FrameType::TickReport => {
                        tally.ticks_seen.fetch_add(1, Ordering::Relaxed);
                    }
                    FrameType::Pong => {
                        tally.pongs.fetch_add(1, Ordering::Relaxed);
                        if let Some((token, at)) = ping_sent_at.take() {
                            let mut tok = [0u8; 8];
                            if f.payload.len() >= 8 {
                                tok.copy_from_slice(&f.payload[..8]);
                            }
                            if u64::from_le_bytes(tok) == token {
                                let ns = at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                                tally.rtt_ns_sum.fetch_add(ns, Ordering::Relaxed);
                            }
                        }
                    }
                    _ => {
                        tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        clean = false;
                    }
                },
                DecodeStep::NeedMore => break,
                DecodeStep::Fatal(_) => {
                    tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    clean = false;
                    break 'life;
                }
            }
        }
        if !open {
            if !(said_goodbye || sent >= opts.actions) {
                tally.early_closes.fetch_add(1, Ordering::Relaxed);
                clean = false;
            }
            break;
        }
        if welcomed && sent < opts.actions {
            let frame = match rng.below(8) {
                0 => {
                    let token = rng.next();
                    ping_sent_at = Some((token, Instant::now()));
                    Frame::ping(token)
                }
                1 => Frame::action(ActionOp::Attack, (rng.below(200) + 10) as u8, rng.below(64) as u16, 0),
                2 => Frame::action(ActionOp::Pickup, (rng.below(200) + 10) as u8, 0, 0),
                _ => Frame::action(
                    ActionOp::Move,
                    (rng.below(200) + 10) as u8,
                    rng.below(256) as u16,
                    rng.below(256) as u16,
                ),
            };
            if !send(&mut stream, &mut rng, &frame) {
                tally.early_closes.fetch_add(1, Ordering::Relaxed);
                clean = false;
                break;
            }
            sent += 1;
            tally.actions_sent.fetch_add(1, Ordering::Relaxed);
        } else if welcomed && sent >= opts.actions && !said_goodbye {
            let _ = send(&mut stream, &mut rng, &Frame::bye());
            said_goodbye = true; // wait for the server's Goodbye next loop
        }
        std::thread::sleep(INTERVAL);
    }
    clean
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let tally = Arc::new(Tally::default());
    let started = Instant::now();
    let mut handles = Vec::new();
    for id in 0..opts.clients {
        let o = opts.clone();
        let tally = Arc::clone(&tally);
        handles.push(std::thread::spawn(move || client(id, &o, &tally)));
        std::thread::sleep(RAMP);
    }
    let mut all_clean = true;
    for h in handles {
        all_clean &= h.join().unwrap_or(false);
    }
    let pongs = tally.pongs.load(Ordering::Relaxed);
    let rtt_avg_ns = tally.rtt_ns_sum.load(Ordering::Relaxed).checked_div(pongs).unwrap_or(0);
    println!(
        "{{\"clients\":{},\"mode\":\"{:?}\",\"seed\":{},\"elapsed_ms\":{},\
         \"hellos\":{},\"welcomes\":{},\"overloaded\":{},\"goodbyes\":{},\
         \"actions_sent\":{},\"tick_reports\":{},\"pongs\":{},\"rtt_avg_ns\":{},\
         \"protocol_errors\":{},\"early_closes\":{}}}",
        opts.clients,
        opts.mode,
        opts.seed,
        started.elapsed().as_millis(),
        tally.hellos.load(Ordering::Relaxed),
        tally.welcomes.load(Ordering::Relaxed),
        tally.overloaded.load(Ordering::Relaxed),
        tally.goodbyes.load(Ordering::Relaxed),
        tally.actions_sent.load(Ordering::Relaxed),
        tally.ticks_seen.load(Ordering::Relaxed),
        pongs,
        rtt_avg_ns,
        tally.protocol_errors.load(Ordering::Relaxed),
        tally.early_closes.load(Ordering::Relaxed),
    );
    std::process::exit(if all_clean { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Options, String> {
        parse_args(&list.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn seed_takes_the_hex_default_the_usage_prints() {
        assert_eq!(args(&["--seed=0x10ad"]).unwrap().seed, 0x10ad);
        assert_eq!(args(&["--seed=7"]).unwrap().seed, 7);
        assert!(args(&["--seed=x"]).is_err());
    }

    #[test]
    fn removed_knobs_are_unknown_flags() {
        for flag in ["--ramp-ms=1", "--interval-ms=1"] {
            let err = args(&[flag]).err().unwrap();
            assert!(err.starts_with("unknown flag"), "{flag}: {err}");
        }
    }
}
