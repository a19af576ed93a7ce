//! The frame-driven game server.
//!
//! Client requests arrive in frames; a pool of worker threads processes
//! the frame's player actions inside barriers (SynQuake's server model —
//! "multiple client frames are handled by threads and executed within
//! barriers", so per-frame processing time, not per-thread time, is the
//! variance metric).

use crate::quest::QuestLayout;
use crate::world::{Player, World};
use gstm_core::rng::mix64;
use gstm_core::{ThreadId, ThreadStats, TxResult, TxnId};
use gstm_libtm::{LibTm, LtTxn};
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Txn site: move a player toward its quest.
const TXN_MOVE: TxnId = TxnId(0);
/// Txn site: attack a co-located player.
const TXN_ATTACK: TxnId = TxnId(1);
/// Txn site: pick up an item from the player's cell.
const TXN_PICKUP: TxnId = TxnId(2);

/// Parameters of one game run.
#[derive(Clone, Copy, Debug)]
pub struct GameConfig {
    /// Worker threads processing each frame.
    pub threads: u16,
    /// Number of players (the paper uses 1000).
    pub players: u32,
    /// Frames to process (paper: 1000 training / 10000 testing; scaled
    /// presets live in the harness).
    pub frames: u64,
    /// Map edge length (paper: 1024).
    pub map_size: u32,
    /// Spatial cell edge length.
    pub cell_size: u32,
    /// Quest layout driving player movement.
    pub quest: QuestLayout,
    /// Input seed.
    pub seed: u64,
    /// Player walk speed in map units per frame.
    pub speed: u32,
    /// Percent of actions that are attacks.
    pub attack_pct: u64,
    /// Percent of actions that are item pickups (the rest are moves).
    pub pickup_pct: u64,
    /// Items scattered on the map at start (one per this many players).
    pub items: u32,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            threads: 8,
            players: 256,
            frames: 60,
            map_size: 1024,
            cell_size: 64,
            quest: QuestLayout::Quadrants4,
            seed: 0x9a3e,
            speed: 24,
            attack_pct: 30,
            pickup_pct: 10,
            items: 64,
        }
    }
}

/// What a game run produced.
#[derive(Clone, Debug, Default)]
pub struct FrameResult {
    /// Processing time of each frame, in seconds.
    pub frame_secs: Vec<f64>,
    /// Per-thread STM statistics.
    pub per_thread_stats: Vec<ThreadStats>,
    /// World-consistency violations found by the post-run audit (0 =
    /// clean).
    pub audit_failures: usize,
}

impl FrameResult {
    /// Aggregate stats across threads.
    pub fn merged_stats(&self) -> ThreadStats {
        let mut t = ThreadStats::new();
        for s in &self.per_thread_stats {
            t.merge(s);
        }
        t
    }
}

impl GameConfig {
    /// The players thread `t` acts for: the `t`-th of `threads`
    /// contiguous, equal-sized (up to rounding) id ranges.
    fn share(&self, t: u16) -> Range<u32> {
        let n = self.threads.max(1) as u32;
        let chunk = self.players.div_ceil(n);
        (t as u32 * chunk).min(self.players)..((t as u32 + 1) * chunk).min(self.players)
    }

    /// The action player `id` takes in `frame`: a pure function of the
    /// config, the frame, the id and — for a move, the one action that
    /// depends on where the player stands — its state, which `player` is
    /// called to read.
    #[inline]
    fn action(&self, frame: u64, id: u32, player: impl FnOnce() -> Player) -> Action {
        let r = mix64(self.seed ^ (frame << 24) ^ id as u64);
        if r % 100 < self.attack_pct {
            return Action::Attack { pick: mix64(r) };
        }
        if r % 100 < self.attack_pct + self.pickup_pct {
            return Action::Pickup;
        }
        let p = player();
        let (qx, qy) = self.quest.position(p.quest, frame, self.map_size);
        // Jitter keeps the crowd from collapsing to one pixel.
        let jx = (mix64(r >> 3) % 40) as u32;
        let jy = (mix64(r >> 5) % 40) as u32;
        Action::Move {
            x: step_toward(p.x, (qx + jx).min(self.map_size - 1), self.speed),
            y: step_toward(p.y, (qy + jy).min(self.map_size - 1), self.speed),
        }
    }
}

/// One player's action in one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    /// Attack a player sharing the cell; `pick` chooses which.
    Attack {
        /// Victim choice among the cell's other occupants.
        pick: u64,
    },
    /// Pick up an item lying in the player's cell.
    Pickup,
    /// Step toward the player's quest.
    Move {
        /// Destination x.
        x: u32,
        /// Destination y.
        y: u32,
    },
}

impl Action {
    /// The transaction site the action runs as.
    fn txn(&self) -> TxnId {
        match self {
            Action::Attack { .. } => TXN_ATTACK,
            Action::Pickup => TXN_PICKUP,
            Action::Move { .. } => TXN_MOVE,
        }
    }

    /// Run the action for player `id` inside `tx`.
    fn run(&self, world: &World, tx: &mut LtTxn, id: u32) -> TxResult<()> {
        match *self {
            Action::Attack { pick } => world.attack(tx, id, 25, pick).map(drop),
            Action::Pickup => world.pickup(tx, id).map(drop),
            Action::Move { x, y } => world.move_player(tx, id, x, y),
        }
    }
}

/// Per frame, the pairs of actions by players of different threads
/// whose cell footprints overlap: a measure of the contention a layout
/// creates that no scheduler can perturb.
///
/// An action's footprint is the cells it touches: a move touches the
/// cell it leaves and the cell it enters, an attack or pickup the
/// player's own cell. Footprints are known from the world before the
/// frame runs, and only a player's own moves change its position, so
/// the count is a pure function of the world, the seed, the quest
/// layout and the thread partition (`GameConfig::share`). It is
/// computed on the calling thread, without running a transaction.
pub fn cross_thread_overlaps(cfg: &GameConfig) -> Vec<u64> {
    let world = World::new(cfg.map_size, cfg.cell_size, cfg.players, cfg.seed);
    let mut players: Vec<Player> = world.players.iter().map(|p| p.load_quiesced()).collect();
    let owner: Vec<u16> = (0..cfg.threads.max(1))
        .flat_map(|t| cfg.share(t).map(move |_| t))
        .collect();
    (0..cfg.frames)
        .map(|frame| {
            let footprints: Vec<[usize; 2]> = players
                .iter_mut()
                .enumerate()
                .map(|(id, p)| {
                    let here = world.cell_index(p.x, p.y);
                    match cfg.action(frame, id as u32, || p.clone()) {
                        Action::Move { x, y } => {
                            (p.x, p.y) = (x, y);
                            [here, world.cell_index(x, y)]
                        }
                        _ => [here, here],
                    }
                })
                .collect();
            let mut pairs = 0;
            for (i, a) in footprints.iter().enumerate() {
                for (j, b) in footprints.iter().enumerate().skip(i + 1) {
                    if owner[i] != owner[j] && a.iter().any(|c| b.contains(c)) {
                        pairs += 1;
                    }
                }
            }
            pairs
        })
        .collect()
}

/// Step `v` toward `target` by at most `speed`.
fn step_toward(v: u32, target: u32, speed: u32) -> u32 {
    if v < target {
        v + speed.min(target - v)
    } else {
        v - speed.min(v - target)
    }
}

/// Run a game on the given LibTM instance and return per-frame timings
/// plus STM statistics.
pub fn run_game(tm: &Arc<LibTm>, cfg: &GameConfig) -> FrameResult {
    let mut world = World::new(cfg.map_size, cfg.cell_size, cfg.players, cfg.seed);
    world.spawn_items(cfg.items, cfg.seed ^ 0x17e5);
    let world = Arc::new(world);
    let n = cfg.threads.max(1) as usize;
    let barrier = Arc::new(Barrier::new(n));
    let frame_secs = Arc::new(parking_lot_free_vec(cfg.frames as usize));

    let per_thread_stats: Vec<ThreadStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n as u16)
            .map(|t| {
                let tm = Arc::clone(tm);
                let world = Arc::clone(&world);
                let barrier = Arc::clone(&barrier);
                let frame_secs = Arc::clone(&frame_secs);
                let cfg = *cfg;
                s.spawn(move || {
                    let mut ctx = tm.register_as(ThreadId(t));
                    for frame in 0..cfg.frames {
                        barrier.wait();
                        let t0 = Instant::now();
                        for id in cfg.share(t) {
                            let action = cfg
                                .action(frame, id, || world.players[id as usize].load_quiesced());
                            ctx.atomically(action.txn(), |tx| action.run(&world, tx, id));
                        }
                        barrier.wait();
                        // Thread 0 owns the frame clock: the frame is done
                        // when every thread has passed the second barrier.
                        if t == 0 {
                            frame_secs.set(frame as usize, t0.elapsed().as_secs_f64());
                        }
                    }
                    ctx.take_stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    FrameResult {
        frame_secs: frame_secs.take(),
        per_thread_stats,
        audit_failures: world.audit(),
    }
}

/// A fixed-size slot vector writable from one thread per slot without
/// locking (thread 0 writes each frame slot exactly once).
struct SlotVec(Vec<std::sync::atomic::AtomicU64>);

fn parking_lot_free_vec(n: usize) -> SlotVec {
    SlotVec((0..n).map(|_| std::sync::atomic::AtomicU64::new(0)).collect())
}

impl SlotVec {
    fn set(&self, i: usize, secs: f64) {
        self.0[i].store(secs.to_bits(), std::sync::atomic::Ordering::Relaxed);
    }

    fn take(&self) -> Vec<f64> {
        self.0
            .iter()
            .map(|a| f64::from_bits(a.load(std::sync::atomic::Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_libtm::LibTmConfig;

    fn quick_cfg(threads: u16, quest: QuestLayout) -> GameConfig {
        GameConfig {
            threads,
            players: 48,
            frames: 12,
            map_size: 256,
            cell_size: 64,
            quest,
            seed: 5,
            speed: 24,
            attack_pct: 30,
            pickup_pct: 10,
            items: 16,
        }
    }

    #[test]
    fn game_runs_and_world_stays_consistent() {
        let tm = LibTm::new(LibTmConfig::default());
        let r = run_game(&tm, &quick_cfg(2, QuestLayout::Quadrants4));
        assert_eq!(r.frame_secs.len(), 12);
        assert!(r.frame_secs.iter().all(|&s| s > 0.0));
        assert_eq!(r.audit_failures, 0, "cell bookkeeping is consistent");
    }

    #[test]
    fn shares_partition_the_players() {
        let cfg = quick_cfg(5, QuestLayout::Quadrants4);
        let ids: Vec<u32> = (0..5).flat_map(|t| cfg.share(t)).collect();
        assert_eq!(ids, (0..cfg.players).collect::<Vec<_>>());
    }

    #[test]
    fn overlap_count_is_pure_and_needs_two_threads() {
        let cfg = quick_cfg(3, QuestLayout::WorstCase4);
        let counts = cross_thread_overlaps(&cfg);
        assert_eq!(counts.len(), 12, "one count per frame");
        assert!(counts.iter().sum::<u64>() > 0);
        assert_eq!(
            counts,
            cross_thread_overlaps(&cfg),
            "no state outside the config"
        );
        let solo = cross_thread_overlaps(&quick_cfg(1, QuestLayout::WorstCase4));
        assert!(
            solo.iter().all(|&n| n == 0),
            "one thread has no cross-thread pair"
        );
    }

    #[test]
    fn worst_case_layout_generates_contention() {
        let tm = LibTm::new(LibTmConfig {
            yield_prob_log2: Some(2),
        });
        let mut cfg = quick_cfg(4, QuestLayout::WorstCase4);
        cfg.frames = 30;
        let r = run_game(&tm, &cfg);
        assert_eq!(r.audit_failures, 0);
        let stats = r.merged_stats();
        assert!(stats.commits > 0);
        // With everyone herded onto one spot, some conflicts must occur.
        assert!(
            stats.aborts > 0,
            "expected contention under 4worst_case (commits {})",
            stats.commits
        );
    }

    #[test]
    fn players_converge_on_their_quads() {
        let tm = LibTm::new(LibTmConfig::default());
        let mut cfg = quick_cfg(2, QuestLayout::Quadrants4);
        cfg.frames = 40;
        cfg.attack_pct = 0; // pure movement
        let r = run_game(&tm, &cfg);
        // Pure movement keeps every player in exactly one cell.
        assert_eq!(r.audit_failures, 0);
        assert_eq!(r.frame_secs.len(), 40);
    }
}
