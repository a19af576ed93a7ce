//! # gstm-synquake — a SynQuake-style multiplayer game server workload
//!
//! SynQuake (Lupei et al., PPoPP'10) is a 2-D re-implementation of the
//! Quake 3 server used to study transactional parallelization of game
//! logic; the paper uses it (on LibTM) as its real-world workload. The
//! original is closed source; this crate rebuilds the documented setup:
//!
//! * a 1024×1024 world partitioned into spatial cells,
//! * up to 1000 players whose movement is *attracted by quests* — named
//!   hot-spots in the map that concentrate players and thus contention,
//! * the four quest layouts the paper names: `4worst_case` and `4moving`
//!   for training, `4quadrants` and `4center_spread6` for testing,
//! * server frames processed by a pool of threads inside barriers, with
//!   every player action (move between cells, attack a co-located player)
//!   an object-granularity LibTM transaction,
//! * per-frame processing-time measurement — the quantity whose variance
//!   Figures 11/12 of the paper report.
//!
//! Txn sites: 0 = move (update player + cell membership), 1 = attack
//! (hit a player sharing the cell).
//!
//! ## Example
//!
//! ```
//! use gstm_synquake::{run_game, GameConfig, QuestLayout};
//! use gstm_libtm::{LibTm, LibTmConfig};
//!
//! let tm = LibTm::new(LibTmConfig::default());
//! let cfg = GameConfig {
//!     threads: 2,
//!     players: 24,
//!     frames: 5,
//!     quest: QuestLayout::Quadrants4,
//!     ..GameConfig::default()
//! };
//! let result = run_game(&tm, &cfg);
//! assert_eq!(result.frame_secs.len(), 5);
//! assert_eq!(result.audit_failures, 0); // world stayed consistent
//! ```

#![forbid(unsafe_code)]

mod quest;
mod server;
mod world;

pub use quest::QuestLayout;
pub use server::{cross_thread_overlaps, run_game, GameConfig};
pub use world::World;
