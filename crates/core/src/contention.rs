//! Conflict provenance: lock-free hot-address contention sketches and a
//! thread×thread conflict matrix.
//!
//! The paper's thesis is that commit-time conflicts drive execution
//! variance, but counters alone say only *how many* aborts happened — not
//! *where*. This module attributes every abort to the memory location it
//! was detected on (when the backend knows one) and to the `(victim,
//! owner)` thread pair (when the abort cause carries an owner), so the
//! analyzer can rank hot addresses and conflicting thread pairs.
//!
//! # Design
//!
//! A [`ContentionTracker`] holds one cell per thread in a [`PerThread`]
//! table — the same slot type as the telemetry counters: with at most
//! [`SLOTS`] worker threads every cell has a single writer, so the
//! record path needs only relaxed atomics and never a lock or an
//! allocation. Each cell contains:
//!
//! * a **space-saving top-K sketch** (Metwally et al.) over conflict
//!   addresses: `SKETCH_SLOTS` `(addr, count, err)` slots. A recorded
//!   address that matches a slot increments it; a miss claims an empty
//!   slot; when the table is full the *minimum-count* slot is evicted and
//!   the newcomer inherits its count as an over-count bound (`err`).
//!   Every record performs exactly one `+1`, so **Σ slot counts == number
//!   of attributed records** — the conservation law the analyzer's
//!   `contention_partition` check relies on. The classic guarantee
//!   holds: any address with true frequency > N/K occupies a slot, and
//!   every slot over-counts by at most `err ≤ N/K`.
//! * a **conflict-matrix row**: `pairs[owner]` counts aborts this cell's
//!   thread (the victim) suffered at the hands of `owner`, harvested
//!   from [`AbortCause::ReadLocked`], [`AbortCause::CommitLockBusy`] and
//!   [`AbortCause::AbortedByWriter`]. Every other record — an
//!   owner-bearing cause whose owner was not observed, or an inherently
//!   ownerless cause (version/validation failure, explicit abort) —
//!   lands in `owner_unknown`, so the matrix plus `owner_unknown`
//!   partitions the recorded total exactly.
//! * `attributed` / `unattributed` totals: every recorded abort
//!   increments exactly one of the two, making
//!   `attributed + unattributed == total aborts` exact.
//!
//! Merging happens only on the cold snapshot path
//! ([`ContentionTracker::snapshot`]), like the PR 1 abort shards: per-cell
//! sketches are summed by address, ranked, and the mass beyond
//! `EXPORT_TOP_K` is folded into an explicit `residual` so
//! `Σ top counts + residual == attributed` stays exact after truncation.
//!
//! When disabled the backends hold `None` and the abort path pays one
//! predictable branch — the same zero-cost idiom as telemetry and fault
//! injection.

use crate::events::{AbortCause, ConflictSite};
use crate::ids::ThreadId;
use crate::sync::{slot_of, PerThread, SLOTS};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots per space-saving sketch cell. The error bound on any reported
/// count is at most `attributed_in_cell / SKETCH_SLOTS`.
const SKETCH_SLOTS: usize = 32;

/// How many merged hot addresses a snapshot exports; the rest of the
/// sketch mass is folded into [`ContentionStats::residual`].
const EXPORT_TOP_K: usize = 16;

/// One thread's contention cell: a space-saving sketch plus a
/// conflict-matrix row. Runs with more threads than [`SLOTS`] share
/// cells: counts stay conserved, only per-thread attribution coarsens.
struct Cell {
    /// Sketch slot addresses (0 = empty).
    slot_addr: [AtomicUsize; SKETCH_SLOTS],
    /// Sketch slot counts.
    slot_count: [AtomicU64; SKETCH_SLOTS],
    /// Sketch slot over-count bounds (count inherited at eviction).
    slot_err: [AtomicU64; SKETCH_SLOTS],
    /// Conflict-matrix row: aborts of this cell's thread by owner column
    /// (owner id masked into the slot space).
    pairs: [AtomicU64; SLOTS],
    /// Aborts recorded with a known conflict address.
    attributed: AtomicU64,
    /// Aborts recorded without one.
    unattributed: AtomicU64,
    /// Space-saving evictions (sketch saturation signal).
    replacements: AtomicU64,
    /// Owner-bearing aborts whose owner was not observed.
    owner_unknown: AtomicU64,
}

impl Cell {
    fn new() -> Self {
        Cell {
            slot_addr: std::array::from_fn(|_| AtomicUsize::new(0)),
            slot_count: std::array::from_fn(|_| AtomicU64::new(0)),
            slot_err: std::array::from_fn(|_| AtomicU64::new(0)),
            pairs: std::array::from_fn(|_| AtomicU64::new(0)),
            attributed: AtomicU64::new(0),
            unattributed: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
            owner_unknown: AtomicU64::new(0),
        }
    }

    /// The space-saving update. Single-writer per cell (threads are
    /// sharded), so plain relaxed loads/stores suffice; a concurrent
    /// snapshot may observe one update mid-flight, which is why
    /// [`ContentionTracker::snapshot`] is documented as quiesced-exact.
    fn record_addr(&self, addr: usize) {
        // One multiplicative hash picks the probe start; the scan wraps
        // over the whole (small) table tracking the match, the first
        // empty slot, and the minimum-count victim in a single pass.
        let start = (addr.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) & (SKETCH_SLOTS - 1);
        let mut empty = None;
        let mut min_i = 0usize;
        let mut min_count = u64::MAX;
        for probe in 0..SKETCH_SLOTS {
            let i = (start + probe) & (SKETCH_SLOTS - 1);
            let a = self.slot_addr[i].load(Ordering::Relaxed);
            if a == addr {
                let c = self.slot_count[i].load(Ordering::Relaxed);
                self.slot_count[i].store(c + 1, Ordering::Relaxed);
                return;
            }
            if a == 0 {
                if empty.is_none() {
                    empty = Some(i);
                }
                // An empty slot counts as the cheapest eviction victim;
                // prefer it outright via the `empty` fast path below.
                continue;
            }
            let c = self.slot_count[i].load(Ordering::Relaxed);
            if c < min_count {
                min_count = c;
                min_i = i;
            }
        }
        if let Some(i) = empty {
            self.slot_addr[i].store(addr, Ordering::Relaxed);
            self.slot_count[i].store(1, Ordering::Relaxed);
            self.slot_err[i].store(0, Ordering::Relaxed);
            return;
        }
        // Full table: evict the minimum. The newcomer inherits the
        // victim's count (+1 for this record) and records it as its
        // over-count bound — the conservation-preserving classic move.
        self.replacements.fetch_add(1, Ordering::Relaxed);
        self.slot_addr[min_i].store(addr, Ordering::Relaxed);
        self.slot_err[min_i].store(min_count, Ordering::Relaxed);
        self.slot_count[min_i].store(min_count + 1, Ordering::Relaxed);
    }
}

/// Lock-free conflict-provenance recorder. See the module docs for the
/// layout; construct one per run and attach it to the backend through
/// [`crate::Builder::contention`] (TL2's `StmBuilder`, LibTM's
/// `LibTmBuilder`), then
/// [`snapshot`](ContentionTracker::snapshot) after the run quiesces.
pub struct ContentionTracker {
    cells: PerThread<Cell>,
}

impl Default for ContentionTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentionTracker {
    /// A fresh tracker with all-zero cells.
    pub fn new() -> Self {
        ContentionTracker {
            cells: PerThread::new(Cell::new),
        }
    }

    /// Record one abort: `thread` is the victim, `cause` the abort cause
    /// (its owner, if any, feeds the conflict matrix), `site` the
    /// conflicting location (unknown sites count as unattributed).
    ///
    /// Hot path: one mask, one or two relaxed `fetch_add`s, and — for
    /// attributed aborts — one hash plus a bounded array probe. No
    /// allocation, no locks.
    #[inline]
    pub(crate) fn record(&self, thread: ThreadId, cause: AbortCause, site: ConflictSite) {
        let cell = self.cells.get(thread.index());
        match cause {
            AbortCause::ReadLocked { owner: Some(o) }
            | AbortCause::CommitLockBusy { owner: Some(o) }
            | AbortCause::AbortedByWriter { writer: Some(o) } => {
                cell.pairs[slot_of(o.index())].fetch_add(1, Ordering::Relaxed);
            }
            // Owner-less records (version/validation failures see only a
            // stale version, never who wrote it; explicit aborts have no
            // adversary) still land in exactly one matrix bucket, so
            // `Σ pairs + owner_unknown` partitions the recorded total
            // the same way `attributed + unattributed` does.
            _ => {
                cell.owner_unknown.fetch_add(1, Ordering::Relaxed);
            }
        }
        match site.addr() {
            Some(addr) => {
                cell.attributed.fetch_add(1, Ordering::Relaxed);
                cell.record_addr(addr);
            }
            None => {
                cell.unattributed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Merge every cell into a [`ContentionStats`]. Exact once the
    /// recording threads have quiesced (the harness snapshots after the
    /// run joins); concurrent with recording it is a consistent-enough
    /// approximation, like the telemetry counter snapshots.
    pub fn snapshot(&self) -> ContentionStats {
        // BTreeMap for deterministic iteration: two snapshots of
        // identical cells must serialize identically (the chaos-replay
        // bit-identity contract).
        let mut by_addr: std::collections::BTreeMap<usize, (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut attributed = 0u64;
        let mut unattributed = 0u64;
        let mut replacements = 0u64;
        let mut owner_unknown = 0u64;
        let mut occupied = 0u64;
        let mut pairs_acc = vec![0u64; SLOTS * SLOTS];
        for (victim, cell) in self.cells.iter().enumerate() {
            attributed += cell.attributed.load(Ordering::Relaxed);
            unattributed += cell.unattributed.load(Ordering::Relaxed);
            replacements += cell.replacements.load(Ordering::Relaxed);
            owner_unknown += cell.owner_unknown.load(Ordering::Relaxed);
            for i in 0..SKETCH_SLOTS {
                let addr = cell.slot_addr[i].load(Ordering::Relaxed);
                if addr == 0 {
                    continue;
                }
                occupied += 1;
                let e = by_addr.entry(addr).or_insert((0, 0));
                e.0 += cell.slot_count[i].load(Ordering::Relaxed);
                e.1 += cell.slot_err[i].load(Ordering::Relaxed);
            }
            for (owner, n) in cell.pairs.iter().enumerate() {
                pairs_acc[victim * SLOTS + owner] += n.load(Ordering::Relaxed);
            }
        }
        let mut ranked: Vec<HotAddr> = by_addr
            .into_iter()
            .map(|(addr, (count, err))| HotAddr { addr, count, err })
            .collect();
        // Count descending, address ascending on ties — deterministic.
        ranked.sort_by(|a, b| b.count.cmp(&a.count).then(a.addr.cmp(&b.addr)));
        let residual: u64 = ranked.iter().skip(EXPORT_TOP_K).map(|h| h.count).sum();
        ranked.truncate(EXPORT_TOP_K);
        let pairs: Vec<PairConflict> = pairs_acc
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| PairConflict {
                victim: (i / SLOTS) as u16,
                owner: (i % SLOTS) as u16,
                count: n,
            })
            .collect();
        ContentionStats {
            attributed,
            unattributed,
            residual,
            replacements,
            occupied,
            capacity: (SLOTS * SKETCH_SLOTS) as u64,
            top: ranked,
            pairs,
            owner_unknown,
        }
    }
}

/// One merged hot address: total sketch count and summed over-count
/// bound. The true frequency lies in `[count - err, count]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HotAddr {
    /// The conflicting location's stable identity (allocation address).
    pub addr: usize,
    /// Attributed aborts charged to this address (may over-count by at
    /// most `err`).
    pub count: u64,
    /// Space-saving over-count bound inherited at eviction.
    pub(crate) err: u64,
}

/// One nonzero conflict-matrix entry: `victim` aborted `count` times
/// while `owner` held the contended resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PairConflict {
    /// The aborting thread (masked into the cell space).
    pub victim: u16,
    /// The thread that held the lock / doomed the victim.
    pub owner: u16,
    /// Observed conflicts for the pair.
    pub count: u64,
}

/// A merged, export-ready view of a [`ContentionTracker`].
///
/// Invariants (exact when snapshotted quiesced):
/// * `Σ top[i].count + residual == attributed`
/// * `attributed + unattributed ==` total aborts recorded
/// * `Σ pairs[i].count + owner_unknown ==` total aborts recorded
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ContentionStats {
    /// Aborts recorded with a known conflict address.
    pub attributed: u64,
    /// Aborts recorded without one.
    pub unattributed: u64,
    /// Attributed mass beyond the exported top-K.
    pub residual: u64,
    /// Space-saving evictions across all cells.
    pub(crate) replacements: u64,
    /// Occupied sketch slots across all cells.
    pub(crate) occupied: u64,
    /// Total sketch slots (`crate::sync::SLOTS * SKETCH_SLOTS`).
    pub(crate) capacity: u64,
    /// The merged top-K hot addresses, count-descending.
    pub top: Vec<HotAddr>,
    /// Nonzero conflict-matrix entries, (victim, owner)-ascending.
    pub pairs: Vec<PairConflict>,
    /// Records outside the matrix: owner-bearing aborts whose owner was
    /// not observed, plus inherently ownerless causes.
    pub owner_unknown: u64,
}

impl ContentionStats {
    /// Total aborts recorded.
    pub fn total(&self) -> u64 {
        self.attributed + self.unattributed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(addr: usize) -> ConflictSite {
        ConflictSite::at(addr)
    }

    fn t(i: u16) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn counts_partition_attributed_and_unattributed() {
        let ct = ContentionTracker::new();
        for i in 0..10 {
            ct.record(t(0), AbortCause::Validation, site(0x1000 + i * 8));
        }
        for _ in 0..3 {
            ct.record(t(1), AbortCause::ReadVersion, ConflictSite::UNKNOWN);
        }
        let s = ct.snapshot();
        assert_eq!(s.attributed, 10);
        assert_eq!(s.unattributed, 3);
        assert_eq!(s.total(), 13);
        let top_sum: u64 = s.top.iter().map(|h| h.count).sum();
        assert_eq!(top_sum + s.residual, s.attributed);
    }

    #[test]
    fn heavy_hitter_dominates_the_report() {
        let ct = ContentionTracker::new();
        let hot = 0xdead_0000usize;
        for i in 0..500u64 {
            ct.record(t(0), AbortCause::Validation, site(hot));
            // Interleave cold addresses to stress the sketch.
            ct.record(t(0), AbortCause::Validation, site(0x10_0000 + (i as usize) * 8));
        }
        let s = ct.snapshot();
        assert_eq!(s.top[0].addr, hot, "heavy hitter must rank first");
        assert!(
            s.top[0].count >= 500,
            "space-saving never under-counts a resident address: {}",
            s.top[0].count
        );
        // Over-count bound: err ≤ N/K.
        assert!(
            s.top[0].err <= 1000 / SKETCH_SLOTS as u64,
            "error bound violated: err={} N/K={}",
            s.top[0].err,
            1000 / SKETCH_SLOTS as u64
        );
    }

    #[test]
    fn adversarial_stream_keeps_the_error_bound_and_conservation() {
        // An adversarial rotation designed to force constant eviction:
        // every address reappears just after it was most likely evicted.
        let ct = ContentionTracker::new();
        let n_addrs = SKETCH_SLOTS * 3;
        let rounds = 40u64;
        for r in 0..rounds {
            for a in 0..n_addrs {
                // Skew: address 0 shows up twice as often.
                ct.record(t(0), AbortCause::Validation, site(0x8000 + a * 16));
                if a == 0 && r % 2 == 0 {
                    ct.record(t(0), AbortCause::Validation, site(0x8000));
                }
            }
        }
        let s = ct.snapshot();
        let n = s.attributed;
        // Conservation survives arbitrary eviction pressure.
        let top_sum: u64 = s.top.iter().map(|h| h.count).sum();
        assert_eq!(top_sum + s.residual, n);
        // Every exported count over-counts by at most its err, and err is
        // bounded by N/K.
        for h in &s.top {
            assert!(h.err <= n / SKETCH_SLOTS as u64, "{h:?} vs N/K={}", n / SKETCH_SLOTS as u64);
            assert!(h.count >= h.err, "count bounds its own error: {h:?}");
        }
        assert!(s.replacements > 0, "the adversarial stream must evict");
        assert!(s.replacements < s.attributed);
    }

    #[test]
    fn conflict_matrix_partitions_owner_bearing_causes() {
        let ct = ContentionTracker::new();
        // 5 with a known owner, 2 owner-bearing but unknown, 3 ownerless.
        for _ in 0..3 {
            ct.record(
                t(2),
                AbortCause::ReadLocked { owner: Some(t(5)) },
                site(0x100),
            );
        }
        for _ in 0..2 {
            ct.record(
                t(2),
                AbortCause::AbortedByWriter { writer: Some(t(7)) },
                ConflictSite::UNKNOWN,
            );
        }
        for _ in 0..2 {
            ct.record(t(3), AbortCause::CommitLockBusy { owner: None }, site(0x200));
        }
        for _ in 0..3 {
            ct.record(t(3), AbortCause::Validation, site(0x300));
        }
        let s = ct.snapshot();
        let pair_sum: u64 = s.pairs.iter().map(|p| p.count).sum();
        assert_eq!(pair_sum, 5);
        assert_eq!(s.owner_unknown, 5, "unknown owners and ownerless causes both land here");
        assert_eq!(pair_sum + s.owner_unknown, s.total(), "matrix partitions the total");
        assert!(s
            .pairs
            .contains(&PairConflict { victim: 2, owner: 5, count: 3 }));
        assert!(s
            .pairs
            .contains(&PairConflict { victim: 2, owner: 7, count: 2 }));
    }

    #[test]
    fn concurrent_recording_conserves_every_count() {
        // Randomized schedules: each thread records a seeded mix of
        // attributed/unattributed aborts; the merged totals must equal
        // the per-thread sums exactly (single-writer cells, no lost
        // updates).
        let ct = std::sync::Arc::new(ContentionTracker::new());
        let threads = 8u16;
        let per = 2000u64;
        let recorded: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|id| {
                    let ct = std::sync::Arc::clone(&ct);
                    s.spawn(move || {
                        let mut rng = 0x9e37_79b9u64
                            .wrapping_mul(id as u64 + 1)
                            .wrapping_add(12345);
                        let (mut attr, mut unattr) = (0u64, 0u64);
                        for _ in 0..per {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            if rng.is_multiple_of(4) {
                                ct.record(t(id), AbortCause::ReadVersion, ConflictSite::UNKNOWN);
                                unattr += 1;
                            } else {
                                let addr = 0x4000 + ((rng >> 8) % 200) as usize * 8;
                                ct.record(
                                    t(id),
                                    AbortCause::ReadLocked { owner: Some(t((id + 1) % threads)) },
                                    site(addr),
                                );
                                attr += 1;
                            }
                            if rng.is_multiple_of(16) {
                                std::thread::yield_now();
                            }
                        }
                        (attr, unattr)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = ct.snapshot();
        let attr: u64 = recorded.iter().map(|r| r.0).sum();
        let unattr: u64 = recorded.iter().map(|r| r.1).sum();
        assert_eq!(s.attributed, attr, "attributed conservation");
        assert_eq!(s.unattributed, unattr, "unattributed conservation");
        let top_sum: u64 = s.top.iter().map(|h| h.count).sum();
        assert_eq!(top_sum + s.residual, attr, "sketch conservation");
        let pair_sum: u64 = s.pairs.iter().map(|p| p.count).sum();
        assert_eq!(pair_sum + s.owner_unknown, attr + unattr, "matrix conservation");
        assert_eq!(s.owner_unknown, unattr, "only the ownerless records fall outside the matrix");
    }

    #[test]
    fn snapshots_of_identical_streams_are_bit_identical() {
        let run = |seed: u64| {
            let ct = ContentionTracker::new();
            let mut rng = seed | 1;
            for _ in 0..5000 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let thread = t((rng % 4) as u16);
                let addr = 0x7000 + ((rng >> 16) % 300) as usize * 8;
                ct.record(
                    thread,
                    AbortCause::CommitLockBusy { owner: Some(t(((rng >> 3) % 4) as u16)) },
                    site(addr),
                );
            }
            ct.snapshot()
        };
        assert_eq!(run(42), run(42), "same stream, same snapshot");
        // `| 1` in the runner means consecutive even/odd seeds collide; pick
        // seeds that stay distinct after the low bit is forced on.
        assert_ne!(run(42), run(1096), "different streams differ");
    }

    #[test]
    fn empty_tracker_snapshot_is_empty() {
        let s = ContentionTracker::new().snapshot();
        assert_eq!(s.total(), 0);
        assert_eq!(s.top.len(), 0);
        assert_eq!(s.pairs.len(), 0);
        assert_eq!(s.replacements, 0);
        assert_eq!(s.capacity, (SLOTS * SKETCH_SLOTS) as u64);
    }
}
