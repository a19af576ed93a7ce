//! Seeded splitmix64 PRNG — the single shared randomness source for every
//! deterministic replay/interleaving harness in the repo.
//!
//! PR 4 introduced this generator inline in `tests/tests/schedule_replay.rs`
//! to drive N logical threads on one OS thread; PR 5's chaos suite and the
//! tier-1 quickcheck harness each grew their own copy. The model checker
//! (`mck`) needs it too — for seeded conformance schedules that drive the
//! abstract machine and the real `GuidedHook` in lockstep — so the
//! implementation now lives here and the test suites import it.
//!
//! Splitmix64 is used because it is tiny, has no external dependencies, is
//! stable across platforms (pure wrapping integer arithmetic), and every
//! stream is a pure function of its seed — which is exactly the property
//! the replay suites assert ("same seed ⇒ bit-identical execution").

/// The splitmix64 increment (2^64 / φ).
pub(crate) const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output finalizer alone: two xor-shift-multiply rounds
/// and a final xor-shift. A bijection on `u64`.
#[inline]
pub(crate) fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One splitmix64 step as a pure hash: `finalize(x + GOLDEN)`, i.e. the
/// first draw of `SplitMix64::new(x)`. The seeded input generators of
/// STAMP and SynQuake derive every value from it.
#[inline]
pub fn mix64(x: u64) -> u64 {
    finalize(x.wrapping_add(GOLDEN))
}

/// Splitmix64 generator (Steele, Lea & Flood; the `java.util.SplittableRandom`
/// output function). One `u64` of state, two xor-multiply rounds per draw.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed the stream. Distinct seeds give independent-looking streams;
    /// the same seed always reproduces the same sequence.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    #[expect(
        clippy::should_implement_trait,
        reason = "an infinite stream: returns u64, not Option<u64>"
    )]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        finalize(self.0)
    }

    /// Uniform-ish draw in `0..n` (modulo bias is irrelevant for schedule
    /// scripting; what matters is determinism). `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Interleave injection, owned by one STM thread context: a seeded coin
/// that yields the OS thread at transaction begin (p = 1/2) and at every
/// transactional access (p = `2^-k`). This substitutes for the paper's
/// 8/16-core hardware: with fewer cores than workers, an OS timeslice
/// outlasts many transactions, so lifetimes would barely overlap and the
/// races the paper studies would not occur. With injection off each
/// probe is one branch and draws nothing. The state is a `Cell`, so an
/// in-flight transaction holds the injector by shared reference.
pub struct Interleave {
    rng: std::cell::Cell<SplitMix64>,
    /// `2^k - 1`: an access yields when the draw's low `k` bits are zero.
    mask: Option<u64>,
}

impl Interleave {
    /// `thread`'s injector at per-access probability `2^-prob_log2`
    /// (`None` disables it); each thread draws its own stream.
    pub fn for_thread(prob_log2: Option<u32>, thread: crate::ThreadId) -> Self {
        let seed = GOLDEN ^ ((thread.0 as u64) << 32 | 0x1234_5678);
        Interleave {
            rng: std::cell::Cell::new(SplitMix64::new(seed)),
            mask: prob_log2.map(|k| (1u64 << k) - 1),
        }
    }

    fn draw(&self) -> u64 {
        let mut rng = self.rng.replace(SplitMix64::new(0));
        let x = rng.next();
        self.rng.set(rng);
        x
    }

    /// Begin-time injection point: yield with p = 1/2.
    #[inline]
    pub(crate) fn at_begin(&self) {
        if self.mask.is_some() && self.draw() & 1 == 0 {
            std::thread::yield_now();
        }
    }

    /// Per-access injection point: yield with p = `2^-k`.
    #[inline]
    pub fn at_access(&self) {
        if let Some(mask) = self.mask {
            if self.draw() & mask == 0 {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(0xfeed);
        let mut b = SplitMix64::new(0xfeed);
        for _ in 0..64 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn known_answer_is_stable_across_platforms() {
        // First three outputs for seed 0 — pinned so an accidental edit to
        // the constants breaks loudly instead of silently re-seeding every
        // replay suite in the repo.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn interleave_draws_only_when_armed() {
        use crate::ThreadId;
        let fresh = |k| Interleave::for_thread(k, ThreadId(3)).draw();
        let off = Interleave::for_thread(None, ThreadId(3));
        off.at_begin();
        off.at_access();
        assert_eq!(off.draw(), fresh(None), "disabled probes draw nothing");
        let on = Interleave::for_thread(Some(30), ThreadId(3));
        on.at_begin();
        on.at_access();
        let twice_advanced = Interleave::for_thread(Some(30), ThreadId(3));
        twice_advanced.draw();
        twice_advanced.draw();
        assert_eq!(on.draw(), twice_advanced.draw(), "one draw per probe");
        let other_thread = Interleave::for_thread(None, ThreadId(4));
        assert_ne!(fresh(None), other_thread.draw());
    }

    #[test]
    fn below_stays_in_range_and_hits_everything_small() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.below(5) as usize;
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "5-way draw missed a bucket in 200 tries");
    }
}
