//! Quest layouts: time-varying player attractors.
//!
//! A quest is a point of interest players walk toward; placing quests
//! close together packs players into few spatial cells and raises
//! transactional contention. The paper trains its model on `4worst_case`
//! and `4moving` and tests on `4quadrants` and `4center_spread6`.

/// The four quest layouts from the paper's SynQuake experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuestLayout {
    /// All four quests on the map center: maximum player pile-up
    /// (training input).
    WorstCase4,
    /// Four quests orbiting the center (training input).
    Moving4,
    /// One quest per map quadrant (test input).
    Quadrants4,
    /// Quests start at the center and spread outward in a 6-phase cycle
    /// (test input).
    CenterSpread6,
}

impl QuestLayout {
    /// The paper's name for the layout.
    pub fn name(&self) -> &'static str {
        match self {
            QuestLayout::WorstCase4 => "4worst_case",
            QuestLayout::Moving4 => "4moving",
            QuestLayout::Quadrants4 => "4quadrants",
            QuestLayout::CenterSpread6 => "4center_spread6",
        }
    }

    /// Position of quest `q` (0..4) at frame `frame` on a `size`×`size`
    /// map.
    pub(crate) fn position(&self, q: usize, frame: u64, size: u32) -> (u32, u32) {
        let s = size as f64;
        let center = (s / 2.0, s / 2.0);
        let quadrant = |q: usize| {
            let fx = if q.is_multiple_of(2) { 0.25 } else { 0.75 };
            let fy = if q / 2 == 0 { 0.25 } else { 0.75 };
            (s * fx, s * fy)
        };
        let (x, y) = match self {
            QuestLayout::WorstCase4 => center,
            QuestLayout::Moving4 => {
                // Orbit the center with radius s/4, one quarter-turn phase
                // offset per quest.
                let angle = (frame as f64) / 40.0 + (q as f64) * std::f64::consts::FRAC_PI_2;
                (
                    center.0 + s / 4.0 * angle.cos(),
                    center.1 + s / 4.0 * angle.sin(),
                )
            }
            QuestLayout::Quadrants4 => quadrant(q),
            QuestLayout::CenterSpread6 => {
                // 6-phase cycle: phase 0 = all at center, phase 5 = fully
                // spread into quadrants, then snap back.
                let phase = (frame / 6) % 6;
                let t = phase as f64 / 5.0;
                let (qx, qy) = quadrant(q);
                (
                    center.0 + (qx - center.0) * t,
                    center.1 + (qy - center.1) * t,
                )
            }
        };
        (
            (x.clamp(0.0, s - 1.0)) as u32,
            (y.clamp(0.0, s - 1.0)) as u32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZE: u32 = 1024;

    #[test]
    fn worst_case_stacks_all_quests_at_center() {
        for q in 0..4 {
            assert_eq!(
                QuestLayout::WorstCase4.position(q, 7, SIZE),
                (SIZE / 2, SIZE / 2)
            );
        }
    }

    #[test]
    fn quadrants_are_distinct_and_static() {
        let ps: Vec<(u32, u32)> = (0..4)
            .map(|q| QuestLayout::Quadrants4.position(q, 0, SIZE))
            .collect();
        let distinct: std::collections::HashSet<_> = ps.iter().collect();
        assert_eq!(distinct.len(), 4);
        for (q, &p) in ps.iter().enumerate() {
            assert_eq!(p, QuestLayout::Quadrants4.position(q, 999, SIZE));
        }
    }

    #[test]
    fn moving_quests_move_over_time() {
        let a = QuestLayout::Moving4.position(0, 0, SIZE);
        let b = QuestLayout::Moving4.position(0, 100, SIZE);
        assert_ne!(a, b);
    }

    #[test]
    fn center_spread_starts_at_center_and_spreads() {
        for q in 0..4 {
            assert_eq!(
                QuestLayout::CenterSpread6.position(q, 0, SIZE),
                (SIZE / 2, SIZE / 2)
            );
        }
        // Phase 5 (frames 30..35): fully spread to quadrants.
        let spread: std::collections::HashSet<_> = (0..4)
            .map(|q| QuestLayout::CenterSpread6.position(q, 30, SIZE))
            .collect();
        assert_eq!(spread.len(), 4);
    }

    #[test]
    fn positions_stay_on_the_map() {
        for layout in [
            QuestLayout::WorstCase4,
            QuestLayout::Moving4,
            QuestLayout::Quadrants4,
            QuestLayout::CenterSpread6,
        ] {
            for frame in (0..200).step_by(13) {
                for q in 0..4 {
                    let (x, y) = layout.position(q, frame, SIZE);
                    assert!(x < SIZE && y < SIZE);
                }
            }
        }
    }
}
