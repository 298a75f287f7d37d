//! Property tests for the detector: structural invariants that must hold
//! for *any* traffic pattern, not just the scenarios we thought of. The
//! single-unit invariants live beside the unit code, in
//! `crates/core/src/detector/invariants.rs`.

use outage_core::{fuse_timelines, Belief, BeliefClamp, DetectorConfig, PassiveDetector};
use outage_types::rng::{cases, SmallRng};
use outage_types::{Interval, IntervalSet, Observation, Prefix, Timeline, UnixTime};

const DAY: u64 = 86_400;

#[test]
fn belief_always_in_clamp_range() {
    cases(64, 4, |rng| {
        let counts = rng.vec(1..200, |rng| rng.gen_range(0u64..50));
        let cfg = DetectorConfig::default();
        let mut b = Belief::new(&cfg);
        for n in counts {
            let v = b.update_bin(n, 12.0, 0.12, BeliefClamp::new(&cfg));
            assert!(v >= cfg.belief_floor - 1e-12);
            assert!(v <= cfg.belief_ceiling + 1e-12);
            assert!((Belief::bin_llr(n, 12.0, 0.12)).is_finite());
        }
    });
}

#[test]
fn fuse_timelines_quorum_monotone() {
    cases(64, 5, |rng| {
        let (downs_a, downs_b, downs_c) = (arb_downs(rng), arb_downs(rng), arb_downs(rng));
        let w = Interval::from_secs(0, DAY);
        let tls = [
            Timeline::from_down(w, downs_a),
            Timeline::from_down(w, downs_b),
            Timeline::from_down(w, downs_c),
        ];
        let q1 = fuse_timelines(&tls, 1);
        let q2 = fuse_timelines(&tls, 2);
        let q3 = fuse_timelines(&tls, 3);
        // higher quorum ⇒ less down time, and nesting holds
        assert!(q3.down_secs() <= q2.down_secs());
        assert!(q2.down_secs() <= q1.down_secs());
        assert_eq!(q3.down.intersect(&q1.down).total(), q3.down.total());
        // q1 is exactly the union, q3 exactly the intersection
        let union = tls[0].down.union(&tls[1].down).union(&tls[2].down);
        assert_eq!(q1.down.total(), union.total());
        let inter = tls[0].down.intersect(&tls[1].down).intersect(&tls[2].down);
        assert_eq!(q3.down.total(), inter.total());
    });
}

#[test]
fn pipeline_covered_plus_uncovered_equals_observed() {
    cases(64, 6, |rng| {
        let seeds = rng.vec(1..6, |rng| rng.gen_range(1u64..1000));
        // Synthetic multi-block streams with varying densities: the plan
        // must account for every observed block exactly once.
        let window = Interval::from_secs(0, DAY);
        let mut obs: Vec<Observation> = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            let b = Prefix::v4_raw(0x0A00_0000 + ((i as u32) << 8), 24);
            let period = 10 + (seed % 5_000);
            for t in (0..DAY).step_by(period as usize) {
                obs.push(Observation::new(UnixTime(t), b));
            }
        }
        obs.sort();
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = det.run_slice(&obs, window);
        let observed_blocks = seeds.len();
        assert_eq!(
            report.covered_blocks() + report.uncovered.len(),
            observed_blocks
        );
        // every covered block appears in exactly one unit's member list
        let mut seen = std::collections::HashSet::new();
        for members in &report.members {
            for m in members {
                assert!(seen.insert(*m), "block {m} in two units");
            }
        }
    });
}

fn arb_downs(rng: &mut SmallRng) -> IntervalSet {
    IntervalSet::from_intervals(rng.vec(0..6, |rng| {
        let (s, d) = (rng.gen_range(0u64..DAY), rng.gen_range(300u64..7_200));
        Interval::from_secs(s, (s + d).min(DAY))
    }))
}
