//! The hot/cold arena against a bare [`UnitState`].
//!
//! Each seeded case drives a one-unit [`UnitArena`] and a bare
//! `UnitState` (the per-arrival code every arrival ran before the hot
//! rows existed) through the same observe / advance / skip / finish
//! sequence and requires equal reports, floats compared bit for bit.
//! The batch ≡ streaming ≡ parallel equivalence suites cannot catch a
//! fast-path fault, because all three paths share the arena; this test
//! can. The generator reads the arena's hot row to land arrivals
//! exactly on bin ends and on the gap trigger, the edges where a wrong
//! fast path shows.

use super::UnitArena;
use crate::config::{DetectorConfig, EvidenceConfig};
use crate::detector::{UnitPolicy, UnitReport, UnitState};
use crate::evidence::{enrolls, UnitEvidence};
use crate::tuning::UnitParams;
use outage_types::rng::{cases, SmallRng};
use outage_types::{Interval, Prefix, UnixTime};

const CASES: u64 = 6_000;

/// `10^x` for `x` uniform in `[lo, hi)`.
fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    10f64.powf(lo + (hi - lo) * rng.gen::<f64>())
}

/// One drawn unit: its config, parameters, shape and window.
struct Case {
    config: DetectorConfig,
    params: UnitParams,
    shape: [f64; 24],
    window: Interval,
}

fn draw_case(rng: &mut SmallRng) -> Case {
    let exact = rng.gen_bool(0.75);
    let config = DetectorConfig {
        diurnal_model: rng.gen_bool(0.60),
        use_exact_timestamps: exact,
        min_gap_outage_secs: [0, 2, 30, 60, 300][rng.gen_range(0..5usize)],
        gap_margin_log_odds: [0.0, 1000f64.ln(), 3.0 * rng.gen::<f64>()][rng.gen_range(0..3usize)],
        evidence: if rng.gen_bool(0.90) {
            EvidenceConfig::Full
        } else {
            EvidenceConfig::Off
        },
        ..DetectorConfig::default()
    };
    let width = [
        30,
        60,
        300,
        600,
        3_600,
        7_200,
        1 + rng.gen_range(0..20_000u64),
    ][rng.gen_range(0..7usize)];
    let lambda = log_uniform(rng, -4.0, 0.5);
    // Tiny leaks make a gap decisive exactly at the trigger; realistic
    // ones (1 % of λ) leave a margin above it.
    let leak = lambda
        * match rng.gen_range(0..3u64) {
            0 => log_uniform(rng, -13.0, -9.0),
            1 => 0.01,
            _ => log_uniform(rng, -6.0, -1.0),
        };
    let mut shape = [1.0; 24];
    if rng.gen_bool(0.70) {
        for s in &mut shape {
            *s = match rng.gen_range(0..10u64) {
                0 => 0.0,
                1 => 1e-300,
                2 => f64::from_bits(1 + rng.gen_range(0..1u64 << 20)), // subnormal
                _ => 3.0 * rng.gen::<f64>(),
            };
        }
    }
    let start = 1 + rng.gen_range(0..1u64 << 31);
    let len = width * (1 + rng.gen_range(0..40u64)) + rng.gen_range(0..width);
    Case {
        config,
        params: UnitParams {
            width,
            lambda,
            leak,
        },
        shape,
        window: Interval::from_secs(start, start + len),
    }
}

/// The same unit twice: in a one-unit arena, and as a bare state.
struct Pair {
    arena: UnitArena,
    bare: UnitState,
    ring: Option<UnitEvidence>,
    shape: [f64; 24],
    policy: UnitPolicy,
}

impl Pair {
    fn new(case: &Case, prefix: Prefix) -> Pair {
        Pair {
            arena: UnitArena::single(&case.config, prefix, case.params, case.shape, case.window),
            bare: UnitState::new(prefix, case.params, &case.shape, &case.config),
            ring: enrolls(case.config.evidence, &prefix).then(UnitEvidence::new),
            shape: case.shape,
            policy: UnitPolicy::new(&case.config, case.window),
        }
    }

    fn observe(&mut self, t: UnixTime) {
        self.arena.observe(0, t);
        self.bare
            .observe(&self.shape, &self.policy, t, self.ring.as_mut());
    }

    fn advance(&mut self, t: UnixTime) {
        self.arena.advance_all(t);
        self.bare
            .advance_to(&self.shape, &self.policy, t, self.ring.as_mut());
    }

    fn skip(&mut self, t: UnixTime) {
        self.arena.skip_all(t);
        self.bare.skip_to(&self.policy, t, self.ring.as_mut());
    }

    fn finish(self) -> (UnitReport, UnitReport) {
        let Pair {
            arena,
            bare,
            mut ring,
            shape,
            policy,
        } = self;
        let mut reports = arena.finish_all();
        assert_eq!(reports.len(), 1);
        let bare = bare.finish(&shape, &policy, ring.as_mut());
        (reports.pop().unwrap(), bare)
    }
}

/// How often each edge the test must reach was reached.
#[derive(Debug, Default)]
struct Coverage {
    fast: u64,
    at_bin_end: u64,
    at_trigger: u64,
    below_trigger: u64,
    down_first_arrival: u64,
    down_recovered: u64,
    skips_mid_bin: u64,
    ticks_closing: u64,
    partial_tail: u64,
    gap_detections: u64,
    bin_detections: u64,
    diurnal_gaps: u64,
    flat_gaps: u64,
    no_refine: u64,
}

/// Drive one case; returns the two reports.
fn run_case(rng: &mut SmallRng, case: &Case, cov: &mut Coverage) -> (UnitReport, UnitReport) {
    let prefix: Prefix = "192.0.2.0/24".parse().unwrap();
    let mut pair = Pair::new(case, prefix);
    let (start, end) = (case.window.start.secs(), case.window.end.secs());
    let width = case.params.width;
    let mean_gap = (1.0 / case.params.lambda).min(3.0 * width as f64);
    let mut now = start + rng.gen_range(0..width.min(end - start));
    let ops = 20 + rng.gen_range(0..400u64);
    for _ in 0..ops {
        let row = pair.arena.hot[0];
        let kind = rng.gen_range(0..100u64);
        let t = match kind {
            0..=7 if row.close_at != u64::MAX => row.close_at,
            8..=11 if row.close_at != u64::MAX => row.close_at - 1,
            12..=19 if row.trigger > 0 && row.trigger < end - start => row.last + row.trigger,
            20..=23 if row.trigger > 1 && row.trigger < end - start => row.last + row.trigger - 1,
            24..=33 => now + width * (1 + rng.gen_range(0..5u64)) + rng.gen_range(0..width),
            34..=38 => {
                // Watermark tick, possibly behind the arrivals or past
                // the window end.
                let tick = (now + rng.gen_range(0..3 * width)).saturating_sub(width);
                if tick >= row.close_at {
                    cov.ticks_closing += 1;
                }
                pair.advance(UnixTime(tick));
                continue;
            }
            39..=41 => {
                // Quarantine skip to a point inside a bin.
                let to = now + rng.gen_range(0..3 * width);
                if !(to - start).is_multiple_of(width) {
                    cov.skips_mid_bin += 1;
                }
                pair.skip(UnixTime(to));
                now = now.max(to.min(end.saturating_sub(1)));
                continue;
            }
            42..=45 => now + rng.gen_range(0..2u64),
            _ => now + (-(1.0 - rng.gen::<f64>()).ln() * mean_gap) as u64,
        };
        if t < now {
            continue;
        }
        if t >= end {
            break;
        }
        now = t;
        let fast = row.admits(t);
        cov.fast += fast as u64;
        cov.at_bin_end += (t == row.close_at) as u64;
        if row.trigger > 0 && row.trigger != u64::MAX && t.saturating_sub(row.last) == row.trigger {
            cov.at_trigger += 1;
        }
        if row.trigger > 1
            && row.trigger != u64::MAX
            && t.saturating_sub(row.last) + 1 == row.trigger
        {
            cov.below_trigger += 1;
        }
        // Trigger 0 after an arrival: down, recovery not yet recorded.
        if row.trigger == 0 && pair.bare.last_arrival_secs() != 0 {
            cov.down_first_arrival += 1;
        }
        if row.trigger == u64::MAX && pair.policy.use_gaps && t < row.close_at {
            cov.down_recovered += 1;
        }
        pair.observe(UnixTime(t));
    }
    let tail = end - (start + (end - start) / width * width);
    cov.partial_tail += (tail > 0 && tail * 2 >= width) as u64;
    pair.finish()
}

/// Bitwise equality of two reports; floats by their bits.
fn assert_same(arena: &UnitReport, bare: &UnitReport) {
    assert_eq!(arena.prefix, bare.prefix);
    assert_eq!(arena.timeline, bare.timeline, "timeline");
    let bits = |r: &UnitReport| -> Vec<(Interval, u64)> {
        r.detections
            .iter()
            .map(|&(iv, c)| (iv, c.to_bits()))
            .collect()
    };
    assert_eq!(bits(arena), bits(bare), "detections");
    assert_eq!(arena.diagnostics, bare.diagnostics, "diagnostics");
    assert_eq!(arena.evidence_enrolled, bare.evidence_enrolled);
    // `{:?}` prints every f64 as its shortest round-trip form, so equal
    // strings mean equal bits (NaN payloads aside).
    assert_eq!(
        format!("{:?}", arena.evidence),
        format!("{:?}", bare.evidence),
        "evidence"
    );
}

#[test]
fn arena_reports_equal_bare_unit_state() {
    let mut cov = Coverage::default();
    cases(CASES, 0x5EED_A7E4A, |rng| {
        let case = draw_case(rng);
        let (arena, bare) = run_case(rng, &case, &mut cov);
        assert_same(&arena, &bare);
        cov.gap_detections += arena.diagnostics.gap_detections;
        cov.bin_detections += arena.diagnostics.bin_detections;
        if arena.diagnostics.gap_detections > 0 {
            if case.config.diurnal_model {
                cov.diurnal_gaps += 1;
            } else {
                cov.flat_gaps += 1;
            }
        }
        cov.no_refine += !case.config.use_exact_timestamps as u64;
    });
    // Every edge was reached, often.
    let c = &cov;
    for (name, n) in [
        ("fast", c.fast),
        ("at_bin_end", c.at_bin_end),
        ("at_trigger", c.at_trigger),
        ("below_trigger", c.below_trigger),
        ("down_first_arrival", c.down_first_arrival),
        ("down_recovered", c.down_recovered),
        ("skips_mid_bin", c.skips_mid_bin),
        ("ticks_closing", c.ticks_closing),
        ("partial_tail", c.partial_tail),
        ("gap_detections", c.gap_detections),
        ("bin_detections", c.bin_detections),
        ("diurnal_gaps", c.diurnal_gaps),
        ("flat_gaps", c.flat_gaps),
        ("no_refine", c.no_refine),
    ] {
        assert!(n >= 100, "{name} reached only {n} times: {c:?}");
    }
}

#[test]
fn fast_path_defers_nothing_a_reader_sees() {
    // A dense unit: after the first bin, arrivals 10 s apart take the
    // fast path, and the arena still answers belief and finish exactly.
    let case = Case {
        config: DetectorConfig::default(),
        params: UnitParams {
            width: 300,
            lambda: 0.1,
            leak: 0.001,
        },
        shape: [1.0; 24],
        window: Interval::from_secs(0, 86_400),
    };
    let mut pair = Pair::new(&case, "192.0.2.0/24".parse().unwrap());
    let mut fast = 0;
    for t in (0..86_400).step_by(10) {
        fast += pair.arena.hot[0].admits(t) as u64;
        pair.observe(UnixTime(t));
        assert_eq!(
            pair.arena.states()[0].belief().to_bits(),
            pair.bare.belief().to_bits()
        );
    }
    assert!(fast > 8_000, "only {fast} fast arrivals");
    let (arena, bare) = pair.finish();
    assert_same(&arena, &bare);
    assert_eq!(arena.diagnostics.arrivals, 8_640);
}
