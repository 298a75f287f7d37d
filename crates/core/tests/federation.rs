//! Federation acceptance tests: union equivalence, quarantine
//! isolation, and corroboration (the claims `examples/multi_vantage.rs`
//! demonstrates, asserted rather than printed).

use outage_core::{
    DetectionEngine, DetectorConfig, FederationRouter, FusionPolicy, PassiveDetector,
    QuarantineGate, SentinelConfig, VantagePlan, VantageReport, VantageRunner,
};
use outage_netsim::{FaultPlan, Scenario};
use outage_types::{Interval, Observation, OutageEvent};

/// Render events the way the CLI event document does — bitwise-stable
/// fields only, so "identical timeline" means identical documents.
fn render(events: &[OutageEvent]) -> String {
    events
        .iter()
        .map(|e| {
            format!(
                "{} {} {} {}\n",
                e.prefix,
                e.interval.start.secs(),
                e.interval.end.secs(),
                e.confidence.to_bits()
            )
        })
        .collect()
}

fn run_federated(
    scenario: &Scenario,
    plan: &VantagePlan,
    policy: FusionPolicy,
) -> (Vec<OutageEvent>, Vec<VantageReport>) {
    let window = scenario.window();
    let reports: Vec<VantageReport> = (0..plan.vantages())
        .map(|v| {
            let shard: Vec<Observation> =
                scenario.observations_where(|p| plan.sees(v, p)).collect();
            let runner = VantageRunner::new(v, DetectorConfig::default()).unwrap();
            runner.run(&shard, window).unwrap()
        })
        .collect();
    let fused = FederationRouter::new(policy).assemble(&reports).unwrap();
    (fused.outage_events(), reports)
}

/// Acceptance: a fault-free 3-vantage federated run under `--fusion
/// union` produces a fused event timeline identical to the
/// single-vantage run over the union stream.
#[test]
fn three_vantage_union_matches_single_vantage_run() {
    let scenario = Scenario::quick(11);
    let window = scenario.window();
    let plan = VantagePlan::new(3).unwrap();

    let (fused_events, reports) = run_federated(&scenario, &plan, FusionPolicy::Union);

    let union: Vec<Observation> = scenario.collect_observations();
    let single = PassiveDetector::new(DetectorConfig::default());
    let solo_events = single.run_slice(&union, window).events();

    assert!(
        !solo_events.is_empty(),
        "scenario must produce outages for the comparison to mean anything"
    );
    assert_eq!(
        render(&fused_events),
        render(&solo_events),
        "union federation must be bit-identical to the single-vantage run"
    );
    // Sanity on the partition: every vantage covered something, and the
    // per-vantage coverage sums to the single run's coverage.
    let single_covered = single.run_slice(&union, window).covered_blocks();
    let fed_covered: usize = reports.iter().map(|r| r.report.covered_blocks()).sum();
    assert!(reports.iter().all(|r| r.report.covered_blocks() > 0));
    assert_eq!(fed_covered, single_covered);
}

/// Acceptance: blacking out one vantage's feed quarantines only that
/// vantage's shard. Other vantages' timelines stay bit-identical to
/// their solo runs, and the blackout creates zero false outages
/// globally.
#[test]
fn blackout_at_one_vantage_stays_isolated() {
    let scenario = Scenario::quick(12);
    let window = scenario.window();
    let plan = VantagePlan::new(3).unwrap();
    let sentinel = SentinelConfig::default();
    // Black out vantage 0's feed for two mid-window hours.
    let blackout = Interval::from_secs(30_000, 37_200);
    let fault = FaultPlan::new(9).blackout(blackout);

    let shards: Vec<Vec<Observation>> = (0..3)
        .map(|v| scenario.observations_where(|p| plan.sees(v, p)).collect())
        .collect();

    let mut faulted_reports = Vec::new();
    let mut solo_reports = Vec::new();
    for (v, shard) in shards.iter().enumerate() {
        let ingest = if v == 0 {
            fault.apply_to_vec(shard)
        } else {
            shard.clone()
        };
        let runner = VantageRunner::new(v, DetectorConfig::default())
            .unwrap()
            .with_sentinel(sentinel);
        faulted_reports.push(runner.run(&ingest, window).unwrap());
        let solo = VantageRunner::new(v, DetectorConfig::default())
            .unwrap()
            .with_sentinel(sentinel);
        solo_reports.push(solo.run(shard, window).unwrap());
    }

    // Only the blacked-out vantage quarantines, and its quarantine
    // covers the blackout.
    assert!(faulted_reports[0].report.quarantined_secs() >= blackout.duration() / 2);
    for r in &faulted_reports[1..] {
        assert_eq!(r.report.quarantined_spans(), 0, "vantage {}", r.vantage);
        assert_eq!(r.report.quarantined_secs(), 0);
    }

    // Untouched vantages are bit-identical to their solo runs.
    for (faulted, solo) in faulted_reports[1..].iter().zip(&solo_reports[1..]) {
        assert_eq!(
            render(&faulted.report.events()),
            render(&solo.report.events()),
            "vantage {} timeline changed under a fault it never saw",
            faulted.vantage
        );
    }

    // Globally: the fused timeline gains no false outages from the
    // blackout. Any event overlapping the blackout on a vantage-0 unit
    // that ground truth never took down would be a sensor artefact;
    // quarantine must have suppressed them all.
    let fused = FederationRouter::new(FusionPolicy::Union)
        .assemble(&faulted_reports)
        .unwrap();
    let truth_down = |unit: &outage_types::Prefix| {
        let mut set = outage_types::IntervalSet::new();
        for b in scenario.internet.blocks() {
            if unit.contains(&b.prefix) || unit == &b.prefix {
                if let Some(down) = scenario.schedule.down_set(&b.prefix) {
                    set = set.union(down);
                }
            }
        }
        set
    };
    let false_events: Vec<_> = fused
        .outage_events()
        .into_iter()
        .filter(|e| plan.owner(&e.prefix) == 0 && e.interval.overlaps(&blackout))
        .filter(|e| {
            truth_down(&e.prefix).overlap_secs(&outage_types::IntervalSet::singleton(e.interval))
                == 0
        })
        .collect();
    assert!(
        false_events.is_empty(),
        "false outages leaked through quarantine: {false_events:?}"
    );
}

/// A vantage detects through `PassiveDetector::run` at one worker: its
/// report, quarantine and final feed health equal the sequential
/// engine owning the same gate, and the `po_sentinel_health` export
/// agrees with the health the report carries.
#[test]
fn run_with_model_matches_the_sequential_gated_engine() {
    let scenario = Scenario::quick(12);
    let window = scenario.window();
    let plan = VantagePlan::new(3).unwrap();
    let sentinel = SentinelConfig::default();
    let shard: Vec<Observation> = scenario.observations_where(|p| plan.sees(0, p)).collect();
    let blackout = Interval::from_secs(30_000, 37_200);
    let mut ingest = FaultPlan::new(9).blackout(blackout).apply_to_vec(&shard);
    ingest.sort_unstable();

    let runner = VantageRunner::new(0, DetectorConfig::default())
        .unwrap()
        .with_sentinel(sentinel);
    let model = runner.learn(&ingest, window, 1);
    let got = runner.run_with_model(&model, &ingest, window).unwrap();

    let det = PassiveDetector::new(DetectorConfig::default());
    let gate = QuarantineGate::new(sentinel, window.start).unwrap();
    let mut engine = DetectionEngine::from_histories(&det, &model, window, Some(gate));
    for o in &ingest {
        engine.observe(*o);
    }
    let want = engine.finish();

    assert!(
        !want.report.quarantined.is_empty(),
        "fixture must quarantine"
    );
    assert_eq!(render(&got.report.events()), render(&want.report.events()));
    assert_eq!(got.report.quarantined, want.report.quarantined);
    assert_eq!(got.report.strays, want.report.strays);
    assert_eq!(got.report.covered_blocks(), want.report.covered_blocks());
    let health = want.sentinel.as_ref().map(|s| s.health());
    assert!(health.is_some());
    assert_eq!(want.report.feed_health, health);
    assert_eq!(got.report.feed_health, health);
    assert_eq!(got.feed_health, health);
    let exported = runner.obs().registry.value("po_sentinel_health", &[]);
    assert_eq!(exported, health.map(|h| h.index() as f64));

    // No sentinel, no health.
    let bare = VantageRunner::new(0, DetectorConfig::default()).unwrap();
    assert_eq!(
        bare.run_with_model(&model, &ingest, window)
            .unwrap()
            .feed_health,
        None
    );
}

/// Corroboration (the multi-vantage example's claim): with overlap,
/// blocks seen by two vantages fuse under quorum without inventing
/// outage time that neither vantage saw, and union never loses outage
/// time either vantage saw.
#[test]
fn overlap_corroboration_brackets_single_vantage_verdicts() {
    let scenario = Scenario::quick(13);
    let plan = VantagePlan::new(2).unwrap().with_overlap(1.0).unwrap();

    let (quorum_events, reports) = run_federated(&scenario, &plan, FusionPolicy::Quorum(2));
    let union_events = FederationRouter::new(FusionPolicy::Union)
        .assemble(&reports)
        .unwrap()
        .outage_events();

    // Full overlap: every unit is double-covered.
    let per_vantage_down: Vec<u64> = reports
        .iter()
        .map(|r| r.report.events().iter().map(|e| e.duration()).sum())
        .collect();
    let quorum_down: u64 = quorum_events.iter().map(|e| e.duration()).sum();
    let union_down: u64 = union_events.iter().map(|e| e.duration()).sum();

    assert!(
        quorum_down <= *per_vantage_down.iter().min().unwrap(),
        "quorum-2 may only keep time both vantages agree on"
    );
    assert!(
        union_down >= *per_vantage_down.iter().max().unwrap(),
        "union may not lose outage time either vantage saw"
    );
    assert!(quorum_down > 0, "agreement must survive on real outages");
}
