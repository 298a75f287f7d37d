//! Property tests: all three execution paths are the *same detector*.
//!
//! The single-threaded reference (`PassiveDetector::detect`, or one
//! [`DetectionEngine`] owning a [`QuarantineGate`] when a sentinel
//! guards the run), streaming replay (`StreamingMonitor::from_model`
//! with one window-sized epoch), and the production entry point
//! `PassiveDetector::run` (the threaded driver, at 1, 2, 4 and 8
//! workers) are thin adapters over one engine — so on the same scenario,
//! driven from the same learned model, they must produce identical
//! `OutageEvent` lists, identical quarantined sets, and (for the paths
//! that export them) identical detection-semantic metrics. With and
//! without fault injection, with and without a warm-started model.
//!
//! Also pinned here: `DetectionReport::events()` ordering is
//! deterministic (sorted by start time, then prefix) on every path, and
//! the engine's typed `SkipTo` input reproduces the old streaming
//! re-seed protocol exactly.

use outage_core::{
    DetectionEngine, DetectionReport, DetectorConfig, EngineInput, EventEvidence, EvidenceConfig,
    FeedSentinel, HistorySource, LearnedModel, PassiveDetector, QuarantineGate, SentinelConfig,
    ShardPartition, StreamingMonitor,
};
use outage_netsim::FaultPlan;
use outage_obs::Obs;
use outage_types::rng::cases;
use outage_types::{Interval, IntervalSet, Observation, OutageEvent, Prefix, UnixTime};

const DAY: u64 = 86_400;

fn block(i: u32) -> Prefix {
    Prefix::v4_raw(0x0A00_0000 + (i << 8), 24)
}

/// A dense multi-block day: per-block periods of 8–15 s keep the
/// aggregate rate far above the sentinel's `min_baseline`, so blackouts
/// are sentinel-visible. One block also gets a genuine outage so the
/// events being compared are non-trivial.
fn fleet(periods: &[u64], outage: std::ops::Range<u64>) -> Vec<Observation> {
    let mut obs = Vec::new();
    for (i, &period) in periods.iter().enumerate() {
        let b = block(i as u32);
        for t in ((i as u64)..DAY).step_by(period as usize) {
            if i == 0 && outage.contains(&t) {
                continue;
            }
            obs.push(Observation::new(UnixTime(t), b));
        }
    }
    obs.sort();
    obs
}

/// Events must come out sorted by (start, prefix) from every path.
fn assert_sorted(events: &[OutageEvent]) {
    for w in events.windows(2) {
        assert!(
            (w[0].interval.start, w[0].prefix) <= (w[1].interval.start, w[1].prefix),
            "events() ordering is not deterministic: {:?} after {:?}",
            w[1],
            w[0]
        );
    }
}

/// The sequential sentinel reference: one engine owning the gate, its
/// report and sentinel exported into the detector's registry exactly as
/// every detection run exports them.
fn gated_detect<H: HistorySource + ?Sized>(
    det: &PassiveDetector,
    histories: &H,
    obs: &[Observation],
    window: Interval,
    cfg: &SentinelConfig,
) -> DetectionReport {
    let gate = QuarantineGate::new(*cfg, window.start).expect("valid sentinel config");
    let mut engine = DetectionEngine::from_histories(det, histories, window, Some(gate));
    for o in obs {
        engine.observe(*o);
    }
    let out = engine.finish();
    out.report.export_metrics(&det.obs().registry);
    if let Some(s) = &out.sentinel {
        s.export_metrics(&det.obs().registry);
    }
    out.report
}

/// `PassiveDetector::run` over a slice.
fn run(
    det: &PassiveDetector,
    histories: &(impl HistorySource + ?Sized),
    obs: &[Observation],
    window: Interval,
    workers: usize,
    cfg: Option<&SentinelConfig>,
) -> DetectionReport {
    det.run(histories, obs.iter().copied(), window, workers, cfg)
        .expect("valid sentinel config, healthy workers")
}

/// Replay a finished slice through the streaming adapter: one epoch
/// spanning the whole window, warm-started from `model` so the monitor
/// is live (and planned identically to batch) from the first arrival.
/// Returns the events, the quarantined set and the stray count.
fn streaming_replay(
    model: &LearnedModel,
    obs: &[Observation],
    window: Interval,
    sentinel: Option<&SentinelConfig>,
) -> (Vec<OutageEvent>, IntervalSet, u64) {
    let mut monitor = StreamingMonitor::from_model(
        DetectorConfig::default(),
        model,
        window.start,
        window.duration(),
    )
    .expect("window-sized epoch is valid");
    if let Some(cfg) = sentinel {
        monitor = monitor.with_sentinel(*cfg).expect("valid sentinel config");
    }
    monitor.observe_all(obs.iter().copied());
    let strays = monitor.strays();
    let (events, quarantined) = monitor.finish_with_quarantine(window.end);
    (events, quarantined, strays)
}

/// Evidence records rendered exactly as every surface ships them —
/// `EventEvidence::to_json()`, one line per record — so "equal" below
/// means byte-identical provenance, not merely equal-ish numbers.
fn evidence_doc(records: &[&EventEvidence]) -> String {
    records
        .iter()
        .map(|e| e.to_json().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The detection-semantic metric families: everything here is a pure
/// function of the verdicts, so batch and parallel runs must export
/// identical values. Timing families (`po_stage_seconds`, worker
/// busy/idle, router counters) are excluded by construction.
const SEMANTIC_PREFIXES: &[&str] = &["po_detect_", "po_quarantine_", "po_sentinel_"];

/// Semantic samples of a registry as sorted `(name{labels}, value)`
/// pairs, ready for exact comparison.
fn semantic_samples(obs: &Obs) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = obs
        .registry
        .samples()
        .into_iter()
        .filter(|s| SEMANTIC_PREFIXES.iter().any(|p| s.name.starts_with(p)))
        .map(|s| {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            (
                format!("{}{{{}}}", s.name, labels.join(",")),
                format!("{}", s.value),
            )
        })
        .collect();
    out.sort();
    out
}

/// The tentpole property: batch ≡ streaming-replay ≡ parallel at
/// 1/2/4/8 workers on fault-injected streams under a sentinel —
/// identical event lists (in deterministic order) and identical
/// quarantined sets, all warm-started from one learned model.
#[test]
fn three_way_equivalence_with_faults() {
    cases(12, 1, |rng| {
        let periods = rng.vec(3..7, |rng| rng.gen_range(8u64..16));
        let start = rng.gen_range(15_000u64..55_000);
        let blackout = Interval::from_secs(start, start + rng.gen_range(1_500u64..6_000));
        let (outage_start, seed) = (rng.gen_range(60_000u64..75_000), rng.gen_range(0u64..1_000));
        let clean = fleet(&periods, outage_start..outage_start + 5_000);
        let plan = FaultPlan::new(seed).blackout(blackout);
        let mut obs = plan.apply_to_vec(&clean);
        obs.sort_unstable();
        let window = Interval::from_secs(0, DAY);
        let cfg = SentinelConfig::default();

        // One model drives all three paths (and exercises warm start on
        // each: batch and parallel take it as their history source, the
        // streaming monitor warm-starts its first epoch from it).
        let model = LearnedModel::learn(obs.iter().copied(), window);
        let det = PassiveDetector::new(DetectorConfig::default());

        let batch = gated_detect(&det, &model, &obs, window, &cfg);
        let batch_events = batch.events();
        assert_sorted(&batch_events);

        let (stream_events, stream_quarantine, stream_strays) =
            streaming_replay(&model, &obs, window, Some(&cfg));
        assert_sorted(&stream_events);
        assert_eq!(&stream_events, &batch_events, "streaming != batch events");
        assert_eq!(
            &stream_quarantine, &batch.quarantined,
            "streaming quarantine differs"
        );
        assert_eq!(stream_strays, batch.strays, "streaming strays differ");

        for workers in [1usize, 2, 4, 8] {
            let par = run(&det, &model, &obs, window, workers, Some(&cfg));
            let par_events = par.events();
            assert_sorted(&par_events);
            assert_eq!(
                &par_events, &batch_events,
                "parallel events differ at {workers} workers"
            );
            assert_eq!(
                &par.quarantined, &batch.quarantined,
                "quarantined set differs at {workers} workers"
            );
            assert_eq!(par.feed_health, batch.feed_health);
            assert_eq!(par.strays, batch.strays);
            assert_eq!(par.covered_blocks(), batch.covered_blocks());
        }
    });
}

/// Without a sentinel the three paths also agree exactly, and every
/// quarantined set stays empty.
#[test]
fn three_way_equivalence_without_faults() {
    cases(12, 2, |rng| {
        let periods = rng.vec(3..7, |rng| rng.gen_range(8u64..16));
        let outage_start = rng.gen_range(20_000u64..70_000);
        let obs = fleet(&periods, outage_start..outage_start + 6_000);
        let window = Interval::from_secs(0, DAY);
        let model = LearnedModel::learn(obs.iter().copied(), window);
        let det = PassiveDetector::new(DetectorConfig::default());

        let batch = det.detect(&model, obs.iter().copied(), window);
        let batch_events = batch.events();
        assert_sorted(&batch_events);
        assert!(batch.quarantined.is_empty());

        let (stream_events, stream_quarantine, stream_strays) =
            streaming_replay(&model, &obs, window, None);
        assert_eq!(&stream_events, &batch_events, "streaming != batch events");
        assert!(stream_quarantine.is_empty());
        assert_eq!(stream_strays, batch.strays, "streaming strays differ");

        for workers in [1usize, 2, 4, 8] {
            let par = run(&det, &model, &obs, window, workers, None);
            assert!(par.quarantined.is_empty());
            assert_eq!(par.strays, batch.strays);
            assert_eq!(
                &par.events(),
                &batch_events,
                "parallel events differ at {workers} workers"
            );
        }
    });
}

/// The detection-semantic metrics exported by a batch run and a
/// parallel run are identical, sample for sample — the observability
/// layer sees the same pipeline either way. (The streaming adapter
/// intentionally exports the online `po_stream_*` family instead of
/// the batch `po_detect_*` run summary, so it is compared on events
/// and quarantine above, not on these samples.)
#[test]
fn semantic_metrics_agree_between_batch_and_parallel() {
    cases(12, 3, |rng| {
        let periods = rng.vec(3..6, |rng| rng.gen_range(8u64..16));
        let start = rng.gen_range(15_000u64..55_000);
        let blackout = Interval::from_secs(start, start + rng.gen_range(1_500u64..6_000));
        let seed = rng.gen_range(0u64..1_000);
        let clean = fleet(&periods, 62_000..67_000);
        let plan = FaultPlan::new(seed).blackout(blackout);
        let mut obs = plan.apply_to_vec(&clean);
        obs.sort_unstable();
        let window = Interval::from_secs(0, DAY);
        let cfg = SentinelConfig::default();

        // Fresh detector + registry per run: each exports exactly once.
        let run_seq = || {
            let o = Obs::new();
            let det = PassiveDetector::new(DetectorConfig::default()).with_obs(o.clone());
            let histories = det.learn_histories(obs.iter().copied(), window);
            gated_detect(&det, &histories, &obs, window, &cfg);
            semantic_samples(&o)
        };
        let run_par = |workers: usize| {
            let o = Obs::new();
            let det = PassiveDetector::new(DetectorConfig::default()).with_obs(o.clone());
            let histories = det.learn_histories(obs.iter().copied(), window);
            run(&det, &histories, &obs, window, workers, Some(&cfg));
            semantic_samples(&o)
        };

        let seq = run_seq();
        assert!(!seq.is_empty(), "batch run exported no semantic metrics");
        for workers in [1usize, 2, 4] {
            let par = run_par(workers);
            assert_eq!(&par, &seq, "semantic metrics diverge at {workers} workers");
        }
    });
}

/// Decision provenance is part of the equivalence contract: with
/// the Full evidence tier on, the per-event records — belief
/// trajectory, expectation shape, gap context, quarantine overlap —
/// are byte-identical JSON across batch, streaming replay, and the
/// parallel driver at 1/2/4/8 workers, with and without blackouts.
#[test]
fn evidence_is_bit_identical_across_paths() {
    cases(12, 4, |rng| {
        let periods = rng.vec(3..6, |rng| rng.gen_range(8u64..16));
        let start = rng.gen_range(15_000u64..55_000);
        let blackout = Interval::from_secs(start, start + rng.gen_range(1_500u64..6_000));
        let (outage_start, seed) = (rng.gen_range(60_000u64..75_000), rng.gen_range(0u64..1_000));
        let faulted = rng.gen_bool(0.5);
        let clean = fleet(&periods, outage_start..outage_start + 5_000);
        let mut obs = if faulted {
            FaultPlan::new(seed).blackout(blackout).apply_to_vec(&clean)
        } else {
            clean
        };
        obs.sort_unstable();
        let window = Interval::from_secs(0, DAY);
        let cfg = SentinelConfig::default();
        let config = DetectorConfig {
            evidence: EvidenceConfig::Full,
            ..DetectorConfig::default()
        };

        let model = LearnedModel::learn(obs.iter().copied(), window);
        let det = PassiveDetector::new(config.clone());

        let batch = gated_detect(&det, &model, &obs, window, &cfg);
        let batch_doc = evidence_doc(&batch.evidence());
        // Full tier: every completed event carries exactly one record.
        assert_eq!(
            batch.evidence().len(),
            batch.events().len(),
            "full tier must cover every event"
        );

        let mut monitor =
            StreamingMonitor::from_model(config.clone(), &model, window.start, window.duration())
                .expect("window-sized epoch is valid");
        monitor = monitor.with_sentinel(cfg).expect("valid sentinel config");
        monitor.observe_all(obs.iter().copied());
        let (_, _, stream_records) = monitor.finish_with_evidence(window.end);
        let stream_doc = evidence_doc(&stream_records.iter().collect::<Vec<_>>());
        assert_eq!(
            &stream_doc, &batch_doc,
            "streaming evidence != batch evidence"
        );

        for workers in [1usize, 2, 4, 8] {
            let par = run(&det, &model, &obs, window, workers, Some(&cfg));
            assert_eq!(
                evidence_doc(&par.evidence()),
                batch_doc.clone(),
                "evidence diverges at {workers} workers"
            );
        }
    });
}

/// The shard-affine partition underpinning the parallel router: the
/// per-worker ranges tile `[0, n)` contiguously in order, sizes are
/// balanced to within one unit, and the closed-form `worker_of` /
/// `locate` agree with the ranges for every unit. Equivalence of
/// the parallel adapter (above) rests on this: each unit routed to
/// exactly one worker, at the local index its shard was built with.
#[test]
fn shard_partition_tiles_and_locates() {
    cases(12, 5, |rng| {
        let (n_units, workers) = (rng.gen_range(0usize..5_000), rng.gen_range(1usize..64));
        let p = ShardPartition::new(n_units, workers);
        assert_eq!(p.workers(), workers);
        let mut next = 0usize;
        for w in 0..workers {
            let r = p.range(w);
            assert_eq!(r.start, next, "shard {w} not contiguous");
            let len = r.end - r.start;
            assert!(
                len == n_units / workers || len == n_units / workers + 1,
                "shard {w} unbalanced: {len} units"
            );
            next = r.end;
        }
        assert_eq!(next, n_units, "shards must tile the unit space");
        // Spot-check the closed forms across the whole space (cheap:
        // arithmetic only), including both sides of every boundary.
        for g in 0..n_units {
            let w = p.worker_of(g);
            let r = p.range(w);
            assert!(r.contains(&g), "unit {g} outside its shard");
            let (lw, local) = p.locate(g);
            assert_eq!(lw, w);
            assert_eq!(local as usize, g - r.start);
        }
    });
}

/// Regression: the engine's typed `SkipTo` input is exactly the old
/// streaming re-seed protocol. An engine guarded by its own gate must
/// match an unguarded engine driven by an external sentinel loop that
/// swallows faulted arrivals and issues `SkipTo` at recovery — the
/// literal control flow `StreamingMonitor` used before the engine
/// existed.
/// Arrivals from a block the model never saw are strays on every path,
/// counted once each, and the rest of the run is unchanged.
#[test]
fn strays_agree_across_paths_when_the_model_misses_a_block() {
    let obs = fleet(&[9, 11, 13, 10], 40_000..46_000);
    let unseen = block(3);
    let window = Interval::from_secs(0, DAY);
    let model = LearnedModel::learn(obs.iter().copied().filter(|o| o.block != unseen), window);
    let det = PassiveDetector::new(DetectorConfig::default());
    let expected = obs.iter().filter(|o| o.block == unseen).count() as u64;
    assert!(expected > 0);

    let batch = det.detect(&model, obs.iter().copied(), window);
    assert_eq!(batch.strays, expected);
    let (stream_events, _, stream_strays) = streaming_replay(&model, &obs, window, None);
    assert_eq!(stream_strays, expected);
    assert_eq!(stream_events, batch.events());
    for workers in [1usize, 2, 4] {
        let par = run(&det, &model, &obs, window, workers, None);
        assert_eq!(par.strays, expected, "{workers} workers");
    }
}

#[test]
fn engine_skip_to_mid_quarantine_matches_old_reseed_protocol() {
    let periods = [9u64, 11, 13, 15];
    let blackout = 40_000u64..44_000;
    let clean = fleet(&periods, 65_000..70_000);
    let plan = FaultPlan::new(3).blackout(Interval::from_secs(blackout.start, blackout.end));
    let mut obs = plan.apply_to_vec(&clean);
    obs.sort_unstable();
    let window = Interval::from_secs(0, DAY);
    let cfg = SentinelConfig::default();

    let model = LearnedModel::learn(obs.iter().copied(), window);
    let det = PassiveDetector::new(DetectorConfig::default());

    // Path A: the engine owns the gate.
    let gate = QuarantineGate::new(cfg, window.start).expect("valid sentinel config");
    let mut guarded = DetectionEngine::from_histories(&det, &model, window, Some(gate));
    for o in &obs {
        guarded.apply(EngineInput::Observe(*o));
    }
    let guarded_out = guarded.finish();

    // Path B: no gate — an external sentinel loop swallows faulted
    // arrivals and re-seeds with SkipTo, as the old monitor did.
    let mut bare = DetectionEngine::from_histories(&det, &model, window, None);
    let mut sentinel = FeedSentinel::new(cfg, window.start);
    let mut open: Option<UnixTime> = None;
    let mut quarantined = IntervalSet::new();
    for o in &obs {
        sentinel.observe(o.time);
        if open.is_none() && sentinel.is_quarantined() {
            open = Some(sentinel.unhealthy_since().unwrap_or(o.time));
        } else if let Some(start) = open {
            if !sentinel.is_quarantined() {
                open = None;
                if o.time > start {
                    quarantined.insert(Interval::new(start, o.time));
                }
                bare.apply(EngineInput::SkipTo(o.time));
            }
        }
        if open.is_some() {
            continue; // swallowed: faulted arrivals are not evidence
        }
        bare.apply(EngineInput::Observe(*o));
    }
    sentinel.advance_to(window.end);
    if open.is_none() && sentinel.is_quarantined() {
        open = Some(sentinel.unhealthy_since().unwrap_or(window.end));
    }
    if let Some(start) = open {
        if window.end > start {
            quarantined.insert(Interval::new(start, window.end));
        }
        bare.apply(EngineInput::SkipTo(window.end));
    }
    let bare_out = bare.finish();

    // The fixture must actually exercise a mid-stream recovery.
    assert!(
        !guarded_out.report.quarantined.is_empty(),
        "fixture must quarantine"
    );
    assert_eq!(guarded_out.report.quarantined, quarantined);
    assert_eq!(guarded_out.report.events(), bare_out.report.events());
    for i in 0..periods.len() as u32 {
        let b = block(i);
        assert_eq!(
            guarded_out.report.timeline_for(&b),
            bare_out.report.timeline_for(&b),
            "block {b} timeline differs between gate and manual re-seed"
        );
    }
}
