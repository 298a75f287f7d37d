//! The end-to-end passive detection pipeline.
//!
//! [`PassiveDetector`] wires the stages together exactly as the paper
//! describes operating on B-root data:
//!
//! 1. **History pass** — stream the observations once to learn each
//!    block's rate model ([`HistoryBuilder`]).
//! 2. **Planning** — tune parameters per block and pool sparse blocks
//!    into aggregates ([`crate::aggregate::plan`]).
//! 3. **Detection pass** — stream the observations again, routing each to
//!    its detection unit in a [`DetectionEngine`].
//!
//! [`PassiveDetector::run`] is the one production entry point for the
//! detection pass: the threaded driver of [`crate::parallel`], with an
//! optional feed sentinel. [`PassiveDetector::detect`] is the
//! single-threaded reference it is tested against, and
//! [`PassiveDetector::run_slice`] the self-calibrating convenience.
//!
//! In production the "history" would be yesterday's traffic; in a
//! one-shot evaluation the same window serves both roles (the robust
//! trimmed-rate estimate keeps outages in the window from polluting the
//! model). Both styles are supported.

use crate::aggregate::{plan, AggregationPlan};
use crate::config::{ConfigError, DetectorConfig};
use crate::detector::{UnitDiagnostics, UnitReport};
use crate::engine::{fill_evidence_quarantine, DetectionEngine};
use crate::evidence::EventEvidence;
use crate::history::{BlockHistory, HistoryBuilder, HistorySource};
use crate::index::BlockIndex;
use crate::model::LearnedModel;
use crate::sentinel::{FeedHealth, FeedSentinel};
use outage_obs::{span, Obs, Registry, DURATION_BUCKETS, LATENCY_BUCKETS};
use outage_types::{Interval, IntervalSet, Observation, OutageEvent, Prefix, Timeline};
use std::collections::HashMap;
use std::time::Instant;

/// Outcome of a full detection run.
#[derive(Debug)]
pub struct DetectionReport {
    /// The observation window.
    pub window: Interval,
    /// Per-unit verdicts (block-level and aggregate units).
    pub units: Vec<UnitReport>,
    /// Member blocks of each unit (parallel to `units`).
    pub members: Vec<Vec<Prefix>>,
    /// Blocks observed but too sparse to cover at all.
    pub uncovered: Vec<Prefix>,
    /// Observations that matched no unit (blocks unseen in history).
    pub strays: u64,
    /// Intervals during which the feed sentinel judged the *sensor*
    /// faulted: no verdicts were formed there, and evaluation should
    /// exclude them. Empty unless the run used a sentinel.
    pub quarantined: IntervalSet,
    /// The feed sentinel's health at the end of the run; `None` when
    /// the run had no sentinel.
    pub feed_health: Option<FeedHealth>,
    /// Member block → dense id (the detection pass's routing table,
    /// kept so per-block queries stay one cheap probe).
    route: BlockIndex,
    /// Dense id → unit index, parallel to `route`.
    unit_of_id: Vec<u32>,
}

impl DetectionReport {
    /// Assemble a report from its parts. `quarantined` carries the
    /// sentinel's verdict-free spans — empty for runs without a
    /// sentinel, never silently dropped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        window: Interval,
        mut units: Vec<UnitReport>,
        members: Vec<Vec<Prefix>>,
        uncovered: Vec<Prefix>,
        strays: u64,
        quarantined: IntervalSet,
        feed_health: Option<FeedHealth>,
        route: BlockIndex,
        unit_of_id: Vec<u32>,
    ) -> DetectionReport {
        // Parallel shards finish without a gate, so their evidence
        // records reach assembly with quarantined_secs unset; stamping
        // here is idempotent for paths that already filled it.
        fill_evidence_quarantine(&mut units, &quarantined);
        DetectionReport {
            window,
            units,
            members,
            uncovered,
            strays,
            quarantined,
            feed_health,
            route,
            unit_of_id,
        }
    }

    /// The unit index covering a block, if covered.
    pub fn unit_of(&self, block: &Prefix) -> Option<usize> {
        self.route
            .get(block)
            .map(|id| self.unit_of_id[id as usize] as usize)
    }

    /// The judged timeline that applies to a block (possibly at an
    /// aggregate's coarser spatial precision).
    pub fn timeline_for(&self, block: &Prefix) -> Option<&Timeline> {
        self.unit_of(block).map(|i| &self.units[i].timeline)
    }

    /// Whether a block is covered by an aggregate rather than its own
    /// unit.
    pub fn is_aggregated(&self, block: &Prefix) -> bool {
        self.unit_of(block)
            .map(|i| self.members[i].len() > 1)
            .unwrap_or(false)
    }

    /// Blocks covered, at any spatial precision.
    pub fn covered_blocks(&self) -> usize {
        self.unit_of_id.len()
    }

    /// All outage events across units, in deterministic order: stable
    /// sort by `(start, prefix)`, independent of which execution path
    /// (batch, streaming, parallel) assembled the report.
    pub fn events(&self) -> Vec<OutageEvent> {
        let mut events: Vec<OutageEvent> = self.units.iter().flat_map(|u| u.events()).collect();
        events.sort_by_key(|e| (e.interval.start, e.prefix));
        events
    }

    /// All frozen evidence records across units, in the same
    /// deterministic `(start, prefix)` order as [`Self::events`] — when
    /// every unit is enrolled, `evidence()[i]` explains `events()[i]`.
    pub fn evidence(&self) -> Vec<&EventEvidence> {
        let mut evidence: Vec<&EventEvidence> =
            self.units.iter().flat_map(|u| u.evidence.iter()).collect();
        evidence.sort_by_key(|e| (e.interval.start, e.prefix));
        evidence
    }

    /// Look up one event's provenance by its id (`{prefix}@{start}` as
    /// produced by [`EventEvidence::id`]). `None` when the event does
    /// not exist or its unit was not enrolled for evidence.
    pub fn explain(&self, id: &str) -> Option<&EventEvidence> {
        self.units
            .iter()
            .flat_map(|u| u.evidence.iter())
            .find(|e| e.id() == id)
    }

    /// Units that carried an evidence ring this run.
    pub fn evidence_enrolled(&self) -> usize {
        self.units.iter().filter(|u| u.evidence_enrolled).count()
    }

    /// Summed per-unit diagnostics.
    pub fn diagnostics(&self) -> UnitDiagnostics {
        let mut d = UnitDiagnostics::default();
        for u in &self.units {
            d.arrivals += u.diagnostics.arrivals;
            d.bins += u.diagnostics.bins;
            d.bin_detections += u.diagnostics.bin_detections;
            d.gap_detections += u.diagnostics.gap_detections;
        }
        d
    }

    /// Number of closed quarantine intervals (sensor-fault spans).
    pub fn quarantined_spans(&self) -> usize {
        self.quarantined.intervals().len()
    }

    /// Total quarantined time in seconds. Together with
    /// [`Self::quarantined_spans`] this is the single source of truth
    /// both the `status` surface and `eval --exclude` report from.
    pub fn quarantined_secs(&self) -> u64 {
        self.quarantined
            .intervals()
            .iter()
            .map(|iv| iv.duration())
            .sum()
    }

    /// Export the run's detection-semantic counters into a registry:
    /// verdicts by path, arrivals, strays, coverage, and the quarantine
    /// totals plus a per-interval duration histogram. Deterministic for
    /// a given report — sequential and parallel runs that produce equal
    /// reports export equal counters. Call once per run.
    pub fn export_metrics(&self, registry: &Registry) {
        let d = self.diagnostics();
        registry
            .counter("po_detect_arrivals_total", &[])
            .add(d.arrivals);
        registry.counter("po_detect_bins_total", &[]).add(d.bins);
        registry
            .counter("po_detect_verdicts_total", &[("path", "bin")])
            .add(d.bin_detections);
        registry
            .counter("po_detect_verdicts_total", &[("path", "gap")])
            .add(d.gap_detections);
        registry
            .counter("po_detect_strays_total", &[])
            .add(self.strays);
        registry
            .gauge("po_detect_covered_blocks", &[])
            .set(self.covered_blocks() as f64);
        registry
            .gauge("po_detect_units", &[])
            .set(self.units.len() as f64);
        registry
            .counter("po_quarantine_intervals_total", &[])
            .add(self.quarantined_spans() as u64);
        registry
            .counter("po_quarantine_seconds_total", &[])
            .add(self.quarantined_secs());
        let durations = registry.histogram("po_quarantine_duration_seconds", &[], DURATION_BUCKETS);
        for iv in self.quarantined.intervals() {
            durations.observe(iv.duration() as f64);
        }
        // Evidence-tier accounting: families appear only when at least
        // one unit is enrolled, so an `off` run's snapshot stays free of
        // po_evidence_* and `status` can render the tier-off hint.
        let enrolled = self.evidence_enrolled();
        if enrolled > 0 {
            registry
                .gauge("po_evidence_units_enrolled", &[])
                .set(enrolled as f64);
            registry
                .counter("po_evidence_events_total", &[])
                .add(self.units.iter().map(|u| u.evidence.len() as u64).sum());
            registry.counter("po_evidence_samples_total", &[]).add(
                self.units
                    .iter()
                    .flat_map(|u| u.evidence.iter())
                    .map(|e| e.trajectory.len() as u64)
                    .sum(),
            );
        }
    }

    /// Blocks whose unit judged at least one outage of `min_secs` or
    /// longer, in dense-id (routing) order.
    pub fn blocks_with_outage(&self, min_secs: u64) -> Vec<Prefix> {
        self.unit_of_id
            .iter()
            .enumerate()
            .filter(|&(_, &u)| {
                !self.units[u as usize]
                    .timeline
                    .down
                    .filter_min_duration(min_secs)
                    .is_empty()
            })
            .map(|(id, _)| self.route.prefix(id as u32))
            .collect()
    }
}

/// The paper's passive outage detector, end to end.
#[derive(Debug, Clone, Default)]
pub struct PassiveDetector {
    config: DetectorConfig,
    /// Observability bundle: always present (the default registry is
    /// simply never scraped), so no stage needs `Option` plumbing.
    obs: Obs,
}

impl PassiveDetector {
    /// A detector with the given configuration.
    ///
    /// Panics on an invalid configuration; use [`Self::try_new`] where
    /// the configuration comes from user input.
    pub fn new(config: DetectorConfig) -> PassiveDetector {
        PassiveDetector::try_new(config).expect("invalid detector configuration")
    }

    /// A detector with the given configuration, rejecting invalid
    /// configurations with a typed error instead of panicking.
    pub fn try_new(config: DetectorConfig) -> Result<PassiveDetector, ConfigError> {
        config.validate()?;
        Ok(PassiveDetector {
            config,
            obs: Obs::default(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Attach an observability bundle: every subsequent learn/plan/
    /// detect pass records stage latencies, spans, and detection
    /// counters into it.
    pub fn with_obs(mut self, obs: Obs) -> PassiveDetector {
        self.obs = obs;
        self
    }

    /// The observability bundle in force (default: a private, unscraped
    /// registry and no tracer).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Record one stage's wall time into `po_stage_seconds{stage=...}`.
    fn observe_stage(&self, stage: &str, started: Instant) {
        self.obs
            .registry
            .histogram("po_stage_seconds", &[("stage", stage)], LATENCY_BUCKETS)
            .observe(started.elapsed().as_secs_f64());
    }

    /// Learn per-block histories from one pass over a stream.
    pub fn learn_histories<I: IntoIterator<Item = Observation>>(
        &self,
        observations: I,
        window: Interval,
    ) -> HashMap<Prefix, BlockHistory> {
        let mut sp = span!(self.obs, "learn");
        let t0 = Instant::now();
        let mut hb = HistoryBuilder::new(window);
        hb.record_all(observations);
        sp.field("blocks", hb.block_count());
        self.observe_stage("learn", t0);
        hb.build()
    }

    /// Learn a checkpointable [`LearnedModel`], sharded across
    /// `workers` threads: the slice is split into contiguous chunks,
    /// each counted by its own [`HistoryBuilder`], and the per-shard
    /// builders are merged in shard order — which reproduces the
    /// sequential result exactly (counts are sums; merge order preserves
    /// first-appearance ids). The per-hour count arena is kept beside
    /// the built histories so the model can be saved, fused or merged;
    /// [`LearnedModel::into_indexed`] drops it when only the histories
    /// are needed.
    pub fn learn_model(
        &self,
        observations: &[Observation],
        window: Interval,
        workers: usize,
    ) -> LearnedModel {
        self.learn_builder(observations, window, workers)
            .into_model()
    }

    /// The history pass behind [`Self::learn_model`]: one builder when
    /// `workers` is 1 or the input is too small to shard.
    fn learn_builder(
        &self,
        observations: &[Observation],
        window: Interval,
        workers: usize,
    ) -> HistoryBuilder {
        let workers = workers.max(1);
        if workers == 1 || observations.len() < 2 * workers {
            let mut sp = span!(self.obs, "learn");
            let t0 = Instant::now();
            let mut hb = HistoryBuilder::new(window);
            hb.record_all(observations.iter().copied());
            sp.field("blocks", hb.block_count());
            self.observe_stage("learn", t0);
            return hb;
        }
        let mut sp = span!(self.obs, "learn", workers = workers);
        let t0 = Instant::now();
        let shard_hist = self.obs.registry.histogram(
            "po_stage_seconds",
            &[("stage", "learn_shard")],
            LATENCY_BUCKETS,
        );
        let chunk = observations.len().div_ceil(workers);
        let shards: Vec<HistoryBuilder> = std::thread::scope(|scope| {
            let handles: Vec<_> = observations
                .chunks(chunk)
                .enumerate()
                .map(|(i, c)| {
                    let obs_handle = self.obs.clone();
                    let shard_hist = shard_hist.clone();
                    scope.spawn(move || {
                        let mut shard_span = span!(obs_handle, "learn.shard", shard = i);
                        let shard_t0 = Instant::now();
                        let mut hb = HistoryBuilder::new(window);
                        hb.record_all(c.iter().copied());
                        shard_hist.observe(shard_t0.elapsed().as_secs_f64());
                        shard_span.field("blocks", hb.block_count());
                        hb
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("history shard panicked"))
                .collect()
        });
        let mut merged = HistoryBuilder::new(window);
        for s in shards {
            merged.merge(s);
        }
        sp.field("blocks", merged.block_count());
        self.observe_stage("learn", t0);
        merged
    }

    /// Plan detection units from learned histories (diurnal-trough
    /// aware: widths are chosen against each block's quietest hour).
    pub fn plan_units<H: HistorySource + ?Sized>(&self, histories: &H) -> AggregationPlan {
        let mut sp = span!(self.obs, "plan");
        let t0 = Instant::now();
        let planned = plan(
            histories.iter_histories().map(|(p, h)| {
                (
                    p,
                    crate::tuning::RateEstimate::from_history(h, &self.config),
                )
            }),
            &self.config,
        );
        sp.field("units", planned.units.len());
        sp.field("uncovered", planned.uncovered.len());
        self.observe_stage("plan", t0);
        planned
    }

    /// The single-threaded reference detection pass: run planned units
    /// over a stream through one [`DetectionEngine`], without a
    /// sentinel. [`Self::run`] is the production entry point; the
    /// equivalence tests hold it to this.
    pub fn detect<H, I>(&self, histories: &H, observations: I, window: Interval) -> DetectionReport
    where
        H: HistorySource + ?Sized,
        I: IntoIterator<Item = Observation>,
    {
        let plan = self.plan_units(histories);
        let mut sp = span!(self.obs, "detect", units = plan.units.len());
        let t0 = Instant::now();
        let mut engine = DetectionEngine::from_plan(&self.config, plan, histories, window, None);
        for obs in observations {
            engine.observe(obs);
        }
        let report = engine.finish().report;
        sp.field("strays", report.strays);
        self.observe_stage("detect", t0);
        self.export_run_metrics(&report, None);
        report
    }

    /// Export the per-run counters every detection path shares: the
    /// report's detection-semantic metrics plus the sentinel's state
    /// accounting (when one ran).
    pub(crate) fn export_run_metrics(
        &self,
        report: &DetectionReport,
        sentinel: Option<&FeedSentinel>,
    ) {
        report.export_metrics(&self.obs.registry);
        if let Some(s) = sentinel {
            s.export_metrics(&self.obs.registry);
        }
    }

    /// Convenience: a self-calibrated two-pass run over an in-memory
    /// slice (history learned from the same window that is judged),
    /// single-threaded and without a sentinel.
    pub fn run_slice(&self, observations: &[Observation], window: Interval) -> DetectionReport {
        let histories = self.learn_model(observations, window, 1).into_indexed();
        self.detect(&histories, observations.iter().copied(), window)
    }
}

/// Build the per-packet routing table for a plan: a dense [`BlockIndex`]
/// over every member block, plus the flat id → unit-index map. Routing
/// an observation is then one cheap hash probe and an array load.
pub(crate) fn build_routing(plan: &AggregationPlan) -> (BlockIndex, Vec<u32>) {
    let covered: usize = plan.units.iter().map(|u| u.members.len()).sum();
    let mut route = BlockIndex::with_capacity(covered);
    let mut unit_of_id: Vec<u32> = Vec::with_capacity(covered);
    for (i, u) in plan.units.iter().enumerate() {
        for m in &u.members {
            let id = route.intern(*m);
            debug_assert_eq!(id as usize, unit_of_id.len(), "members are disjoint");
            unit_of_id.push(i as u32);
        }
    }
    (route, unit_of_id)
}

/// Hour-of-day *expectation* shape for a unit: the members' judgement
/// shapes (learned, or conservative worst-case for unknown phases)
/// blended by rate.
///
/// A single-member unit uses that member's shape — keyed by the member
/// block, not the unit prefix, because a lone sparse block that climbed
/// to an aggregate keeps its history under its own /24, not under the
/// supernet it is judged at.
pub(crate) fn unit_expectation_shape<H: HistorySource + ?Sized>(
    members: &[Prefix],
    histories: &H,
    config: &DetectorConfig,
) -> [f64; 24] {
    if members.len() == 1 {
        return histories
            .history(&members[0])
            .map(|h| h.expectation_shape(config.diurnal_model))
            .unwrap_or([1.0; 24]);
    }
    let mut shape = [0.0f64; 24];
    let mut total = 0.0;
    for m in members {
        if let Some(h) = histories.history(m) {
            let hs_all = h.expectation_shape(config.diurnal_model);
            for (s, hs) in shape.iter_mut().zip(hs_all.iter()) {
                *s += h.lambda * hs;
            }
            total += h.lambda;
        }
    }
    if total <= 0.0 {
        return [1.0; 24];
    }
    for s in shape.iter_mut() {
        *s /= total;
    }
    shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::UnixTime;

    fn window() -> Interval {
        Interval::from_secs(0, 86_400)
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Synthesize a steady stream for `block` with the given period,
    /// silenced during `quiet`.
    fn stream(block: Prefix, period: u64, quiet: std::ops::Range<u64>) -> Vec<Observation> {
        (0..86_400)
            .step_by(period as usize)
            .filter(|t| !quiet.contains(t))
            .map(|t| Observation::new(UnixTime(t), block))
            .collect()
    }

    #[test]
    fn end_to_end_detects_injected_outage() {
        let b = p("192.0.2.0/24");
        let mut obs = stream(b, 10, 30_000..37_200);
        obs.extend(stream(p("198.51.100.0/24"), 15, 0..0));
        obs.sort();
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = det.run_slice(&obs, window());
        assert_eq!(report.covered_blocks(), 2);
        assert_eq!(report.strays, 0);

        let tl = report.timeline_for(&b).unwrap();
        assert_eq!(tl.down.len(), 1);
        let iv = tl.down.intervals()[0];
        assert!(
            (29_900..30_100).contains(&iv.start.secs()),
            "start {}",
            iv.start
        );
        assert!((37_100..37_300).contains(&iv.end.secs()), "end {}", iv.end);

        let healthy = report.timeline_for(&p("198.51.100.0/24")).unwrap();
        assert_eq!(healthy.down_secs(), 0);
    }

    #[test]
    fn sparse_blocks_fall_back_to_aggregates() {
        // Sixteen sparse sibling /24s under one /20: ~1 packet/3000 s
        // each, too few events even to estimate a diurnal shape, so each
        // is tuned against the conservative trough and is unmeasurable
        // alone. Pooled, the /20's floor rate clears the bar.
        let mut obs = Vec::new();
        for i in 0..16u32 {
            let b = Prefix::v4_raw(0x0A00_0000 + (i << 8), 24);
            obs.extend(
                (0..86_400u64)
                    .step_by(3_000)
                    .map(|t| Observation::new(UnixTime((t + i as u64 * 97) % 86_400), b)),
            );
        }
        obs.sort();
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = det.run_slice(&obs, window());
        let b0 = Prefix::v4_raw(0x0A00_0000, 24);
        assert!(
            report.is_aggregated(&b0),
            "uncovered: {:?}",
            report.uncovered
        );
        assert_eq!(report.covered_blocks(), 16);
        // the aggregate saw no outage
        assert_eq!(report.timeline_for(&b0).unwrap().down_secs(), 0);
    }

    #[test]
    fn aggregation_off_leaves_them_uncovered() {
        let mut obs = Vec::new();
        for i in 0..4u32 {
            let b = Prefix::v4_raw(0x0A00_0000 + (i << 8), 24);
            obs.extend(
                (0..86_400u64)
                    .step_by(3_000)
                    .map(|t| Observation::new(UnixTime(t), b)),
            );
        }
        obs.sort();
        let cfg = DetectorConfig {
            aggregation: None,
            ..DetectorConfig::default()
        };
        let det = PassiveDetector::new(cfg);
        let report = det.run_slice(&obs, window());
        assert_eq!(report.covered_blocks(), 0);
        assert_eq!(report.uncovered.len(), 4);
        // their observations become strays in the detection pass
        assert!(report.strays > 0);
    }

    #[test]
    fn aggregate_outage_applies_to_member_blocks() {
        // All sixteen sparse siblings silent together (AS-wide outage).
        let mut obs = Vec::new();
        for i in 0..16u32 {
            let b = Prefix::v4_raw(0x0A00_0000 + (i << 8), 24);
            obs.extend(
                (0..86_400u64)
                    .step_by(3_000)
                    .filter(|t| !(30_000..60_000).contains(t))
                    .map(|t| Observation::new(UnixTime((t + i as u64 * 97) % 86_400), b)),
            );
        }
        obs.sort();
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = det.run_slice(&obs, window());
        let b2 = Prefix::v4_raw(0x0A00_0000 + (2 << 8), 24);
        let tl = report.timeline_for(&b2).expect("covered via aggregate");
        assert!(
            tl.down_secs() > 18_000,
            "aggregate outage not reflected: {} s",
            tl.down_secs()
        );
    }

    #[test]
    fn events_and_diagnostics_are_consistent() {
        let b = p("192.0.2.0/24");
        let obs = stream(b, 10, 40_000..44_000);
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = det.run_slice(&obs, window());
        let events = report.events();
        assert_eq!(
            events.len(),
            report
                .units
                .iter()
                .map(|u| u.timeline.down.len())
                .sum::<usize>()
        );
        let d = report.diagnostics();
        assert_eq!(d.arrivals as usize, obs.len());
        assert!(d.bins > 0);
        assert_eq!(report.blocks_with_outage(660), vec![b]);
        assert!(report.blocks_with_outage(10_000).is_empty());
    }

    #[test]
    fn separate_history_and_detection_windows() {
        // History from day 1 (clean), detection on day 2 (with outage).
        let b = p("192.0.2.0/24");
        let day1: Vec<Observation> = (0..86_400)
            .step_by(10)
            .map(|t| Observation::new(UnixTime(t), b))
            .collect();
        let day2: Vec<Observation> = (86_400..172_800)
            .step_by(10)
            .filter(|t| !(120_000..126_000).contains(t))
            .map(|t| Observation::new(UnixTime(t), b))
            .collect();
        let det = PassiveDetector::new(DetectorConfig::default());
        let histories = det.learn_histories(day1, Interval::from_secs(0, 86_400));
        let report = det.detect(&histories, day2, Interval::from_secs(86_400, 172_800));
        let tl = report.timeline_for(&b).unwrap();
        assert_eq!(tl.down.len(), 1);
        let iv = tl.down.intervals()[0];
        assert!((119_900..120_100).contains(&iv.start.secs()));
    }

    /// Four dense blocks (aggregate ≈ 24 arrivals per sentinel bucket)
    /// all silenced together by a feed blackout.
    fn blacked_out_fleet(blackout: std::ops::Range<u64>) -> Vec<Observation> {
        let mut obs = Vec::new();
        for i in 0..4u32 {
            let b = Prefix::v4_raw(0xC633_6400 + (i << 8), 24);
            obs.extend(
                (i as u64..86_400)
                    .step_by(10)
                    .filter(|t| !blackout.contains(t))
                    .map(|t| Observation::new(UnixTime(t), b)),
            );
        }
        obs.sort();
        obs
    }

    /// Self-calibrated run of `obs` through [`PassiveDetector::run`]
    /// with the default sentinel.
    fn run_with_sentinel(det: &PassiveDetector, obs: &[Observation]) -> DetectionReport {
        let histories = det.learn_model(obs, window(), 1).into_indexed();
        det.run(
            &histories,
            obs.iter().copied(),
            window(),
            1,
            Some(&crate::SentinelConfig::default()),
        )
        .expect("valid sentinel config")
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let c = DetectorConfig {
            leak_fraction: 2.0,
            ..DetectorConfig::default()
        };
        assert!(PassiveDetector::try_new(c).is_err());
    }

    #[test]
    fn feed_blackout_without_sentinel_is_a_mass_false_outage() {
        let obs = blacked_out_fleet(43_200..45_000);
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = det.run_slice(&obs, window());
        assert!(report.quarantined.is_empty());
        let faulted = report
            .units
            .iter()
            .filter(|u| {
                u.timeline
                    .down
                    .intervals()
                    .iter()
                    .any(|iv| iv.start.secs() < 45_000 && iv.end.secs() > 43_200)
            })
            .count();
        assert_eq!(faulted, report.units.len(), "every unit goes dark at once");
    }

    #[test]
    fn feed_blackout_with_sentinel_is_quarantined() {
        let blackout = 43_200..45_000;
        let obs = blacked_out_fleet(blackout.clone());
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = run_with_sentinel(&det, &obs);
        for u in &report.units {
            assert!(
                !u.timeline
                    .down
                    .intervals()
                    .iter()
                    .any(|iv| { iv.start.secs() < blackout.end && iv.end.secs() > blackout.start }),
                "no verdict may overlap the sensor fault: {:?}",
                u.timeline.down
            );
        }
        assert_eq!(report.quarantined.intervals().len(), 1);
        let q = report.quarantined.intervals()[0];
        assert!(q.start.secs() <= blackout.start + 120);
        assert!(q.end.secs() >= blackout.end);
        assert!(q.duration() < (blackout.end - blackout.start) + 600);
    }

    #[test]
    fn sentinel_swallows_a_stream_that_dies_before_window_end() {
        // Feed stops entirely at 60 000: the trailing silence is a
        // sensor fault, not a mass outage through 86 400.
        let mut obs = blacked_out_fleet(0..0);
        obs.retain(|o| o.time.secs() < 60_000);
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = run_with_sentinel(&det, &obs);
        for u in &report.units {
            assert!(
                !u.timeline
                    .down
                    .intervals()
                    .iter()
                    .any(|iv| iv.end.secs() > 60_200),
                "tail must be quarantined, not judged: {:?}",
                u.timeline.down
            );
        }
        assert!(!report.quarantined.is_empty());
    }

    #[test]
    fn observations_outside_window_are_ignored() {
        let b = p("192.0.2.0/24");
        let mut obs = stream(b, 10, 0..0);
        obs.push(Observation::new(UnixTime(200_000), b));
        let det = PassiveDetector::new(DetectorConfig::default());
        let report = det.run_slice(&obs, window());
        assert_eq!(report.diagnostics().arrivals as usize, obs.len() - 1);
    }
}
