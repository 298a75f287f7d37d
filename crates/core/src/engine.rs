//! The single incremental detection kernel every execution path runs on.
//!
//! The paper's detector is one algorithm, but a deployment wants to run
//! it three ways: replayed over a finished slice (batch), fed live with
//! rolling recalibration (streaming), or sharded across worker threads
//! (parallel). Before this module existed each of those paths carried
//! its own copy of unit advancement, sentinel transitions, quarantine
//! bookkeeping, and skip-to re-seeding — three implementations of the
//! same semantics that had to be changed in lock-step.
//!
//! [`DetectionEngine`] is that shared kernel: a single-threaded state
//! machine owning the per-unit detectors, the routing table, the
//! [`QuarantineGate`] (feed sentinel + quarantine interval tracking),
//! and stray accounting. It is driven by a small typed input stream —
//! [`EngineInput::Observe`], [`EngineInput::AdvanceWatermark`],
//! [`EngineInput::SkipTo`] — and finished once at end of stream. The
//! execution paths are thin adapters:
//!
//! * **Batch** ([`crate::pipeline::PassiveDetector::detect`], the
//!   single-threaded reference) replays the slice through one engine
//!   and assembles its report. A sentinel-guarded reference is an
//!   engine built with a gate ([`DetectionEngine::from_histories`]).
//! * **Streaming** ([`crate::streaming::StreamingMonitor`]) keeps only
//!   the reorder buffer, the epoch clock, and the drain API; ingest,
//!   quarantine, and unit state all live in an embedded engine whose
//!   unit set is rotated at epoch boundaries (the gate persists across
//!   rotations, so a fault spanning an epoch boundary stays one fault).
//! * **Parallel** ([`crate::pipeline::PassiveDetector::run`], the
//!   production entry point) runs the gate on the router thread and
//!   shards the units across N unit-only engines, broadcasting
//!   quarantine boundaries in-band.
//!
//! Because all three paths execute the same `observe`/`skip_to`/
//! `advance_to`/`finish` call sequences on identical per-unit state
//! machines ([`crate::detector::UnitState`] behind a
//! [`crate::arena::UnitArena`]), their outputs are bit-identical — enforced
//! by the three-way equivalence suite in
//! `crates/core/tests/engine_equivalence.rs`.

use crate::aggregate::AggregationPlan;
use crate::arena::UnitArena;
use crate::config::{ConfigError, DetectorConfig};
use crate::detector::{UnitPolicy, UnitReport};
use crate::history::HistorySource;
use crate::index::BlockIndex;
use crate::model::LearnedModel;
use crate::pipeline::{build_routing, unit_expectation_shape, DetectionReport, PassiveDetector};
use crate::sentinel::{FeedHealth, FeedSentinel, SentinelConfig};
use outage_obs::{Counter, Histogram, Obs, DURATION_BUCKETS};
use outage_types::{Interval, IntervalSet, Observation, Prefix, UnixTime};

/// One step of the typed input stream driving a [`DetectionEngine`].
///
/// Adapters with richer needs (epoch rotation, pre-routed worker
/// batches) call the engine's named methods directly; this enum is the
/// canonical single-stream surface.
#[derive(Debug, Clone, Copy)]
pub enum EngineInput {
    /// One attributed arrival.
    Observe(Observation),
    /// Wall-clock progress without an arrival: closes sentinel buckets
    /// and unit bins up to the given time (a deployment's timer tick).
    AdvanceWatermark(UnixTime),
    /// Jump every unit's bin clock past a span that must not be judged
    /// (operator-driven exclusion; the gate issues these itself on
    /// quarantine close).
    SkipTo(UnixTime),
}

/// Pre-resolved quarantine-lifecycle metric handles (one atomic op per
/// event; no registry lookups on the ingest path). Installed only by
/// the streaming adapter — batch and parallel export quarantine totals
/// once per run from the assembled report instead.
#[derive(Debug)]
pub(crate) struct GateHandles {
    opened: Counter,
    closed: Counter,
    duration: Histogram,
    swallowed: Counter,
}

impl GateHandles {
    pub(crate) fn new(obs: &Obs) -> GateHandles {
        let r = &obs.registry;
        GateHandles {
            opened: r.counter("po_stream_quarantine_opened_total", &[]),
            closed: r.counter("po_stream_quarantine_closed_total", &[]),
            duration: r.histogram("po_quarantine_duration_seconds", &[], DURATION_BUCKETS),
            swallowed: r.counter("po_stream_quarantine_swallowed_total", &[]),
        }
    }
}

/// The feed-fault guard shared by every execution path: a
/// [`FeedSentinel`] plus the quarantine bookkeeping layered on top of
/// it — when a quarantine opens (back-dated to the first unhealthy
/// bucket), which closed intervals have been recorded, and how many
/// arrivals were swallowed unjudged.
///
/// The gate deliberately does not touch unit state. It *reports* the
/// skip target on close and the caller re-seeds its units — in batch
/// and streaming that is the engine's own unit set; in parallel it is
/// an in-band `SkipTo` broadcast to the worker engines.
#[derive(Debug)]
pub struct QuarantineGate {
    sentinel: FeedSentinel,
    /// Start of the quarantine currently in force, if any.
    open: Option<UnixTime>,
    /// Closed quarantine intervals (feed-fault spans, not outages).
    quarantined: IntervalSet,
    /// Observations swallowed (not judged) while quarantined.
    swallowed: u64,
    handles: Option<GateHandles>,
}

impl QuarantineGate {
    /// A gate whose sentinel bucket grid starts at `origin`, rejecting
    /// invalid sentinel configurations.
    pub fn new(cfg: SentinelConfig, origin: UnixTime) -> Result<QuarantineGate, ConfigError> {
        cfg.validate()?;
        Ok(QuarantineGate::from_sentinel(FeedSentinel::new(
            cfg, origin,
        )))
    }

    /// A gate over an already-validated sentinel.
    pub(crate) fn from_sentinel(sentinel: FeedSentinel) -> QuarantineGate {
        QuarantineGate {
            sentinel,
            open: None,
            quarantined: IntervalSet::new(),
            swallowed: 0,
            handles: None,
        }
    }

    /// Install pre-resolved lifecycle metric handles (streaming only).
    pub(crate) fn set_handles(&mut self, handles: GateHandles) {
        self.handles = Some(handles);
    }

    /// One aggregate arrival at `t` (the sentinel is blind to blocks).
    pub fn observe(&mut self, t: UnixTime) {
        self.sentinel.observe(t);
    }

    /// Close sentinel buckets up to `t` without an arrival.
    pub fn advance_to(&mut self, t: UnixTime) {
        self.sentinel.advance_to(t);
    }

    /// If the sentinel has turned unhealthy, open a quarantine reaching
    /// back to when it says the trouble started.
    pub fn open_if_flagged(&mut self, now: UnixTime) {
        if self.open.is_some() || !self.sentinel.is_quarantined() {
            return;
        }
        self.open = Some(self.sentinel.unhealthy_since().unwrap_or(now));
        if let Some(h) = &self.handles {
            h.opened.inc();
        }
    }

    /// If a quarantine is open and the sentinel has recovered, record
    /// the interval and return the time the caller must re-seed its
    /// units past (`skip_to` target).
    #[must_use]
    pub fn close_if_recovered(&mut self, now: UnixTime) -> Option<UnixTime> {
        let start = self.open?;
        if self.sentinel.is_quarantined() {
            return None;
        }
        self.open = None;
        if now > start {
            self.quarantined.insert(Interval::new(start, now));
        }
        if let Some(h) = &self.handles {
            h.closed.inc();
            if now > start {
                h.duration
                    .observe(now.secs().saturating_sub(start.secs()) as f64);
            }
        }
        Some(now)
    }

    /// Force-close a still-open quarantine at end of stream (the feed
    /// never came back; sensor silence is indistinguishable from
    /// network silence). Returns the skip target if one was open.
    #[must_use]
    pub fn force_close(&mut self, end: UnixTime) -> Option<UnixTime> {
        let start = self.open.take()?;
        if end > start {
            self.quarantined.insert(Interval::new(start, end));
            if let Some(h) = &self.handles {
                h.closed.inc();
                h.duration
                    .observe(end.secs().saturating_sub(start.secs()) as f64);
            }
        }
        Some(end)
    }

    /// Count one arrival swallowed while quarantined.
    pub fn swallow(&mut self) {
        self.swallowed += 1;
        if let Some(h) = &self.handles {
            h.swallowed.inc();
        }
    }

    /// Whether a quarantine is currently in force.
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// Arrivals swallowed unjudged so far.
    pub fn swallowed(&self) -> u64 {
        self.swallowed
    }

    /// The sentinel's current feed judgement.
    pub fn health(&self) -> FeedHealth {
        self.sentinel.health()
    }

    /// The underlying sentinel (read-only).
    pub fn sentinel(&self) -> &FeedSentinel {
        &self.sentinel
    }

    /// Closed quarantine intervals so far.
    pub fn quarantined(&self) -> &IntervalSet {
        &self.quarantined
    }

    /// All quarantined time through `end`, including a quarantine still
    /// open at `end`.
    pub fn quarantined_through(&self, end: UnixTime) -> IntervalSet {
        let mut q = self.quarantined.clone();
        if let Some(from) = self.open {
            if end > from {
                q.insert(Interval::new(from, end));
            }
        }
        q
    }

    /// Tear down into the sentinel and the recorded quarantine set.
    pub(crate) fn into_parts(self) -> (FeedSentinel, IntervalSet) {
        (self.sentinel, self.quarantined)
    }
}

/// Everything a finished engine hands back: the assembled report plus
/// the sentinel (for final metric export), when the run was gated.
#[derive(Debug)]
pub struct EngineOutput {
    /// The run's verdicts, coverage, and quarantine set.
    pub report: DetectionReport,
    /// The gate's sentinel, for one-shot metric export by the caller.
    pub sentinel: Option<FeedSentinel>,
}

/// The single-threaded incremental detection kernel (see module docs).
///
/// Owns the per-unit state machines (in a hot/cold [`UnitArena`]), the
/// per-packet routing table, the optional
/// [`QuarantineGate`], and stray accounting. Constructed from planned
/// units ([`Self::from_plan`]), from learned histories
/// ([`Self::from_histories`]), or warm-started from a checkpointed
/// model ([`Self::from_model`]) — so every execution path gets warm
/// start from the same constructor.
#[derive(Debug)]
pub struct DetectionEngine {
    window: Interval,
    units: UnitArena,
    /// Member block → dense id (one cheap hash probe per observation).
    route: BlockIndex,
    /// Dense id → unit index.
    unit_of_id: Vec<u32>,
    /// Member blocks of each unit (parallel to `units`).
    members: Vec<Vec<Prefix>>,
    /// Blocks observed but too sparse to cover at all.
    uncovered: Vec<Prefix>,
    gate: Option<QuarantineGate>,
    strays: u64,
}

impl DetectionEngine {
    /// An engine over pre-planned units. `histories` supplies the
    /// hour-of-day expectation shapes; `gate` (optional) guards the
    /// stream against feed faults.
    pub fn from_plan<H: HistorySource + ?Sized>(
        config: &DetectorConfig,
        plan: AggregationPlan,
        histories: &H,
        window: Interval,
        gate: Option<QuarantineGate>,
    ) -> DetectionEngine {
        let (route, unit_of_id) = build_routing(&plan);
        let policy = UnitPolicy::new(config, window);
        let mut units = UnitArena::with_capacity(policy, plan.units.len());
        for u in &plan.units {
            let shape = unit_expectation_shape(&u.members, histories, config);
            units.push(config, u.prefix, u.params, shape);
        }
        DetectionEngine {
            window,
            units,
            route,
            unit_of_id,
            members: plan.units.into_iter().map(|u| u.members).collect(),
            uncovered: plan.uncovered,
            gate,
            strays: 0,
        }
    }

    /// An engine planned from learned histories (the detector supplies
    /// configuration and plan-stage instrumentation).
    pub fn from_histories<H: HistorySource + ?Sized>(
        detector: &PassiveDetector,
        histories: &H,
        window: Interval,
        gate: Option<QuarantineGate>,
    ) -> DetectionEngine {
        let plan = detector.plan_units(histories);
        DetectionEngine::from_plan(detector.config(), plan, histories, window, gate)
    }

    /// Warm start: an engine planned from a checkpointed
    /// [`LearnedModel`] instead of a fresh history pass. Every
    /// execution path (batch, streaming, parallel) builds on this one
    /// constructor, so warm start behaves identically in all of them.
    pub fn from_model(
        detector: &PassiveDetector,
        model: &LearnedModel,
        window: Interval,
        gate: Option<QuarantineGate>,
    ) -> DetectionEngine {
        DetectionEngine::from_histories(detector, model, window, gate)
    }

    /// An idle engine: a persistent gate but no units yet (the
    /// streaming warm-up epoch, before any model exists).
    pub(crate) fn idle(window: Interval, gate: Option<QuarantineGate>) -> DetectionEngine {
        DetectionEngine {
            window,
            units: UnitArena::with_capacity(UnitPolicy::inert(window), 0),
            route: BlockIndex::new(),
            unit_of_id: Vec::new(),
            members: Vec::new(),
            uncovered: Vec::new(),
            gate,
            strays: 0,
        }
    }

    /// A unit-only engine over a contiguous range of a plan's units (a
    /// parallel worker's shard): no routing table, no gate — the router
    /// owns both and feeds pre-routed [`Self::observe_unit`] calls.
    pub(crate) fn for_units<H: HistorySource + ?Sized>(
        config: &DetectorConfig,
        plan: &AggregationPlan,
        range: std::ops::Range<usize>,
        histories: &H,
        window: Interval,
    ) -> DetectionEngine {
        let policy = UnitPolicy::new(config, window);
        let mut units = UnitArena::with_capacity(policy, range.len());
        for u in &plan.units[range] {
            // Enrollment hashes the prefix, never the index, so a
            // shard enrolls exactly the units the sequential engine
            // would — evidence stays shard-affine and bit-identical.
            let shape = unit_expectation_shape(&u.members, histories, config);
            units.push(config, u.prefix, u.params, shape);
        }
        DetectionEngine {
            window,
            units,
            route: BlockIndex::new(),
            unit_of_id: Vec::new(),
            members: Vec::new(),
            uncovered: Vec::new(),
            gate: None,
            strays: 0,
        }
    }

    /// The window this engine's units judge.
    pub fn window(&self) -> Interval {
        self.window
    }

    /// Units enrolled for evidence capture under the configured tier.
    pub fn evidence_enrolled(&self) -> usize {
        self.units.enrolled()
    }

    /// Blocks covered, at any spatial precision.
    pub fn covered_blocks(&self) -> usize {
        self.unit_of_id.len()
    }

    /// Observations that matched no unit.
    pub fn strays(&self) -> u64 {
        self.strays
    }

    /// The gate, if this engine guards against feed faults.
    pub fn gate(&self) -> Option<&QuarantineGate> {
        self.gate.as_ref()
    }

    /// Install a gate after construction (streaming builder chain).
    pub(crate) fn set_gate(&mut self, gate: QuarantineGate) {
        self.gate = Some(gate);
    }

    /// Mutable gate access (streaming attaches metric handles late).
    pub(crate) fn gate_mut(&mut self) -> Option<&mut QuarantineGate> {
        self.gate.as_mut()
    }

    /// Whether verdicts are currently suspended by the gate.
    pub fn is_quarantined(&self) -> bool {
        self.gate.as_ref().is_some_and(QuarantineGate::is_open)
    }

    /// Current belief that `block` is up, if it is covered.
    pub fn belief(&self, block: &Prefix) -> Option<f64> {
        self.route
            .get(block)
            .map(|id| self.units.states()[self.unit_of_id[id as usize] as usize].belief())
    }

    /// Units currently believed down (belief < 0.5), as
    /// `(unit prefix, belief)`, in unit order. The live "what is out
    /// right now" view a service surfaces and alerts on.
    pub fn down_units(&self) -> Vec<(Prefix, f64)> {
        self.units
            .states()
            .iter()
            .filter(|s| s.belief() < 0.5)
            .map(|s| (s.prefix(), s.belief()))
            .collect()
    }

    /// Apply one typed input step.
    pub fn apply(&mut self, input: EngineInput) {
        match input {
            EngineInput::Observe(obs) => self.observe(obs),
            EngineInput::AdvanceWatermark(t) => self.advance_watermark(t),
            EngineInput::SkipTo(t) => self.skip_to(t),
        }
    }

    /// One attributed arrival: gate first (faulted arrivals are not
    /// evidence), then route to the owning unit. Arrivals outside the
    /// window are ignored.
    pub fn observe(&mut self, obs: Observation) {
        if !self.window.contains(obs.time) {
            return;
        }
        self.gate_observe(obs.time);
        self.gate_close_if_recovered(obs.time);
        self.ingest(obs);
    }

    /// Gate intake for one arrival: sentinel observation plus a
    /// possible quarantine open. Split from [`Self::ingest`] so the
    /// streaming adapter can interleave epoch rolls between the open
    /// check (before rolling — a dark epoch tail is skipped, not
    /// judged) and the close check (after rolling — recovery re-seeds
    /// the units that actually exist now).
    pub(crate) fn gate_observe(&mut self, t: UnixTime) {
        if let Some(g) = &mut self.gate {
            g.observe(t);
            g.open_if_flagged(t);
        }
    }

    /// Gate progress on wall-clock time (no arrival).
    pub(crate) fn gate_advance(&mut self, t: UnixTime) {
        if let Some(g) = &mut self.gate {
            g.advance_to(t);
            g.open_if_flagged(t);
        }
    }

    /// If the gate has recovered, close the quarantine and jump every
    /// unit past the faulted span.
    pub(crate) fn gate_close_if_recovered(&mut self, now: UnixTime) {
        if let Some(g) = &mut self.gate {
            if let Some(to) = g.close_if_recovered(now) {
                self.units.skip_all(to);
            }
        }
    }

    /// Post-gate ingest: swallow while quarantined, else route.
    pub(crate) fn ingest(&mut self, obs: Observation) {
        let id = self.route_id(&obs.block);
        self.ingest_routed(id, obs.time);
    }

    /// The routing id of `block` in the current unit set, or `None` for
    /// a stray. Ids stay valid until the unit set is rotated out.
    #[inline]
    pub(crate) fn route_id(&self, block: &Prefix) -> Option<u32> {
        self.route.get(block)
    }

    /// [`Self::ingest`] for an arrival whose routing id the caller has
    /// already resolved with [`Self::route_id`] against the current unit
    /// set (the streaming adapter caches it per block).
    #[inline]
    pub(crate) fn ingest_routed(&mut self, route_id: Option<u32>, t: UnixTime) {
        if let Some(g) = &mut self.gate {
            if g.is_open() {
                g.swallow();
                return;
            }
        }
        match route_id {
            Some(id) => self.units.observe(self.unit_of_id[id as usize] as usize, t),
            None => self.strays += 1,
        }
    }

    /// Pre-routed arrival for a unit by local index (parallel workers:
    /// the router already resolved block → unit → worker).
    pub(crate) fn observe_unit(&mut self, local: u32, t: UnixTime) {
        self.units.observe(local as usize, t);
    }

    /// Wall-clock progress without an arrival: the gate's bucket clock
    /// always advances; unit bins advance only while not quarantined
    /// (beliefs freeze during a sensor fault).
    pub fn advance_watermark(&mut self, now: UnixTime) {
        self.gate_advance(now);
        self.gate_close_if_recovered(now);
        self.advance_units(now);
    }

    /// Advance unit bins to `now` unless quarantined.
    pub(crate) fn advance_units(&mut self, now: UnixTime) {
        if self.is_quarantined() {
            return;
        }
        self.units.advance_all(now);
    }

    /// Jump every unit's bin clock past a span that must not be judged.
    pub fn skip_to(&mut self, t: UnixTime) {
        self.units.skip_all(t);
    }

    /// End-of-stream gate settlement: the feed may die faulted, or the
    /// fault may only become visible once trailing silence closes
    /// sentinel buckets — swallow the tail rather than judge it.
    fn settle_gate(&mut self, end: UnixTime) {
        self.gate_advance(end);
        self.gate_close_if_recovered(end);
        if let Some(g) = &mut self.gate {
            if let Some(to) = g.force_close(end) {
                self.units.skip_all(to);
            }
        }
    }

    /// Rotate out the current unit set (streaming epoch close): a
    /// still-open quarantine skips the unjudged tail first — sensor
    /// silence, not network silence. The gate and stray count persist;
    /// the engine is left unit-less until [`Self::install_units`].
    /// Returns the finished per-unit reports and the routing (block
    /// index + id → unit map) they were judged under.
    pub(crate) fn rotate_out(
        &mut self,
        epoch_end: UnixTime,
    ) -> (Vec<UnitReport>, BlockIndex, Vec<u32>) {
        let policy = self.units.policy();
        let mut units = std::mem::replace(&mut self.units, UnitArena::with_capacity(policy, 0));
        let route = std::mem::take(&mut self.route);
        let unit_of_id = std::mem::take(&mut self.unit_of_id);
        self.members.clear();
        self.uncovered.clear();
        if self.gate.as_ref().is_some_and(QuarantineGate::is_open) {
            units.skip_all(epoch_end);
        }
        let mut reports = units.finish_all();
        if let Some(g) = &self.gate {
            fill_evidence_quarantine(&mut reports, &g.quarantined_through(epoch_end));
        }
        (reports, route, unit_of_id)
    }

    /// Install a fresh unit set for `window` (streaming epoch
    /// promotion). The gate persists across installs.
    pub(crate) fn install_units<H: HistorySource + ?Sized>(
        &mut self,
        config: &DetectorConfig,
        plan: AggregationPlan,
        histories: &H,
        window: Interval,
    ) {
        let gate = self.gate.take();
        let strays = self.strays;
        *self = DetectionEngine::from_plan(config, plan, histories, window, gate);
        self.strays = strays;
    }

    /// Finish at `end`: settle the gate, advance every unit to `end`,
    /// and return the finished per-unit reports plus routing. Used by
    /// the streaming adapter, which assembles events incrementally;
    /// batch uses [`Self::finish`] for a full report.
    pub(crate) fn finish_units(mut self, end: UnixTime) -> (Vec<UnitReport>, EngineParts) {
        self.settle_gate(end);
        self.units.advance_all(end);
        let mut reports = self.units.finish_all();
        let (sentinel, quarantined) = match self.gate {
            Some(g) => {
                let (s, q) = g.into_parts();
                (Some(s), q)
            }
            None => (None, IntervalSet::new()),
        };
        fill_evidence_quarantine(&mut reports, &quarantined);
        (
            reports,
            EngineParts {
                window: self.window,
                members: self.members,
                uncovered: self.uncovered,
                route: self.route,
                unit_of_id: self.unit_of_id,
                strays: self.strays,
                quarantined,
                sentinel,
            },
        )
    }

    /// End of stream: settle the gate at the window end, finish every
    /// unit, and assemble the run's [`DetectionReport`].
    pub fn finish(self) -> EngineOutput {
        let end = self.window.end;
        let (units, parts) = self.finish_units(end);
        let report = DetectionReport::assemble(
            parts.window,
            units,
            parts.members,
            parts.uncovered,
            parts.strays,
            parts.quarantined,
            parts.sentinel.as_ref().map(FeedSentinel::health),
            parts.route,
            parts.unit_of_id,
        );
        EngineOutput {
            report,
            sentinel: parts.sentinel,
        }
    }

    /// Finish a unit-only worker shard: no gate to settle, no report to
    /// assemble — just the per-unit verdicts, in local-index order.
    pub(crate) fn finish_shard(self) -> Vec<UnitReport> {
        self.units.finish_all()
    }
}

/// Stamp each frozen evidence record with how much of its interval the
/// sentinel quarantined. Idempotent (the field is *set*, not added), so
/// records that pass through more than one harvest point — e.g. shard
/// finish then report assembly — come out the same.
pub(crate) fn fill_evidence_quarantine(reports: &mut [UnitReport], quarantined: &IntervalSet) {
    if quarantined.is_empty() {
        return;
    }
    for r in reports {
        for e in &mut r.evidence {
            e.fill_quarantine(quarantined);
        }
    }
}

/// Non-unit leftovers of a finished engine (streaming adapter plumbing).
#[derive(Debug)]
pub(crate) struct EngineParts {
    pub(crate) window: Interval,
    pub(crate) members: Vec<Vec<Prefix>>,
    pub(crate) uncovered: Vec<Prefix>,
    pub(crate) route: BlockIndex,
    pub(crate) unit_of_id: Vec<u32>,
    pub(crate) strays: u64,
    pub(crate) quarantined: IntervalSet,
    pub(crate) sentinel: Option<FeedSentinel>,
}
