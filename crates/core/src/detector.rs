//! Streaming outage detection for one detection unit (a block or a
//! spatial aggregate).
//!
//! Two complementary mechanisms produce down intervals:
//!
//! 1. **Bin inference** — arrivals are counted into the unit's tuned bins;
//!    each closed bin updates the Bayesian belief, and a hysteresis
//!    state machine (down below `down_threshold`, up above
//!    `up_threshold`) turns belief excursions into outage intervals.
//! 2. **Exact-timestamp gaps** — for an up unit, a single inter-arrival
//!    gap can itself be decisive evidence: if silent time alone would
//!    push the belief below threshold *with margin to spare*, the gap is
//!    retroactively declared an outage `[last_arrival+1, next_arrival)`.
//!    This path is why the passive detector can out-resolve Trinocular's
//!    ±330 s edges, and it is what `use_exact_timestamps = false`
//!    ablates.
//!
//! Outage edges from the bin path are *refined* to packet timestamps:
//! the start backs up to just after the last packet seen, the end snaps
//! to the first packet of the recovery. Without refinement (ablation),
//! edges stay on bin boundaries.
//!
//! ## Layout
//!
//! The algorithm is split struct-of-arrays style so an engine over
//! hundreds of thousands of units stays cache-friendly:
//!
//! * [`UnitPolicy`] — the config-derived knobs every unit in an engine
//!   shares (thresholds and their probabilities, margins, window). One
//!   copy per engine.
//! * [`UnitState`] — the per-unit cold state (belief, bin clock, edge
//!   bookkeeping, and the peak rate that bounds the gap rule). One
//!   entry per unit in a flat `Vec`; no hour shape, no duplicated
//!   thresholds.
//! * The 24-hour expectation shapes live in a flat
//!   [`crate::history::ShapeTable`] arena owned by the engine.
//! * In front of both, a [`crate::arena::UnitArena`] keeps a 32-byte
//!   hot row per unit: most arrivals close no bin and cannot fire the
//!   gap rule, and only update that row; everything else folds the row
//!   into the `UnitState` and runs the code here unchanged.
//!
//! What lets an arrival stay in the hot row is [`UnitState::gap_trigger`]:
//! the gap rule's evidence over `d` seconds of silence is at most
//! `fl(peak·d)` ([`padded_peak`]), so a silence for which that bound
//! stays below the threshold cannot be decisive, and
//! [`UnitState::gap_is_decisive`] prunes it the same way before its
//! hourly loop.

use crate::belief::{from_log_odds, log_odds, Belief, BeliefClamp};
use crate::config::DetectorConfig;
use crate::evidence::{EventEvidence, UnitEvidence};
use crate::tuning::UnitParams;
use outage_types::{DetectorId, Interval, IntervalSet, OutageEvent, Prefix, Timeline, UnixTime};

/// Hysteresis state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Up,
    Down,
}

/// Counters describing what one unit's detector did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitDiagnostics {
    /// Arrivals consumed.
    pub arrivals: u64,
    /// Bins closed.
    pub bins: u64,
    /// Outages opened by the bin/belief path.
    pub bin_detections: u64,
    /// Outages declared by the exact-timestamp gap path.
    pub gap_detections: u64,
}

/// The config-derived knobs shared by every unit in one engine: one
/// copy per engine instead of one per unit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitPolicy {
    pub(crate) window: Interval,
    pub(crate) diurnal: bool,
    pub(crate) use_gaps: bool,
    pub(crate) refine: bool,
    pub(crate) min_gap_secs: u64,
    pub(crate) down_lo: f64,
    /// `from_log_odds(down_lo)`: the belief a closed bin must fall
    /// below. Precomputed once here, not per closed bin.
    down_p: f64,
    /// `from_log_odds(log_odds(up_threshold))`: the belief a closed bin
    /// must rise above.
    up_p: f64,
    pub(crate) gap_margin: f64,
    pub(crate) clamp: BeliefClamp,
}

impl UnitPolicy {
    pub(crate) fn new(config: &DetectorConfig, window: Interval) -> UnitPolicy {
        let down_lo = log_odds(config.down_threshold);
        UnitPolicy {
            window,
            diurnal: config.diurnal_model,
            use_gaps: config.use_exact_timestamps,
            refine: config.use_exact_timestamps,
            min_gap_secs: config.min_gap_outage_secs.max(2),
            down_lo,
            down_p: from_log_odds(down_lo),
            up_p: from_log_odds(log_odds(config.up_threshold)),
            gap_margin: config.gap_margin_log_odds,
            clamp: BeliefClamp::new(config),
        }
    }

    /// A policy for an engine with no units yet (the streaming warm-up
    /// epoch). Never consulted on the hot path — there is nothing to
    /// route to — but must be structurally valid.
    pub(crate) fn inert(window: Interval) -> UnitPolicy {
        UnitPolicy::new(&DetectorConfig::default(), window)
    }
}

/// The per-unit cold state: everything bin closing and edge refinement
/// touch, and nothing an engine can share. An engine reaches it only on
/// the slow path (see [`crate::arena`]).
#[derive(Debug)]
pub(crate) struct UnitState {
    prefix: Prefix,
    params: UnitParams,
    belief: Belief,
    state: State,
    /// Next bin index to close (bins are `[window.start + i*width, …)`).
    next_bin: u64,
    bin_count: u64,
    last_arrival: Option<UnixTime>,
    /// Start of the current run of consecutive empty bins, if any.
    empty_run_start: Option<UnixTime>,
    /// While Down: refined outage start.
    down_start: Option<UnixTime>,
    /// While Down: first arrival seen since going down (refined end).
    first_arrival_down: Option<UnixTime>,
    /// While Down: the lowest belief reached (drives event confidence).
    min_belief_down: f64,
    down: IntervalSet,
    /// Raw detections with their confidence, before interval merging.
    raw_outages: Vec<(Interval, f64)>,
    diag: UnitDiagnostics,
    /// [`padded_peak`] of this unit: bounds the gap rule's evidence per
    /// second of silence.
    peak: f64,
}

impl UnitState {
    pub(crate) fn new(
        prefix: Prefix,
        params: UnitParams,
        shape: &[f64; 24],
        config: &DetectorConfig,
    ) -> UnitState {
        UnitState {
            prefix,
            params,
            peak: padded_peak(&params, shape, config.diurnal_model),
            belief: Belief::new(config),
            state: State::Up,
            next_bin: 0,
            bin_count: 0,
            last_arrival: None,
            empty_run_start: None,
            down_start: None,
            first_arrival_down: None,
            min_belief_down: 1.0,
            down: IntervalSet::new(),
            raw_outages: Vec::new(),
            diag: UnitDiagnostics::default(),
        }
    }

    pub(crate) fn prefix(&self) -> Prefix {
        self.prefix
    }

    pub(crate) fn belief(&self) -> f64 {
        self.belief.value()
    }

    fn bin_start(&self, policy: &UnitPolicy, index: u64) -> UnixTime {
        policy.window.start + index * self.params.width
    }

    /// Expected up-count for the bin starting at `start`.
    fn expected_in_bin(&self, shape: &[f64; 24], policy: &UnitPolicy, start: UnixTime) -> f64 {
        let w = self.params.width as f64;
        if policy.diurnal {
            let mid = start + self.params.width / 2;
            let hour = ((mid.secs() % 86_400) / 3_600) as usize;
            (self.params.lambda * shape[hour] * w).max(self.params.leak * w * 2.0)
        } else {
            self.params.lambda * w
        }
    }

    /// Close one bin with `n` arrivals.
    fn close_bin(
        &mut self,
        shape: &[f64; 24],
        policy: &UnitPolicy,
        index: u64,
        n: u64,
        mut ev: Option<&mut UnitEvidence>,
    ) {
        let start = self.bin_start(policy, index);
        let lambda_w = self.expected_in_bin(shape, policy, start);
        let leak_w = self.params.leak * self.params.width as f64;
        let b = self.belief.update_bin(n, lambda_w, leak_w, policy.clamp);
        self.diag.bins += 1;
        if let Some(e) = ev.as_deref_mut() {
            e.record_bin(start, n, lambda_w, b);
        }

        if n == 0 {
            if self.empty_run_start.is_none() {
                self.empty_run_start = Some(start);
            }
        } else {
            self.empty_run_start = None;
        }

        match self.state {
            State::Up => {
                if b < policy.down_p {
                    self.state = State::Down;
                    self.diag.bin_detections += 1;
                    self.down_start = Some(self.refined_start(policy, start));
                    self.first_arrival_down = None;
                    self.min_belief_down = b;
                    if let Some(e) = ev.as_deref_mut() {
                        e.open(b, self.last_arrival);
                    }
                }
            }
            State::Down => {
                self.min_belief_down = self.min_belief_down.min(b);
                if b > policy.up_p {
                    let end = self.refined_end(policy, self.bin_start(policy, index + 1));
                    self.commit_outage(policy, shape, end, false, ev);
                    self.state = State::Up;
                }
            }
        }
    }

    /// Refined start of an outage discovered at a bin ending before
    /// `fallback_bin_start`.
    fn refined_start(&self, policy: &UnitPolicy, fallback_bin_start: UnixTime) -> UnixTime {
        if policy.refine {
            match self.last_arrival {
                Some(t) => t + 1,
                None => policy.window.start,
            }
        } else {
            // Bin-edge semantics: the outage began with the empty run.
            self.empty_run_start.unwrap_or(fallback_bin_start)
        }
    }

    /// Refined end of the outage given recovery observed by `bin_end`.
    fn refined_end(&self, policy: &UnitPolicy, bin_end: UnixTime) -> UnixTime {
        if policy.refine {
            self.first_arrival_down.unwrap_or(bin_end)
        } else {
            bin_end
        }
    }

    fn commit_outage(
        &mut self,
        policy: &UnitPolicy,
        shape: &[f64; 24],
        end: UnixTime,
        censored: bool,
        ev: Option<&mut UnitEvidence>,
    ) {
        if let Some(start) = self.down_start.take() {
            let iv = Interval::new(start, end).intersect(&policy.window);
            if !iv.is_empty() {
                // Confidence: how far below the threshold the belief fell.
                let confidence = 1.0 - self.min_belief_down.clamp(0.0, 1.0);
                self.raw_outages.push((iv, confidence));
                self.down.insert(iv);
                if let Some(e) = ev {
                    e.close(
                        self.prefix,
                        iv,
                        confidence,
                        self.min_belief_down,
                        self.first_arrival_down,
                        censored,
                        self.params.width,
                        shape,
                    );
                }
            } else if let Some(e) = ev {
                e.drop_pending();
            }
        }
        self.first_arrival_down = None;
        self.min_belief_down = 1.0;
    }

    /// Record a gap-rule detection with its posterior-derived confidence.
    fn record_gap_outage(
        &mut self,
        shape: &[f64; 24],
        policy: &UnitPolicy,
        from: UnixTime,
        to: UnixTime,
        ev: Option<&mut UnitEvidence>,
    ) {
        let iv = Interval::new(from, to).intersect(&policy.window);
        if iv.is_empty() {
            return;
        }
        let evidence = self.rate_integral(shape, policy, iv.start, iv.end)
            - self.params.leak * iv.duration() as f64;
        let posterior_lo = self.belief.log_odds() - evidence;
        let posterior = from_log_odds(posterior_lo);
        let confidence = 1.0 - posterior;
        self.raw_outages.push((iv, confidence));
        self.down.insert(iv);
        if let Some(e) = ev {
            e.record_gap(
                self.prefix,
                iv,
                confidence,
                posterior,
                self.belief.value(),
                self.params.width,
                shape,
            );
        }
    }

    /// Close all bins that end at or before `t`.
    fn advance_bins_to(
        &mut self,
        shape: &[f64; 24],
        policy: &UnitPolicy,
        t: UnixTime,
        mut ev: Option<&mut UnitEvidence>,
    ) {
        let limit = t.min(policy.window.end);
        while self.bin_start(policy, self.next_bin + 1) <= limit {
            let idx = self.next_bin;
            let n = self.bin_count;
            self.bin_count = 0;
            self.next_bin += 1;
            self.close_bin(shape, policy, idx, n, ev.as_deref_mut());
        }
    }

    /// Expected arrivals over `[from, to)` under the (possibly diurnal)
    /// rate model.
    fn rate_integral(
        &self,
        shape: &[f64; 24],
        policy: &UnitPolicy,
        from: UnixTime,
        to: UnixTime,
    ) -> f64 {
        if !policy.diurnal {
            return self.params.lambda * to.since(from) as f64;
        }
        let mut acc = 0.0;
        let mut t = from;
        while t < to {
            let hour_end = UnixTime((t.secs() / 3_600 + 1) * 3_600);
            let seg_end = to.min(hour_end);
            let h = ((t.secs() % 86_400) / 3_600) as usize;
            acc += self.params.lambda * shape[h] * seg_end.since(t) as f64;
            t = seg_end;
        }
        acc
    }

    /// The evidence a silence must reach for the gap rule to fire.
    fn gap_threshold(&self, policy: &UnitPolicy) -> f64 {
        self.belief.log_odds() - policy.down_lo + policy.gap_margin
    }

    /// Exact-timestamp rule: does the silence over `[from, to)`, on its
    /// own, push the current belief below the down threshold with margin?
    /// The expectation honours the diurnal shape, so a quiet night is not
    /// mistaken for a stack of micro-outages. A silence the peak-rate
    /// bound already rules out skips the hourly loop and the shape row.
    fn gap_is_decisive(
        &self,
        shape: &[f64; 24],
        policy: &UnitPolicy,
        from: UnixTime,
        to: UnixTime,
    ) -> bool {
        let threshold = self.gap_threshold(policy);
        if gap_pruned(self.peak, to.since(from), threshold) {
            return false;
        }
        let evidence =
            self.rate_integral(shape, policy, from, to) - self.params.leak * to.since(from) as f64;
        evidence >= threshold
    }

    /// Credit `n` arrivals, the latest at `last`, that closed no bin and
    /// could not fire the gap rule: exactly what `n` calls of
    /// [`Self::observe`] would have done to this state.
    pub(crate) fn fold_arrivals(&mut self, n: u64, last: UnixTime) {
        self.diag.arrivals += n;
        self.bin_count += n;
        self.last_arrival = Some(last);
    }

    /// The end of the current bin, in seconds: the first time an arrival
    /// or watermark closes a bin. `u64::MAX` when that edge lies past
    /// the window end, where no arrival or watermark closes a bin.
    pub(crate) fn bin_close_at(&self, policy: &UnitPolicy) -> u64 {
        let end = self.bin_start(policy, self.next_bin + 1);
        if end <= policy.window.end {
            end.secs()
        } else {
            u64::MAX
        }
    }

    /// The latest arrival, in seconds (0 before the first).
    pub(crate) fn last_arrival_secs(&self) -> u64 {
        self.last_arrival.map_or(0, UnixTime::secs)
    }

    /// The gap trigger: the shortest silence since the latest arrival at
    /// which the next arrival may do more than count itself, with the
    /// bin clock standing still. 0 when every arrival must run
    /// [`Self::observe`] (up with no arrival yet, or down with no
    /// recovery arrival recorded); `u64::MAX` when no silence can
    /// matter (gaps off, or down with the recovery arrival recorded).
    pub(crate) fn gap_trigger(&self, policy: &UnitPolicy) -> u64 {
        match self.state {
            State::Down if self.first_arrival_down.is_none() => 0,
            State::Down => u64::MAX,
            State::Up if !policy.use_gaps => u64::MAX,
            State::Up if self.last_arrival.is_none() => 0,
            State::Up => policy
                .min_gap_secs
                .max(first_unpruned_secs(self.peak, self.gap_threshold(policy))),
        }
    }

    /// Advance the bin clock to `t` without an arrival: closes any bins
    /// ending at or before `t`, updating belief and state exactly as if
    /// the silence had been observed at an arrival. Lets a live monitor
    /// notice outages on wall-clock time instead of waiting for the
    /// block's next packet.
    pub(crate) fn advance_to(
        &mut self,
        shape: &[f64; 24],
        policy: &UnitPolicy,
        t: UnixTime,
        ev: Option<&mut UnitEvidence>,
    ) {
        self.advance_bins_to(shape, policy, t, ev);
    }

    /// Jump the bin clock past a quarantined span ending at `t` without
    /// judging any of it. Bins that started before `t` are discarded
    /// unclosed — their contents are sensor artifacts, not evidence — and
    /// the silence bookkeeping is re-seeded so neither the empty-bin run
    /// nor the exact-timestamp gap rule can count faulted time against
    /// the unit. A partial bin straddling `t` is also discarded: arrivals
    /// between `t` and the next bin edge are credited to the next bin,
    /// which only ever biases the first post-recovery judgement toward
    /// "up" — the conservative direction after a sensor fault.
    ///
    /// `last_arrival` is set to `t` (never cleared to `None`): a `None`
    /// would make later edge refinement fall back to `window.start`,
    /// fabricating outage starts inside the quarantined span, and the gap
    /// rule must measure silence only from recovery onward.
    pub(crate) fn skip_to(
        &mut self,
        policy: &UnitPolicy,
        t: UnixTime,
        ev: Option<&mut UnitEvidence>,
    ) {
        let limit = t.min(policy.window.end);
        while self.bin_start(policy, self.next_bin) < limit {
            self.next_bin += 1;
        }
        self.bin_count = 0;
        self.empty_run_start = None;
        if self.last_arrival.is_none_or(|last| last < limit) {
            self.last_arrival = Some(limit);
        }
        if let Some(e) = ev {
            // The ring spans the faulted feed: sensor artifacts, not
            // evidence. Frozen pre-fault records stay.
            e.reset();
        }
    }

    /// Feed one arrival at `t` (must be inside the window and
    /// non-decreasing across calls).
    pub(crate) fn observe(
        &mut self,
        shape: &[f64; 24],
        policy: &UnitPolicy,
        t: UnixTime,
        mut ev: Option<&mut UnitEvidence>,
    ) {
        debug_assert!(policy.window.contains(t), "arrival outside window");
        self.advance_bins_to(shape, policy, t, ev.as_deref_mut());
        self.diag.arrivals += 1;

        if self.state == State::Up {
            if policy.use_gaps {
                if let Some(last) = self.last_arrival {
                    if t.since(last) >= policy.min_gap_secs
                        && self.gap_is_decisive(shape, policy, last, t)
                    {
                        self.diag.gap_detections += 1;
                        self.record_gap_outage(shape, policy, last + 1, t, ev);
                    }
                }
            }
        } else if self.first_arrival_down.is_none() {
            self.first_arrival_down = Some(t);
        }

        self.last_arrival = Some(t);
        self.bin_count += 1;
    }

    /// End of stream: close remaining bins, settle any open outage, and
    /// return the unit's verdict.
    pub(crate) fn finish(
        mut self,
        shape: &[f64; 24],
        policy: &UnitPolicy,
        mut ev: Option<&mut UnitEvidence>,
    ) -> UnitReport {
        // Close every bin in the window.
        self.advance_bins_to(shape, policy, policy.window.end, ev.as_deref_mut());
        // A final partial bin (window not a multiple of width) is judged
        // only if it is at least half a bin long, scaled accordingly.
        let tail_start = self.bin_start(policy, self.next_bin);
        let tail_len = policy.window.end.since(tail_start);
        if tail_len * 2 >= self.params.width {
            let n = self.bin_count;
            let scale = tail_len as f64 / self.params.width as f64;
            let lambda_w = self.expected_in_bin(shape, policy, tail_start) * scale;
            let leak_w = self.params.leak * tail_len as f64;
            let b = self
                .belief
                .update_bin(n, lambda_w.max(leak_w * 2.0), leak_w, policy.clamp);
            self.diag.bins += 1;
            if let Some(e) = ev.as_deref_mut() {
                e.record_bin(tail_start, n, lambda_w.max(leak_w * 2.0), b);
            }
            if self.state == State::Up && b < policy.down_p {
                self.state = State::Down;
                self.diag.bin_detections += 1;
                self.down_start = Some(self.refined_start(policy, tail_start));
                self.min_belief_down = b;
                if let Some(e) = ev.as_deref_mut() {
                    e.open(b, self.last_arrival);
                }
            }
        }

        match self.state {
            State::Down => {
                // Censored outage: runs to the end of the window.
                self.down_start.get_or_insert(policy.window.start);
                self.commit_outage(policy, shape, policy.window.end, true, ev.as_deref_mut());
            }
            State::Up if policy.use_gaps => {
                // Trailing silence: the gap rule applied to the window end.
                if let Some(last) = self.last_arrival {
                    let end = policy.window.end;
                    if end.since(last) >= policy.min_gap_secs
                        && self.gap_is_decisive(shape, policy, last, end)
                    {
                        self.diag.gap_detections += 1;
                        self.record_gap_outage(shape, policy, last + 1, end, ev.as_deref_mut());
                    }
                }
            }
            State::Up => {}
        }

        // Merge overlapping raw detections (a gap detection inside a
        // bin-path outage, say) into discrete events, keeping the highest
        // confidence of the merged parts.
        self.raw_outages.sort_by_key(|(iv, _)| iv.start);
        let mut detections: Vec<(Interval, f64)> = Vec::with_capacity(self.raw_outages.len());
        for (iv, conf) in self.raw_outages.drain(..) {
            match detections.last_mut() {
                Some((last, last_conf)) if last.touches(&iv) => {
                    *last = last.hull(&iv);
                    *last_conf = last_conf.max(conf);
                }
                _ => detections.push((iv, conf)),
            }
        }

        // Frozen evidence merges by the same sort+touches rule, so
        // record i aligns with detections[i].
        let evidence_enrolled = ev.is_some();
        let evidence = match ev {
            Some(e) => e.finalize(),
            None => Vec::new(),
        };

        UnitReport {
            prefix: self.prefix,
            params: self.params,
            timeline: Timeline::from_down(policy.window, self.down),
            detections,
            evidence,
            evidence_enrolled,
            diagnostics: self.diag,
        }
    }
}

/// Relative padding of [`padded_peak`]: far above the rounding error
/// of any realistic gap sum.
const PEAK_PAD: f64 = 1.0 + 1.0 / (1u64 << 20) as f64;

/// An upper bound, per second of silence, on the gap evidence
/// `rate_integral − leak·d` that [`UnitState::gap_is_decisive`]
/// computes: `λ·max(shape)` (`λ` without the diurnal model), padded by
/// a relative 2⁻²⁰ and an absolute `f64::MIN_POSITIVE`.
///
/// Why it bounds the *computed* value, rounding included: every term
/// `fl(fl(λ·shape[h])·seg)` is at most `fl(fl(λ·max)·seg)` because
/// IEEE rounding is monotone; each product and each partial sum of
/// non-negative terms errs upward by at most a relative 2⁻⁵³ (or not at
/// all below `f64::MIN_POSITIVE`, where multiples of the smallest
/// subnormal are exact), so a sum over `k` hour segments is at most
/// `λ·max·d·(1 + 2⁻⁵³)^(k+1)`; and subtracting `fl(leak·d) ≥ 0` can only
/// lower it. The bound `fl(peak·d)` is at least `λ·max·d·(1 + 2⁻²⁰)·
/// (1 − 2⁻⁵³)²`, which is larger for any `k` below 2³² hour segments;
/// the absolute pad covers a subnormal `λ·max`, whose product carries
/// no relative guarantee. `f64::INFINITY` (prune nothing) when `λ`,
/// `leak` or a shape entry is negative or NaN, where the argument
/// fails.
pub(crate) fn padded_peak(params: &UnitParams, shape: &[f64; 24], diurnal: bool) -> f64 {
    if !(params.lambda >= 0.0 && params.leak >= 0.0) {
        return f64::INFINITY;
    }
    let mut top = 1.0f64;
    if diurnal {
        top = 0.0;
        for &s in shape {
            if s.is_nan() || s < 0.0 {
                return f64::INFINITY;
            }
            top = top.max(s);
        }
    }
    params.lambda * top * PEAK_PAD + f64::MIN_POSITIVE
}

/// Whether the peak-rate bound alone shows that `secs` of silence
/// cannot reach `threshold`. NaN and ∞ on either side never prune:
/// they fall through to the exact sum.
#[inline]
pub(crate) fn gap_pruned(peak: f64, secs: u64, threshold: f64) -> bool {
    let bound = peak * secs as f64;
    bound < threshold && bound.is_finite() && threshold.is_finite()
}

/// The shortest silence [`gap_pruned`] does not prune: every `d` below
/// it is pruned (`fl(peak·d)` is monotone in `d`), none at or above it.
/// Capped at 2⁵³ s, past which `d` is no longer exact as an `f64`.
pub(crate) fn first_unpruned_secs(peak: f64, threshold: f64) -> u64 {
    const CAP: u64 = 1 << 53;
    if !(peak.is_finite() && threshold.is_finite() && threshold > 0.0) {
        return 0;
    }
    // The two walks correct the quotient's rounding by a step or two.
    // A zero or negative peak prunes every silence.
    let mut d = if peak > 0.0 {
        (threshold / peak).ceil().min(CAP as f64) as u64
    } else {
        CAP
    };
    while d > 0 && !gap_pruned(peak, d - 1, threshold) {
        d -= 1;
    }
    while d < CAP && gap_pruned(peak, d, threshold) {
        d += 1;
    }
    d
}

/// Final verdict for one unit.
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// The unit's prefix (a block, or an aggregate supernet).
    pub prefix: Prefix,
    /// Parameters the unit ran with.
    pub params: UnitParams,
    /// Judged up/down timeline.
    pub timeline: Timeline,
    /// Discrete detections with confidences (merged, sorted by start).
    pub detections: Vec<(Interval, f64)>,
    /// Per-event provenance records, aligned 1:1 with `detections` when
    /// the unit is enrolled for evidence capture; empty otherwise.
    pub evidence: Vec<EventEvidence>,
    /// Whether this unit carried an evidence ring (a unit can be
    /// enrolled yet have no events; distinguishes "no outage" from
    /// "tier off").
    pub evidence_enrolled: bool,
    /// Detector counters.
    pub diagnostics: UnitDiagnostics,
}

impl UnitReport {
    /// The unit's outages as events, with detection-derived confidence
    /// (`1 − belief` at the deepest point of each outage).
    pub fn events(&self) -> Vec<OutageEvent> {
        self.detections
            .iter()
            .map(|&(interval, confidence)| OutageEvent {
                prefix: self.prefix,
                interval,
                confidence,
                detector: DetectorId::PassiveBayes,
            })
            .collect()
    }
}

#[cfg(test)]
mod invariants;
#[cfg(test)]
mod prune_bound;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::UnitArena;

    fn block() -> Prefix {
        "192.0.2.0/24".parse().unwrap()
    }

    fn window() -> Interval {
        Interval::from_secs(0, 86_400)
    }

    fn dense_params() -> UnitParams {
        UnitParams {
            width: 300,
            lambda: 0.1,
            leak: 0.001,
        }
    }

    /// A one-unit arena over [`block`] and [`window`]: the standalone
    /// single-unit detector these tests drive.
    fn unit(params: UnitParams, shape: [f64; 24], cfg: &DetectorConfig) -> UnitArena {
        UnitArena::single(cfg, block(), params, shape, window())
    }

    fn detector(params: UnitParams) -> UnitArena {
        unit(params, [1.0; 24], &DetectorConfig::default())
    }

    /// Feed arrivals every `step` seconds over `0..86_400`, silent during
    /// `quiet`, and return the report.
    fn run_with_gap(params: UnitParams, step: u64, quiet: std::ops::Range<u64>) -> UnitReport {
        let mut d = detector(params);
        for t in (0..86_400).step_by(step as usize) {
            if !quiet.contains(&t) {
                d.observe(0, UnixTime(t));
            }
        }
        d.finish_one()
    }

    #[test]
    fn steady_traffic_is_all_up() {
        let r = run_with_gap(dense_params(), 10, 0..0);
        assert_eq!(r.timeline.down_secs(), 0, "{:?}", r.timeline.down);
        assert!(r.diagnostics.bins >= 287);
        assert_eq!(r.diagnostics.gap_detections, 0);
        assert_eq!(r.diagnostics.bin_detections, 0);
    }

    #[test]
    fn long_outage_detected_with_tight_edges() {
        // 2 h outage 30000..37200, arrivals every 10 s otherwise.
        let r = run_with_gap(dense_params(), 10, 30_000..37_200);
        assert_eq!(r.timeline.down.len(), 1);
        let iv = r.timeline.down.intervals()[0];
        // refined edges: start just after last packet (29990+1), end at
        // first packet after (37200)
        assert!(
            iv.start.secs() >= 29_990 && iv.start.secs() <= 30_001,
            "start {}",
            iv.start
        );
        assert!(
            iv.end.secs() >= 37_199 && iv.end.secs() <= 37_210,
            "end {}",
            iv.end
        );
    }

    #[test]
    fn short_outage_on_dense_block_detected_via_gap() {
        // 5-min outage deliberately *misaligned* with bin edges
        // (30130..30430): a single empty bin never fully forms, so only
        // the exact-timestamp path can catch it.
        let r = run_with_gap(dense_params(), 10, 30_130..30_430);
        assert_eq!(r.timeline.down.len(), 1, "{:?}", r.timeline.down);
        let iv = r.timeline.down.intervals()[0];
        assert!(
            iv.duration() >= 280 && iv.duration() <= 320,
            "dur {}",
            iv.duration()
        );
        assert!(r.diagnostics.gap_detections >= 1);
    }

    #[test]
    fn ablation_without_exact_timestamps_misses_misaligned_short_outage() {
        let cfg = DetectorConfig {
            use_exact_timestamps: false,
            ..DetectorConfig::default()
        };
        let mut d = unit(dense_params(), [1.0; 24], &cfg);
        for t in (0..86_400).step_by(10) {
            if !(30_130..30_430).contains(&t) {
                d.observe(0, UnixTime(t));
            }
        }
        let r = d.finish_one();
        assert_eq!(
            r.timeline.down_secs(),
            0,
            "bin-only detector should miss a misaligned 5-min outage"
        );
    }

    #[test]
    fn sparse_unit_needs_multiple_empty_bins() {
        // k=4 boundary block: λ=4/7200, width 7200.
        let params = UnitParams {
            width: 7_200,
            lambda: 4.0 / 7_200.0,
            leak: 1e-6,
        };
        // Arrivals every 1800 s except a 4 h silence (two bins).
        let r = run_with_gap(params, 1_800, 28_800..43_200);
        assert!(
            r.timeline.down_secs() > 0,
            "two empty sparse bins should be detected"
        );
    }

    #[test]
    fn no_false_outage_from_one_thin_bin() {
        // Dense block, one bin at half its usual traffic (a lull, not an
        // outage): arrivals every 20 s instead of every 10 s.
        let mut d = detector(dense_params());
        for t in (0..86_400).step_by(10) {
            if (30_000..30_300).contains(&t) && t % 20 != 0 {
                continue;
            }
            d.observe(0, UnixTime(t));
        }
        let r = d.finish_one();
        // 15 packets against an expectation of 30 still favours "up" by a
        // wide margin; no outage may be declared.
        assert_eq!(r.timeline.down_secs(), 0, "{:?}", r.timeline.down);
    }

    #[test]
    fn outage_running_into_window_end_is_censored() {
        let r = run_with_gap(dense_params(), 10, 80_000..86_400);
        let last = *r.timeline.down.intervals().last().expect("censored outage");
        assert_eq!(last.end, UnixTime(86_400));
        assert!(last.start.secs() <= 80_001);
    }

    #[test]
    fn outage_from_window_start_with_no_prior_arrival() {
        let r = run_with_gap(dense_params(), 10, 0..40_000);
        let first = r.timeline.down.intervals()[0];
        assert_eq!(first.start, UnixTime(0), "{first}");
        assert!(first.end.secs() >= 39_990);
    }

    #[test]
    fn belief_recovers_after_outage() {
        let mut d = detector(dense_params());
        for t in (0..86_400).step_by(10) {
            if !(30_000..40_000).contains(&t) {
                d.observe(0, UnixTime(t));
            }
        }
        assert!(
            d.states()[0].belief() > 0.9,
            "belief {}",
            d.states()[0].belief()
        );
        let r = d.finish_one();
        assert_eq!(r.timeline.down.len(), 1);
    }

    #[test]
    fn two_separate_outages_stay_separate() {
        let mut d = detector(dense_params());
        for t in (0..86_400).step_by(10) {
            if !(20_000..24_000).contains(&t) && !(60_000..63_000).contains(&t) {
                d.observe(0, UnixTime(t));
            }
        }
        let r = d.finish_one();
        assert_eq!(r.timeline.down.len(), 2, "{:?}", r.timeline.down);
    }

    #[test]
    fn diurnal_model_scales_expectations() {
        // A block that is quiet at night by design: without the diurnal
        // model, night bins look like outages; with it, they don't.
        let mut shape = [1.0f64; 24];
        for (h, s) in shape.iter_mut().enumerate() {
            *s = if h < 12 { 0.1 } else { 1.9 }; // quiet 00–12h
        }
        let params = UnitParams {
            width: 300,
            lambda: 0.05,
            leak: 0.0005,
        };
        let run = |diurnal: bool| {
            let cfg = DetectorConfig {
                diurnal_model: diurnal,
                use_exact_timestamps: false, // isolate the bin path
                ..DetectorConfig::default()
            };
            let mut d = unit(params, shape, &cfg);
            // Traffic matching the shape: 1 per 200 s at night, 1 per 10 s
            // by day.
            for t in (0..43_200u64).step_by(200) {
                d.observe(0, UnixTime(t));
            }
            for t in (43_200..86_400u64).step_by(10) {
                d.observe(0, UnixTime(t));
            }
            d.finish_one().timeline.down_secs()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "diurnal model should reduce night-time false outages: {with} !< {without}"
        );
    }

    #[test]
    fn events_carry_unit_prefix_and_detector_id() {
        let r = run_with_gap(dense_params(), 10, 30_000..37_200);
        let evs = r.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].prefix, block());
        assert_eq!(evs[0].detector, DetectorId::PassiveBayes);
    }

    #[test]
    fn evidence_records_align_with_detections() {
        use crate::config::EvidenceConfig;
        use crate::evidence::EvidenceTrigger;
        let cfg = DetectorConfig {
            evidence: EvidenceConfig::Full,
            ..DetectorConfig::default()
        };
        let mut d = unit(dense_params(), [1.0; 24], &cfg);
        for t in (0..86_400).step_by(10) {
            if !(30_000..37_200).contains(&t) && !(60_130..60_430).contains(&t) {
                d.observe(0, UnixTime(t));
            }
        }
        let r = d.finish_one();
        assert!(!r.detections.is_empty());
        assert_eq!(r.evidence.len(), r.detections.len());
        for (rec, &(iv, conf)) in r.evidence.iter().zip(&r.detections) {
            assert_eq!(rec.interval, iv);
            assert_eq!(rec.confidence, conf);
            assert_eq!(rec.prefix, block());
            assert_eq!(rec.bin_width, 300);
            assert!(!rec.censored);
        }
        // The long bin-path outage carries the trajectory that opened
        // it: its last sample is the empty bin that crossed the
        // threshold, judged against a non-trivial expectation.
        let long = r
            .evidence
            .iter()
            .find(|e| e.trigger == EvidenceTrigger::Bin)
            .expect("bin-path event");
        let last = long.trajectory.last().expect("non-empty trajectory");
        assert_eq!(last.belief, long.belief_at_open);
        assert_eq!(last.arrivals, 0);
        assert!(last.expected > 1.0);
        // And the short misaligned one came from the gap rule.
        assert!(r.evidence.iter().any(|e| e.trigger == EvidenceTrigger::Gap));
    }

    #[test]
    fn evidence_off_captures_nothing() {
        let r = run_with_gap(dense_params(), 10, 30_000..37_200);
        assert!(!r.detections.is_empty());
        assert!(r.evidence.is_empty());
    }

    #[test]
    fn event_confidence_reflects_evidence_depth() {
        // A long outage on a dense block: confidence near 1.
        let deep = run_with_gap(dense_params(), 10, 30_000..37_200);
        let deep_conf = deep.events()[0].confidence;
        assert!(deep_conf > 0.95, "deep outage conf {deep_conf}");
        assert!(deep_conf <= 1.0);

        // A marginal sparse detection: confidence lower.
        let params = UnitParams {
            width: 7_200,
            lambda: 4.0 / 7_200.0,
            leak: 1e-6,
        };
        let shallow = run_with_gap(params, 1_800, 28_800..43_200);
        if let Some(ev) = shallow.events().first() {
            assert!(ev.confidence > 0.5 && ev.confidence <= 1.0);
            assert!(
                ev.confidence < deep_conf,
                "marginal detection {} should be less confident than {}",
                ev.confidence,
                deep_conf
            );
        }
        // events and timeline agree on total down time
        let ev_secs: u64 = deep.events().iter().map(|e| e.duration()).sum();
        assert_eq!(ev_secs, deep.timeline.down_secs());
    }
}
