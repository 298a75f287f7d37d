//! The per-unit detection state of one engine, split hot from cold.
//!
//! Most arrivals at a unit close no bin and cannot fire the gap rule:
//! all [`UnitState::observe`] does for them is count the arrival and
//! remember its time. [`UnitArena`] therefore keeps, per unit, a
//! [`HotRow`] of at most 32 bytes in front of the cold state (the
//! [`UnitState`] and its [`ShapeTable`] row):
//!
//! * **Fast path.** An arrival before the end of the unit's current bin
//!   whose silence since the previous arrival is below the row's gap
//!   trigger only bumps the row's pending count and last-arrival time.
//! * **Slow path.** Every other arrival, and every advance, skip and
//!   finish, first folds the pending arrivals into the `UnitState`
//!   ([`UnitState::fold_arrivals`]), then runs the unchanged per-unit
//!   code, then rederives the row from the state.
//!
//! The fast path is exact: it runs only where `UnitState::observe`
//! would close no bin and find the gap rule pruned by the peak-rate
//! bound ([`crate::detector::padded_peak`]), so it skips nothing but
//! the count and the time, which the fold restores before anything
//! reads them. A watermark tick touches the cold state only of units
//! whose bin has ended.

use crate::config::DetectorConfig;
use crate::detector::{UnitPolicy, UnitReport, UnitState};
use crate::evidence::{enrolls, UnitEvidence};
use crate::history::ShapeTable;
use crate::tuning::UnitParams;
use outage_types::{Prefix, UnixTime};

/// The part of a unit the fast path reads and writes, in seconds.
/// Derived from the unit's [`UnitState`] after every slow-path step.
#[derive(Debug, Clone, Copy)]
struct HotRow {
    /// [`UnitState::bin_close_at`]: an arrival or watermark at or past
    /// it closes a bin.
    close_at: u64,
    /// The latest arrival, folded or pending.
    last: u64,
    /// Fast-path arrivals not yet folded into the state.
    pending: u64,
    /// [`UnitState::gap_trigger`]: a silence this long since `last`
    /// takes the slow path.
    trigger: u64,
}

const _: () = assert!(size_of::<HotRow>() <= 32);

impl HotRow {
    fn of(state: &UnitState, policy: &UnitPolicy) -> HotRow {
        HotRow {
            close_at: state.bin_close_at(policy),
            last: state.last_arrival_secs(),
            pending: 0,
            trigger: state.gap_trigger(policy),
        }
    }

    /// Whether an arrival at `t` may take the fast path.
    #[inline]
    fn admits(&self, t: u64) -> bool {
        t < self.close_at && t.saturating_sub(self.last) < self.trigger
    }
}

/// The per-unit detection state of one engine, struct-of-arrays style:
/// one shared [`UnitPolicy`], a flat `Vec` of [`HotRow`]s the fast path
/// lives in, and the cold [`UnitState`]s and [`ShapeTable`] rows only
/// the slow path touches (see the module docs). At paper scale
/// (hundreds of thousands of units) the hot rows are the only per-unit
/// memory most arrivals reach.
#[derive(Debug)]
pub(crate) struct UnitArena {
    policy: UnitPolicy,
    hot: Vec<HotRow>,
    shapes: ShapeTable,
    states: Vec<UnitState>,
    /// Per-unit slot into `rings`, `NO_EVIDENCE` when unenrolled.
    /// Empty (no per-unit cost at all) when the evidence tier is off.
    ev_index: Vec<u32>,
    /// Dense evidence rings for enrolled units only — one allocation,
    /// no per-unit boxes, nothing at all on the off tier.
    rings: Vec<UnitEvidence>,
}

const NO_EVIDENCE: u32 = u32::MAX;

/// Split-borrow helper: the evidence ring of unit `i`, if enrolled.
#[inline]
fn ev_of<'a>(
    ev_index: &[u32],
    rings: &'a mut [UnitEvidence],
    i: usize,
) -> Option<&'a mut UnitEvidence> {
    match ev_index.get(i) {
        Some(&slot) if slot != NO_EVIDENCE => Some(&mut rings[slot as usize]),
        _ => None,
    }
}

impl UnitArena {
    /// An arena with room for `units` units.
    pub(crate) fn with_capacity(policy: UnitPolicy, units: usize) -> UnitArena {
        UnitArena {
            policy,
            hot: Vec::with_capacity(units),
            shapes: ShapeTable::with_capacity(units),
            states: Vec::with_capacity(units),
            ev_index: Vec::new(),
            rings: Vec::new(),
        }
    }

    /// Append one unit, enrolling it for evidence capture when the
    /// config's tier selects its prefix. Units are indexed in push
    /// order.
    pub(crate) fn push(
        &mut self,
        config: &DetectorConfig,
        prefix: Prefix,
        params: UnitParams,
        shape: [f64; 24],
    ) {
        let state = UnitState::new(prefix, params, &shape, config);
        self.hot.push(HotRow::of(&state, &self.policy));
        self.states.push(state);
        self.shapes.push(shape);
        if config.evidence.is_off() {
            return;
        }
        if enrolls(config.evidence, &prefix) {
            self.ev_index.push(self.rings.len() as u32);
            self.rings.push(UnitEvidence::new());
        } else {
            self.ev_index.push(NO_EVIDENCE);
        }
    }

    pub(crate) fn policy(&self) -> UnitPolicy {
        self.policy
    }

    /// Units enrolled for evidence capture.
    pub(crate) fn enrolled(&self) -> usize {
        self.rings.len()
    }

    /// The cold state of every unit. Fast-path arrivals may not be
    /// folded in yet; belief, state and events never lag.
    pub(crate) fn states(&self) -> &[UnitState] {
        &self.states
    }

    /// One arrival at unit `i` (inside the window, non-decreasing per
    /// unit).
    #[inline]
    pub(crate) fn observe(&mut self, i: usize, t: UnixTime) {
        debug_assert!(self.policy.window.contains(t), "arrival outside window");
        let row = &mut self.hot[i];
        if row.admits(t.secs()) {
            row.last = t.secs();
            row.pending += 1;
        } else {
            self.observe_slow(i, t);
        }
    }

    #[inline(never)]
    fn observe_slow(&mut self, i: usize, t: UnixTime) {
        self.fold(i);
        let ev = ev_of(&self.ev_index, &mut self.rings, i);
        self.states[i].observe(self.shapes.get(i), &self.policy, t, ev);
        self.hot[i] = HotRow::of(&self.states[i], &self.policy);
    }

    /// Fold unit `i`'s pending fast-path arrivals into its state.
    #[inline]
    fn fold(&mut self, i: usize) {
        let row = &mut self.hot[i];
        if row.pending > 0 {
            self.states[i].fold_arrivals(row.pending, UnixTime(row.last));
            row.pending = 0;
        }
    }

    /// Close every bin that ends at or before `t`. Units whose current
    /// bin has not ended are judged from their hot row alone.
    pub(crate) fn advance_all(&mut self, t: UnixTime) {
        for i in 0..self.states.len() {
            if t.secs() < self.hot[i].close_at {
                continue;
            }
            self.fold(i);
            let ev = ev_of(&self.ev_index, &mut self.rings, i);
            self.states[i].advance_to(self.shapes.get(i), &self.policy, t, ev);
            self.hot[i] = HotRow::of(&self.states[i], &self.policy);
        }
    }

    /// Jump every unit's bin clock past a span ending at `t` that must
    /// not be judged.
    pub(crate) fn skip_all(&mut self, t: UnixTime) {
        for i in 0..self.states.len() {
            self.fold(i);
            let ev = ev_of(&self.ev_index, &mut self.rings, i);
            self.states[i].skip_to(&self.policy, t, ev);
            self.hot[i] = HotRow::of(&self.states[i], &self.policy);
        }
    }

    /// End of stream: every unit's verdict, in index order.
    pub(crate) fn finish_all(mut self) -> Vec<UnitReport> {
        for i in 0..self.states.len() {
            self.fold(i);
        }
        let UnitArena {
            policy,
            shapes,
            states,
            ev_index,
            mut rings,
            ..
        } = self;
        states
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let ev = ev_of(&ev_index, &mut rings, i);
                s.finish(shapes.get(i), &policy, ev)
            })
            .collect()
    }
}

#[cfg(test)]
impl UnitArena {
    /// A one-unit arena: the standalone single-unit detector unit tests
    /// drive.
    pub(crate) fn single(
        config: &DetectorConfig,
        prefix: Prefix,
        params: UnitParams,
        shape: [f64; 24],
        window: outage_types::Interval,
    ) -> UnitArena {
        let mut arena = UnitArena::with_capacity(UnitPolicy::new(config, window), 1);
        arena.push(config, prefix, params, shape);
        arena
    }

    /// End of stream for a one-unit arena: its unit's verdict.
    pub(crate) fn finish_one(self) -> UnitReport {
        let mut reports = self.finish_all();
        assert_eq!(reports.len(), 1, "a one-unit arena reports one unit");
        reports.pop().unwrap()
    }
}

#[cfg(test)]
pub(crate) mod oracle;
