//! Outage events, block timelines, and observation records.
//!
//! Detectors in this workspace all speak the same output language: for each
//! block, a [`Timeline`] (what fraction of the observation window the block
//! was judged down, and when), and a list of [`OutageEvent`]s (discrete
//! down-intervals with provenance). The evaluation crate consumes these
//! uniformly regardless of which detector produced them.

use crate::interval::{Interval, IntervalSet};
use crate::prefix::Prefix;
use crate::time::UnixTime;
use std::fmt;

/// Which system produced an observation or event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorId {
    /// The paper's passive Bayesian detector (this repo's `outage-core`).
    PassiveBayes,
    /// Trinocular-style active adaptive probing.
    Trinocular,
    /// Chocolatine-style AS-level passive detection.
    Chocolatine,
    /// RIPE-Atlas-style probe mesh.
    RipeAtlas,
    /// Simulator ground truth (oracle).
    GroundTruth,
}

impl fmt::Display for DetectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetectorId::PassiveBayes => "passive-bayes",
            DetectorId::Trinocular => "trinocular",
            DetectorId::Chocolatine => "chocolatine",
            DetectorId::RipeAtlas => "ripe-atlas",
            DetectorId::GroundTruth => "ground-truth",
        };
        f.write_str(s)
    }
}

/// A single detected outage: a block was judged unreachable for an
/// interval.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageEvent {
    /// The affected block (or aggregate prefix, when the detector fell
    /// back to coarser spatial precision).
    pub prefix: Prefix,
    /// When the block was down, `[start, end)`.
    pub interval: Interval,
    /// Detector confidence in `[0, 1]`; for Bayesian detectors this is
    /// `1 - belief(up)` at the depth of the outage.
    pub confidence: f64,
    /// Which system reported it.
    pub detector: DetectorId,
}

impl OutageEvent {
    /// Outage duration in seconds.
    pub fn duration(&self) -> u64 {
        self.interval.duration()
    }
}

impl fmt::Display for OutageEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} down {} ({} s, conf {:.2}, via {})",
            self.prefix,
            self.interval,
            self.duration(),
            self.confidence,
            self.detector
        )
    }
}

/// A block's judged up/down history over an observation window.
///
/// Stored as the *down* set; `up()` is its complement within the window.
/// Time outside the window is "unobserved" — neither up nor down — which is
/// exactly the distinction the coverage metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// The full observation window.
    pub window: Interval,
    /// When the block was judged down.
    pub down: IntervalSet,
}

impl Timeline {
    /// A timeline that is up for the whole window.
    pub fn all_up(window: Interval) -> Timeline {
        Timeline {
            window,
            down: IntervalSet::new(),
        }
    }

    /// A timeline from a set of down intervals, clipped to the window.
    pub fn from_down(window: Interval, down: IntervalSet) -> Timeline {
        Timeline {
            window,
            down: down.clip(window),
        }
    }

    /// The up timeline: window minus down.
    pub fn up(&self) -> IntervalSet {
        self.down.complement_within(self.window)
    }

    /// Seconds judged down.
    pub fn down_secs(&self) -> u64 {
        self.down.total()
    }

    /// Seconds judged up.
    pub fn up_secs(&self) -> u64 {
        self.window.duration() - self.down_secs()
    }

    /// Fraction of the window judged down (`0.0` for an empty window).
    pub fn down_fraction(&self) -> f64 {
        let w = self.window.duration();
        if w == 0 {
            0.0
        } else {
            self.down_secs() as f64 / w as f64
        }
    }

    /// Whether the block was judged down at `t` (false outside the window).
    pub fn is_down_at(&self, t: UnixTime) -> bool {
        self.window.contains(t) && self.down.contains(t)
    }

    /// Restrict the down set to outages of at least `min_secs` — e.g. the
    /// paper's "long" (≥ 660 s) or "short" (≥ 300 s) event classes.
    pub fn with_min_outage(&self, min_secs: u64) -> Timeline {
        Timeline {
            window: self.window,
            down: self.down.filter_min_duration(min_secs),
        }
    }

    /// The down intervals as discrete events attributed to `prefix` and
    /// `detector`.
    pub fn events(&self, prefix: Prefix, detector: DetectorId) -> Vec<OutageEvent> {
        self.down
            .iter()
            .map(|iv| OutageEvent {
                prefix,
                interval: *iv,
                confidence: 1.0,
                detector,
            })
            .collect()
    }
}

/// One passive observation: a packet (e.g. a DNS query seen at the root
/// server) arrived from some host at some instant. This is the *entire*
/// input of the passive detector — the paper's point is that this minimal,
/// already-existing signal suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Observation {
    /// Arrival time (exact, second resolution).
    pub time: UnixTime,
    /// The canonical block (/24 or /48) the source address belongs to.
    pub block: Prefix,
}

const _: () = assert!(std::mem::size_of::<Observation>() == 32);

impl Observation {
    /// Construct an observation.
    pub fn new(time: UnixTime, block: Prefix) -> Observation {
        Observation { time, block }
    }
}

impl PartialOrd for Observation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Observation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Time-major ordering so observation streams can be merged/sorted
        // into arrival order.
        self.time
            .cmp(&other.time)
            .then_with(|| self.block.cmp(&other.block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn window() -> Interval {
        Interval::from_secs(0, 86_400)
    }

    #[test]
    fn timeline_up_down_partition() {
        let down = IntervalSet::from_intervals([
            Interval::from_secs(100, 700),
            Interval::from_secs(5_000, 5_300),
        ]);
        let t = Timeline::from_down(window(), down);
        assert_eq!(t.down_secs(), 900);
        assert_eq!(t.up_secs(), 86_400 - 900);
        assert!((t.down_fraction() - 900.0 / 86_400.0).abs() < 1e-12);
        assert!(t.is_down_at(UnixTime(100)));
        assert!(!t.is_down_at(UnixTime(700)));
        assert!(!t.is_down_at(UnixTime(99)));
        // up and down never overlap, and tile the window
        assert_eq!(t.up().overlap_secs(&t.down), 0);
        assert_eq!(t.up().total() + t.down.total(), 86_400);
    }

    #[test]
    fn from_down_clips_to_window() {
        let down = IntervalSet::singleton(Interval::from_secs(86_000, 90_000));
        let t = Timeline::from_down(window(), down);
        assert_eq!(t.down_secs(), 400);
    }

    #[test]
    fn outside_window_is_not_down() {
        let down = IntervalSet::singleton(Interval::from_secs(100, 200));
        let t = Timeline::from_down(Interval::from_secs(0, 1000), down);
        assert!(!t.is_down_at(UnixTime(5_000)));
    }

    #[test]
    fn min_outage_filter() {
        let down = IntervalSet::from_intervals([
            Interval::from_secs(0, 300),         // 5 min
            Interval::from_secs(1_000, 1_660),   // 11 min
            Interval::from_secs(10_000, 10_100), // 100 s
        ]);
        let t = Timeline::from_down(window(), down);
        assert_eq!(t.with_min_outage(300).down.len(), 2);
        assert_eq!(t.with_min_outage(660).down.len(), 1);
        assert_eq!(t.with_min_outage(1).down.len(), 3);
    }

    #[test]
    fn events_carry_provenance() {
        let down = IntervalSet::singleton(Interval::from_secs(100, 700));
        let t = Timeline::from_down(window(), down);
        let evs = t.events(p("192.0.2.0/24"), DetectorId::PassiveBayes);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].duration(), 600);
        assert_eq!(evs[0].detector, DetectorId::PassiveBayes);
        assert_eq!(evs[0].prefix, p("192.0.2.0/24"));
    }

    #[test]
    fn observation_ordering_is_time_major() {
        let a = Observation::new(UnixTime(5), p("10.0.0.0/24"));
        let b = Observation::new(UnixTime(3), p("192.0.2.0/24"));
        let mut v = [a, b];
        v.sort();
        assert_eq!(v[0].time, UnixTime(3));
    }

    #[test]
    fn empty_window_fraction_is_zero() {
        let t = Timeline::all_up(Interval::from_secs(10, 10));
        assert_eq!(t.down_fraction(), 0.0);
    }

    #[test]
    fn display_impls() {
        let ev = OutageEvent {
            prefix: p("192.0.2.0/24"),
            interval: Interval::from_secs(0, 300),
            confidence: 0.95,
            detector: DetectorId::Trinocular,
        };
        let s = ev.to_string();
        assert!(s.contains("192.0.2.0/24"));
        assert!(s.contains("trinocular"));
        assert_eq!(DetectorId::GroundTruth.to_string(), "ground-truth");
    }
}
