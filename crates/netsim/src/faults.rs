//! Sensor-fault injection: perturb a scenario's *feed*, not its world.
//!
//! Every other module in this crate simulates the Internet; this one
//! simulates the telescope breaking. A [`FaultPlan`] wraps any arrival
//! stream and degrades it the way real capture pipelines do:
//!
//! * **blackouts** — the feed stops entirely for an interval (capture
//!   outage, crashed forwarder);
//! * **brownouts** — the global rate collapses to a fraction of itself
//!   (clogged pipe, packet loss upstream of the tap);
//! * **reordering** — bounded delivery skew, so timestamps arrive out of
//!   order;
//! * **duplication** — the same packet delivered twice;
//! * **timestamp jitter** — clock error of up to ± a few seconds;
//! * **corruption** — truncated or bit-flipped DNS payloads (applied at
//!   the packet layer by [`FaultPlan::corrupt_packets`]).
//!
//! Crucially, the plan also knows its own **ground truth**:
//! [`FaultPlan::faulted`] returns the intervals during which the *sensor*
//! (not the network) was broken, so an evaluation can check that a
//! detector quarantined those spans instead of reporting mass outages.
//!
//! Everything is deterministic under the plan's seed.

use crate::stats::seed_for;
use outage_dnswire::CapturedPacket;
use outage_types::rng::SmallRng;
use outage_types::{Interval, IntervalSet, Observation, UnixTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A brownout: during `interval`, each arrival survives with
/// probability `keep`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// The affected span.
    pub interval: Interval,
    /// Survival probability in `[0, 1]`.
    pub keep: f64,
}

/// Bounded delivery reordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderFault {
    /// Maximum delivery delay in seconds.
    pub max_skew_secs: u64,
    /// Fraction of arrivals delayed.
    pub prob: f64,
}

/// Timestamp jitter of up to ± `max_secs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterFault {
    /// Maximum absolute clock error in seconds.
    pub max_secs: u64,
    /// Fraction of arrivals affected.
    pub prob: f64,
}

/// A deterministic recipe of sensor faults to inject into a feed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Total feed stalls.
    pub blackouts: Vec<Interval>,
    /// Global rate collapses.
    pub brownouts: Vec<Brownout>,
    /// Bounded delivery reordering, if any.
    pub reorder: Option<ReorderFault>,
    /// Probability of each arrival being delivered twice.
    pub duplicate_prob: f64,
    /// Timestamp jitter, if any.
    pub jitter: Option<JitterFault>,
    /// Probability of each *packet* payload being corrupted (only
    /// meaningful through [`Self::corrupt_packets`]).
    pub corrupt_prob: f64,
    /// RNG seed; two applications of the same plan to the same stream
    /// are identical.
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Add a total feed stall over `interval`.
    pub fn blackout(mut self, interval: Interval) -> FaultPlan {
        self.blackouts.push(interval);
        self
    }

    /// Add a rate collapse to `keep` of nominal over `interval`.
    pub fn brownout(mut self, interval: Interval, keep: f64) -> FaultPlan {
        self.brownouts.push(Brownout { interval, keep });
        self
    }

    /// Delay `prob` of arrivals by up to `max_skew_secs` (delivery
    /// order, not timestamps).
    pub fn reorder(mut self, max_skew_secs: u64, prob: f64) -> FaultPlan {
        self.reorder = Some(ReorderFault {
            max_skew_secs,
            prob,
        });
        self
    }

    /// Deliver `prob` of arrivals twice.
    pub fn duplicate(mut self, prob: f64) -> FaultPlan {
        self.duplicate_prob = prob;
        self
    }

    /// Perturb `prob` of timestamps by up to ± `max_secs`.
    pub fn jitter(mut self, max_secs: u64, prob: f64) -> FaultPlan {
        self.jitter = Some(JitterFault { max_secs, prob });
        self
    }

    /// Corrupt `prob` of packet payloads (see [`Self::corrupt_packets`]).
    pub fn corrupt(mut self, prob: f64) -> FaultPlan {
        self.corrupt_prob = prob;
        self
    }

    /// Ground truth: the intervals during which the **sensor** was
    /// faulted (blackouts and brownouts). Detections overlapping these
    /// are sensor artifacts; evaluation should exclude them.
    pub fn faulted(&self) -> IntervalSet {
        let mut set = IntervalSet::new();
        for iv in &self.blackouts {
            set.insert(*iv);
        }
        for b in &self.brownouts {
            set.insert(b.interval);
        }
        set
    }

    /// Apply the plan to a time-sorted arrival stream, yielding the
    /// degraded stream the detector would actually receive (possibly out
    /// of delivery order if `reorder` is set).
    pub fn apply<I>(&self, arrivals: I) -> FaultedArrivals<I::IntoIter>
    where
        I: IntoIterator<Item = Observation>,
    {
        FaultedArrivals {
            plan: self.clone(),
            inner: arrivals.into_iter(),
            rng: SmallRng::seed_from_u64(seed_for(self.seed, b"fault-plan")),
            heap: BinaryHeap::new(),
            ready: VecDeque::new(),
            seq: 0,
            drained: false,
        }
    }

    /// Apply the plan to a slice, collecting the degraded stream.
    pub fn apply_to_vec(&self, arrivals: &[Observation]) -> Vec<Observation> {
        self.apply(arrivals.iter().copied()).collect()
    }

    /// Apply payload corruption to a packet stream: each packet is
    /// truncated or bit-flipped with probability `corrupt_prob`. The
    /// telescope must survive (and count) the damage, never panic.
    pub fn corrupt_packets<I>(&self, packets: I) -> impl Iterator<Item = CapturedPacket>
    where
        I: IntoIterator<Item = CapturedPacket>,
    {
        let prob = self.corrupt_prob;
        let mut rng = SmallRng::seed_from_u64(seed_for(self.seed, b"fault-corrupt"));
        packets.into_iter().map(move |mut pkt| {
            if prob > 0.0 && rng.gen_bool(prob) && !pkt.payload.is_empty() {
                let mut bytes = pkt.payload.to_vec();
                if rng.gen_bool(0.5) {
                    // Truncate somewhere inside the datagram.
                    let keep = rng.gen_range(1..=bytes.len());
                    bytes.truncate(keep);
                } else {
                    // Flip a handful of bytes to garbage.
                    for _ in 0..rng.gen_range(1..=4usize) {
                        let i = rng.gen_range(0..bytes.len());
                        bytes[i] ^= rng.gen::<u8>() | 1;
                    }
                }
                pkt.payload = bytes.into();
            }
            pkt
        })
    }

    /// Render the plan in the one-directive-per-line text format
    /// accepted by [`FaultPlan::parse`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("seed {}\n", self.seed));
        for iv in &self.blackouts {
            out.push_str(&format!("blackout {} {}\n", iv.start.secs(), iv.end.secs()));
        }
        for b in &self.brownouts {
            out.push_str(&format!(
                "brownout {} {} {}\n",
                b.interval.start.secs(),
                b.interval.end.secs(),
                b.keep
            ));
        }
        if let Some(r) = &self.reorder {
            out.push_str(&format!("reorder {} {}\n", r.max_skew_secs, r.prob));
        }
        if self.duplicate_prob > 0.0 {
            out.push_str(&format!("duplicate {}\n", self.duplicate_prob));
        }
        if let Some(j) = &self.jitter {
            out.push_str(&format!("jitter {} {}\n", j.max_secs, j.prob));
        }
        if self.corrupt_prob > 0.0 {
            out.push_str(&format!("corrupt {}\n", self.corrupt_prob));
        }
        out
    }

    /// Parse the text format: one directive per line —
    /// `seed N`, `blackout START END`, `brownout START END KEEP`,
    /// `reorder MAX_SKEW PROB`, `duplicate PROB`, `jitter MAX PROB`,
    /// `corrupt PROB`. Blank lines and `#` comments are ignored.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let directive = parts.next().unwrap();
            let args: Vec<&str> = parts.collect();
            let ctx = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
            let num =
                |s: &str| -> Result<u64, String> { s.parse().map_err(|_| ctx("bad integer")) };
            let frac = |s: &str| -> Result<f64, String> {
                let v: f64 = s.parse().map_err(|_| ctx("bad number"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(ctx("probability outside [0, 1]"));
                }
                Ok(v)
            };
            match (directive, args.as_slice()) {
                ("seed", [s]) => plan.seed = num(s)?,
                ("blackout", [a, b]) => {
                    let iv = Interval::from_secs(num(a)?, num(b)?);
                    if iv.is_empty() {
                        return Err(ctx("empty blackout interval"));
                    }
                    plan.blackouts.push(iv);
                }
                ("brownout", [a, b, k]) => {
                    let iv = Interval::from_secs(num(a)?, num(b)?);
                    if iv.is_empty() {
                        return Err(ctx("empty brownout interval"));
                    }
                    plan.brownouts.push(Brownout {
                        interval: iv,
                        keep: frac(k)?,
                    });
                }
                ("reorder", [s, p]) => {
                    plan.reorder = Some(ReorderFault {
                        max_skew_secs: num(s)?,
                        prob: frac(p)?,
                    });
                }
                ("duplicate", [p]) => plan.duplicate_prob = frac(p)?,
                ("jitter", [s, p]) => {
                    plan.jitter = Some(JitterFault {
                        max_secs: num(s)?,
                        prob: frac(p)?,
                    });
                }
                ("corrupt", [p]) => plan.corrupt_prob = frac(p)?,
                _ => return Err(ctx("unknown directive or wrong arity")),
            }
        }
        Ok(plan)
    }
}

/// The degraded stream produced by [`FaultPlan::apply`].
///
/// Output timestamps carry the injected jitter; output *order* carries
/// the injected delivery skew. Without reorder/jitter faults the stream
/// stays sorted.
pub struct FaultedArrivals<I> {
    plan: FaultPlan,
    inner: I,
    rng: SmallRng,
    /// Min-heap on (delivery key, sequence): holds arrivals whose
    /// delivery slot hasn't safely passed yet.
    heap: BinaryHeap<Reverse<(u64, u64, Observation)>>,
    ready: VecDeque<Observation>,
    seq: u64,
    drained: bool,
}

impl<I: Iterator<Item = Observation>> FaultedArrivals<I> {
    /// Jittered timestamps can run up to `max_secs` *behind* the input
    /// clock, so delivery keys are only final once the input clock is
    /// that far past them.
    fn slack(&self) -> u64 {
        self.plan.jitter.map_or(0, |j| j.max_secs)
    }

    fn process(&mut self, obs: Observation) {
        let t = obs.time;
        if self.plan.blackouts.iter().any(|iv| iv.contains(t)) {
            return;
        }
        if let Some(b) = self.plan.brownouts.iter().find(|b| b.interval.contains(t)) {
            if !self.rng.gen_bool(b.keep.clamp(0.0, 1.0)) {
                return;
            }
        }
        let mut stamped = t.secs();
        if let Some(j) = self.plan.jitter {
            if j.max_secs > 0 && self.rng.gen_bool(j.prob) {
                let delta = self.rng.gen_range(0..=2 * j.max_secs);
                stamped = (stamped + delta).saturating_sub(j.max_secs);
            }
        }
        let copies =
            if self.plan.duplicate_prob > 0.0 && self.rng.gen_bool(self.plan.duplicate_prob) {
                2
            } else {
                1
            };
        for _ in 0..copies {
            let mut key = stamped;
            if let Some(r) = self.plan.reorder {
                if r.max_skew_secs > 0 && self.rng.gen_bool(r.prob) {
                    key += self.rng.gen_range(0..=r.max_skew_secs);
                }
            }
            self.heap.push(Reverse((
                key,
                self.seq,
                Observation::new(UnixTime(stamped), obs.block),
            )));
            self.seq += 1;
        }
    }

    /// Move every held arrival whose delivery key can no longer be
    /// undercut by future input (input clock at `now`) into `ready`.
    fn release_through(&mut self, now: u64) {
        let horizon = now.saturating_sub(self.slack());
        while let Some(Reverse((key, _, _))) = self.heap.peek() {
            if *key > horizon {
                break;
            }
            let Reverse((_, _, obs)) = self.heap.pop().unwrap();
            self.ready.push_back(obs);
        }
    }
}

impl<I: Iterator<Item = Observation>> Iterator for FaultedArrivals<I> {
    type Item = Observation;

    fn next(&mut self) -> Option<Observation> {
        loop {
            if let Some(obs) = self.ready.pop_front() {
                return Some(obs);
            }
            if self.drained {
                return None;
            }
            match self.inner.next() {
                Some(obs) => {
                    let now = obs.time.secs();
                    self.process(obs);
                    self.release_through(now);
                }
                None => {
                    self.drained = true;
                    while let Some(Reverse((_, _, obs))) = self.heap.pop() {
                        self.ready.push_back(obs);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::Prefix;

    fn block() -> Prefix {
        "192.0.2.0/24".parse().unwrap()
    }

    fn steady(period: u64, until: u64) -> Vec<Observation> {
        (0..until)
            .step_by(period as usize)
            .map(|t| Observation::new(UnixTime(t), block()))
            .collect()
    }

    #[test]
    fn empty_plan_is_identity() {
        let obs = steady(10, 10_000);
        assert_eq!(FaultPlan::new(1).apply_to_vec(&obs), obs);
    }

    #[test]
    fn blackout_silences_exactly_its_interval() {
        let plan = FaultPlan::new(1).blackout(Interval::from_secs(3_000, 5_000));
        let out = plan.apply_to_vec(&steady(10, 10_000));
        assert!(out.iter().all(|o| !(3_000..5_000).contains(&o.time.secs())));
        assert_eq!(out.len(), 1_000 - 200);
        assert_eq!(plan.faulted().total(), 2_000);
    }

    #[test]
    fn brownout_thins_to_roughly_keep() {
        let plan = FaultPlan::new(7).brownout(Interval::from_secs(0, 100_000), 0.25);
        let out = plan.apply_to_vec(&steady(1, 100_000));
        let frac = out.len() as f64 / 100_000.0;
        assert!((0.22..0.28).contains(&frac), "kept {frac}");
    }

    #[test]
    fn duplication_adds_copies() {
        let plan = FaultPlan::new(3).duplicate(0.5);
        let out = plan.apply_to_vec(&steady(1, 10_000));
        assert!(out.len() > 14_000 && out.len() < 16_000, "{}", out.len());
    }

    #[test]
    fn reordering_is_bounded_and_lossless() {
        let skew = 30;
        let plan = FaultPlan::new(9).reorder(skew, 0.5);
        let input = steady(2, 20_000);
        let out = plan.apply_to_vec(&input);
        assert_eq!(out.len(), input.len(), "reordering must not lose");
        // Same multiset of timestamps…
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(sorted, input);
        // …and displacement bounded by the skew.
        let mut max_seen = 0u64;
        for o in &out {
            let t = o.time.secs();
            assert!(
                t + skew >= max_seen,
                "displacement beyond skew: {t} after {max_seen}"
            );
            max_seen = max_seen.max(t);
        }
        // Some actual disorder occurred.
        assert_ne!(out, input, "plan should actually perturb");
    }

    #[test]
    fn jitter_moves_timestamps_within_bound() {
        let plan = FaultPlan::new(4).jitter(5, 1.0);
        let input = steady(100, 50_000);
        let out = plan.apply_to_vec(&input);
        assert_eq!(out.len(), input.len());
        let mut sorted: Vec<u64> = out.iter().map(|o| o.time.secs()).collect();
        sorted.sort_unstable();
        for (o, i) in sorted.iter().zip(&input) {
            let d = o.abs_diff(i.time.secs());
            assert!(d <= 5, "jitter beyond bound: {d}");
        }
        assert!(out.iter().zip(&input).any(|(a, b)| a.time != b.time));
    }

    #[test]
    fn application_is_deterministic_under_seed() {
        let plan = FaultPlan::new(5)
            .brownout(Interval::from_secs(1_000, 4_000), 0.5)
            .reorder(20, 0.3)
            .jitter(3, 0.2)
            .duplicate(0.05);
        let input = steady(3, 30_000);
        assert_eq!(plan.apply_to_vec(&input), plan.apply_to_vec(&input));
        let other = FaultPlan {
            seed: 6,
            ..plan.clone()
        };
        assert_ne!(plan.apply_to_vec(&input), other.apply_to_vec(&input));
    }

    #[test]
    fn corrupt_packets_damages_some_payloads() {
        use crate::packets::PacketFeed;
        let mut feed = PacketFeed::new(1);
        let obs = steady(10, 5_000);
        let clean: Vec<_> = feed.render_all(obs.iter().copied()).collect();
        let plan = FaultPlan::new(2).corrupt(0.3);
        let dirty: Vec<_> = plan.corrupt_packets(clean.clone()).collect();
        assert_eq!(dirty.len(), clean.len());
        let changed = clean
            .iter()
            .zip(&dirty)
            .filter(|(a, b)| a.payload != b.payload)
            .count();
        assert!(changed > 50, "expected corruption, got {changed}");
    }

    #[test]
    fn text_format_round_trips() {
        let plan = FaultPlan::new(42)
            .blackout(Interval::from_secs(43_200, 45_000))
            .brownout(Interval::from_secs(50_000, 52_000), 0.2)
            .reorder(60, 0.3)
            .duplicate(0.01)
            .jitter(5, 0.5)
            .corrupt(0.01);
        let text = plan.render();
        let back = FaultPlan::parse(&text).expect("own rendering parses");
        assert_eq!(back, plan);
    }

    #[test]
    fn parse_accepts_comments_and_rejects_nonsense() {
        let plan = FaultPlan::parse("# a comment\n\nseed 7\nblackout 100 200 # trailing comment\n")
            .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.blackouts, vec![Interval::from_secs(100, 200)]);

        assert!(FaultPlan::parse("blackout 200 100").is_err(), "empty iv");
        assert!(FaultPlan::parse("brownout 0 10 1.5").is_err(), "bad prob");
        assert!(FaultPlan::parse("frobnicate 1").is_err(), "unknown");
        assert!(FaultPlan::parse("blackout 1").is_err(), "arity");
    }

    /// Every truncation and every single-bit flip of `doc` that is still
    /// UTF-8 goes to `parse`; returns how many were skipped because they
    /// are not (cut inside a character, or flipped into a bad byte).
    fn each_mutation(doc: &str, mut parse: impl FnMut(&str)) -> usize {
        let bytes = doc.as_bytes();
        let mut skipped = 0;
        let mut feed = |m: &[u8]| match std::str::from_utf8(m) {
            Ok(text) => parse(text),
            Err(_) => skipped += 1,
        };
        for cut in 0..=bytes.len() {
            feed(&bytes[..cut]);
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.to_vec();
                m[byte] ^= 1 << bit;
                feed(&m);
            }
        }
        skipped
    }

    #[test]
    fn parse_is_total_over_every_truncation_and_bit_flip() {
        // Every directive, a comment with a two-byte character, a blank
        // line and a trailing comment.
        let doc =
            "# plan \u{b1}\nseed 7\n\nblackout 120000 121800 # v1\nbrownout 50000 52000 0.2\n\
                   reorder 60 0.3\nduplicate 0.01\njitter 5 0.5\ncorrupt 0.01\n";
        let (mut ok, mut err) = (0, 0);
        let skipped = each_mutation(doc, |text| match FaultPlan::parse(text) {
            // Whatever parses renders to text that parses to it again.
            Ok(plan) => {
                assert_eq!(
                    FaultPlan::parse(&plan.render()).as_ref(),
                    Ok(&plan),
                    "{text:?}"
                );
                ok += 1;
            }
            Err(e) => {
                assert!(e.starts_with("line "), "{e}");
                err += 1;
            }
        });
        assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
        // Bit 7 of each ASCII byte, and cuts or flips inside the `\u{b1}`.
        assert!(
            skipped >= doc.len() - 2 && skipped < doc.len() + 16,
            "skipped {skipped}"
        );

        // Random multi-byte damage, still never a panic.
        outage_types::rng::cases(500, 0xFA_u64, |rng| {
            let mut m = doc.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=6usize) {
                let i = rng.gen_range(0..m.len());
                m[i] = rng.gen_range(0x20..0x7Fu8);
            }
            let _ = FaultPlan::parse(&String::from_utf8_lossy(&m));
        });
    }
}
