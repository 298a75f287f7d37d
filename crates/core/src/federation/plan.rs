//! Vantage partitioning: which telescope sees which blocks.

use super::FederationError;
use crate::config::AggregationConfig;
use crate::evidence::prefix_bucket;
use outage_types::{Observation, Prefix};

/// A deterministic partition of the block universe across N vantages.
///
/// Each block hashes to an owning vantage by its *partition key*: the
/// block's supernet at the aggregation floor ([`AggregationConfig`]
/// `v4_min_len` / `v6_min_len`). Partitioning at that granularity is
/// the load-bearing choice: spatial aggregation only ever pools blocks
/// that share a floor supernet, so no aggregate unit can straddle two
/// vantages and a zero-overlap federated run plans exactly the units a
/// single-vantage run would (the union-equivalence guarantee).
///
/// An optional overlap fraction routes a deterministic subset of keys
/// to a *second* vantage as well — both vantages then see that subset's
/// full traffic and can corroborate each other's verdicts under a
/// quorum policy.
///
/// Assignment is a pure function of the prefix (stable FNV hash), so it
/// is independent of observation order, worker count, and vantage
/// runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct VantagePlan {
    vantages: usize,
    overlap: f64,
    v4_key_len: u8,
    v6_key_len: u8,
}

/// One splitmix64 round: decorrelates the corroborator decision from
/// the owner hash without a second pass over the prefix bytes.
fn mix(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl VantagePlan {
    /// A plan over `vantages` telescopes with the default aggregation
    /// floor (v4 /20, v6 /44) and no overlap.
    pub fn new(vantages: usize) -> Result<VantagePlan, FederationError> {
        VantagePlan::for_aggregation(vantages, &AggregationConfig::default())
    }

    /// A plan keyed to a specific aggregation floor. Use this when the
    /// detector runs with a non-default [`AggregationConfig`] so the
    /// partition granularity still matches what aggregation can pool.
    pub fn for_aggregation(
        vantages: usize,
        agg: &AggregationConfig,
    ) -> Result<VantagePlan, FederationError> {
        if vantages == 0 {
            return Err(FederationError::NoVantages);
        }
        Ok(VantagePlan {
            vantages,
            overlap: 0.0,
            v4_key_len: agg.v4_min_len,
            v6_key_len: agg.v6_min_len,
        })
    }

    /// The same plan with a fraction of partition keys corroborated by
    /// a second vantage.
    pub fn with_overlap(mut self, overlap: f64) -> Result<VantagePlan, FederationError> {
        if !(0.0..=1.0).contains(&overlap) || overlap.is_nan() {
            return Err(FederationError::InvalidOverlap(overlap));
        }
        self.overlap = overlap;
        Ok(self)
    }

    /// Number of vantages in the plan.
    pub fn vantages(&self) -> usize {
        self.vantages
    }

    /// The corroboration overlap fraction.
    pub fn overlap(&self) -> f64 {
        self.overlap
    }

    /// A block's partition key: its supernet at the aggregation floor
    /// (or the prefix itself when already at or above the floor).
    #[inline]
    pub fn partition_key(&self, p: &Prefix) -> Prefix {
        let floor = match p.family() {
            outage_types::AddrFamily::V4 => self.v4_key_len,
            outage_types::AddrFamily::V6 => self.v6_key_len,
        };
        if p.len() <= floor {
            *p
        } else {
            p.supernet(floor)
                .expect("supernet at a shorter length always exists")
        }
    }

    /// The vantage that owns a block.
    pub fn owner(&self, p: &Prefix) -> usize {
        (prefix_bucket(&self.partition_key(p)) % self.vantages as u64) as usize
    }

    /// The corroborating vantage, when the block's key falls inside the
    /// overlap fraction (always `None` for single-vantage plans or zero
    /// overlap).
    pub fn corroborator(&self, p: &Prefix) -> Option<usize> {
        self.vantages_for(p).1
    }

    /// Every vantage that sees a block: the owner, plus the
    /// corroborator when one is assigned.
    pub fn vantages_for(&self, p: &Prefix) -> (usize, Option<usize>) {
        self.assign(&self.partition_key(p))
    }

    /// Owner and corroborator of a partition key, from one hash.
    fn assign(&self, key: &Prefix) -> (usize, Option<usize>) {
        let h = prefix_bucket(key);
        let owner = (h % self.vantages as u64) as usize;
        if self.vantages < 2 || self.overlap <= 0.0 {
            return (owner, None);
        }
        let h = mix(h);
        // Top 53 bits → uniform in [0, 1); compare against the fraction.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.overlap {
            return (owner, None);
        }
        let step = 1 + (h % (self.vantages as u64 - 1)) as usize;
        (owner, Some((owner + step) % self.vantages))
    }

    /// Whether `vantage` sees traffic from block `p`.
    pub fn sees(&self, vantage: usize, p: &Prefix) -> bool {
        let (owner, second) = self.vantages_for(p);
        vantage == owner || second == Some(vantage)
    }

    /// Split an observation stream into per-vantage streams. Each
    /// observation is routed to its block's owner (and corroborator,
    /// when assigned); relative order within a shard is preserved.
    ///
    /// Two passes over the stream: the first counts each shard's
    /// observations, the second fills shards allocated at exactly that
    /// size, so no shard regrows or is copied. Assignments are hashed
    /// once per partition key, not per observation: a small
    /// direct-mapped `AssignmentMemo`, shared by both passes and both
    /// families, remembers the last key seen in each slot. A stream
    /// revisits the same few thousand keys, so nearly every observation
    /// costs one mask, one table probe and one compare per pass.
    pub fn split(&self, observations: &[Observation]) -> Vec<Vec<Observation>> {
        let mut memo = AssignmentMemo::new();
        let mut sizes = vec![0usize; self.vantages];
        for obs in observations {
            let (owner, second) = memo.assign(self, &obs.block);
            sizes[owner] += 1;
            if let Some(v) = second {
                sizes[v] += 1;
            }
        }
        let mut shards: Vec<Vec<Observation>> =
            sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for obs in observations {
            let (owner, second) = memo.assign(self, &obs.block);
            shards[owner].push(*obs);
            if let Some(v) = second {
                shards[v].push(*obs);
            }
        }
        shards
    }
}

/// log2 of the [`AssignmentMemo`] slot count: 16 384 slots of 16 bytes,
/// a quarter of a megabyte.
const MEMO_BITS: u32 = 14;

/// A direct-mapped cache of partition key → `(owner, corroborator)`.
///
/// A slot holds the [`memo_tag`] of the last key that mapped to it and
/// that key's assignment, with "no corroborator" stored as a
/// corroborator equal to the owner (a real one never is). A probe for
/// any other key recomputes the assignment and takes the slot over. The
/// tag 0 is never a key's, so it marks an empty slot.
struct AssignmentMemo {
    slots: Vec<(u64, u32, u32)>,
}

impl AssignmentMemo {
    fn new() -> AssignmentMemo {
        AssignmentMemo {
            slots: vec![(0, 0, 0); 1 << MEMO_BITS],
        }
    }

    /// The vantages that see block `p` under `plan`.
    #[inline]
    fn assign(&mut self, plan: &VantagePlan, p: &Prefix) -> (usize, Option<usize>) {
        let key = plan.partition_key(p);
        let Some(tag) = memo_tag(&key) else {
            return plan.assign(&key);
        };
        let slot =
            &mut self.slots[(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_BITS)) as usize];
        if slot.0 != tag {
            let (owner, second) = plan.assign(&key);
            match (u32::try_from(owner), u32::try_from(second.unwrap_or(owner))) {
                (Ok(o), Ok(s)) => *slot = (tag, o, s),
                _ => return (owner, second),
            }
        }
        let (owner, second) = (slot.1 as usize, slot.2 as usize);
        (owner, (second != owner).then_some(second))
    }
}

/// A key's identity packed into a nonzero `u64`: family in the top two
/// bits, then length and network bits. Every IPv4 key fits; an IPv6 key
/// fits up to /56, which covers every floor up to /56. Longer keys are
/// not memoised.
#[inline]
fn memo_tag(key: &Prefix) -> Option<u64> {
    match *key {
        Prefix::V4 { addr, len } => Some((1 << 62) | (u64::from(len) << 32) | u64::from(addr)),
        Prefix::V6 { addr, len } if len <= 56 => {
            Some((2 << 62) | (u64::from(len) << 56) | addr.hi >> 8)
        }
        Prefix::V6 { .. } => None,
    }
}

impl std::fmt::Display for VantagePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vantage(s), overlap {:.0}%, keys v4 /{} v6 /{}",
            self.vantages,
            self.overlap * 100.0,
            self.v4_key_len,
            self.v6_key_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::UnixTime;

    fn p4(i: u32) -> Prefix {
        Prefix::v4_raw(i << 8, 24)
    }

    #[test]
    fn zero_vantages_is_an_error() {
        assert_eq!(
            VantagePlan::new(0).unwrap_err(),
            FederationError::NoVantages
        );
    }

    #[test]
    fn overlap_fraction_is_validated() {
        assert!(VantagePlan::new(2).unwrap().with_overlap(1.5).is_err());
        assert!(VantagePlan::new(2).unwrap().with_overlap(-0.1).is_err());
        assert!(VantagePlan::new(2).unwrap().with_overlap(0.5).is_ok());
    }

    #[test]
    fn blocks_sharing_an_aggregation_family_share_a_vantage() {
        let plan = VantagePlan::new(5).unwrap();
        // 16 /24s under one /20 must all land on the same vantage.
        let base = 0x0A00_0000u32;
        let owner = plan.owner(&Prefix::v4_raw(base, 24));
        for i in 0..16 {
            let p = Prefix::v4_raw(base + (i << 8), 24);
            assert_eq!(plan.owner(&p), owner, "{p:?} left its /20 family");
        }
    }

    #[test]
    fn every_block_is_seen_by_exactly_one_vantage_without_overlap() {
        let plan = VantagePlan::new(4).unwrap();
        for i in 0..512 {
            let p = p4(i);
            let seen: Vec<usize> = (0..4).filter(|&v| plan.sees(v, &p)).collect();
            assert_eq!(seen.len(), 1, "{p:?} seen by {seen:?}");
            assert_eq!(seen[0], plan.owner(&p));
        }
    }

    #[test]
    fn overlap_assigns_a_distinct_second_vantage() {
        let plan = VantagePlan::new(3).unwrap().with_overlap(1.0).unwrap();
        for i in 0..256 {
            let p = p4(i);
            let (owner, second) = plan.vantages_for(&p);
            let second = second.expect("overlap 1.0 corroborates every key");
            assert_ne!(owner, second);
            assert!(second < 3);
        }
        // A middling fraction corroborates roughly that share of keys.
        let half = VantagePlan::new(3).unwrap().with_overlap(0.5).unwrap();
        let hits = (0..4096)
            .filter(|&i| half.corroborator(&p4(i)).is_some())
            .count();
        let frac = hits as f64 / 4096.0;
        assert!((0.35..0.65).contains(&frac), "overlap rate {frac}");
    }

    #[test]
    fn split_routes_all_observations_and_preserves_order() {
        let plan = VantagePlan::new(3).unwrap();
        let obs: Vec<Observation> = (0..1_000u64)
            .map(|t| Observation::new(UnixTime(t), p4((t % 64) as u32)))
            .collect();
        let shards = plan.split(&obs);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), obs.len());
        for (v, shard) in shards.iter().enumerate() {
            assert!(shard.windows(2).all(|w| w[0].time <= w[1].time));
            assert!(shard.iter().all(|o| plan.sees(v, &o.block)));
        }
    }

    #[test]
    fn assignment_is_stable_across_plan_instances() {
        let a = VantagePlan::new(7).unwrap();
        let b = VantagePlan::new(7).unwrap();
        for i in 0..256 {
            assert_eq!(a.owner(&p4(i)), b.owner(&p4(i)));
        }
    }
}
