//! Dense block interning: one hash per block per *pass*, not per packet.
//!
//! A day of root-server traffic routes millions of observations over
//! hundreds of thousands of blocks. Keying per-packet state by
//! `HashMap<Prefix, …>` pays a SipHash probe for every arrival; at
//! telescope scale that hash dominates the hot path. [`BlockIndex`]
//! interns each [`Prefix`] into a dense `u32` id exactly once (during
//! the history pass), after which history counting, unit planning, and
//! per-packet routing are flat-array indexing.
//!
//! The table is open-addressed with linear probing over a power-of-two
//! slot array, keyed by a multiplicative hash of the prefix's raw bits —
//! a few arithmetic ops instead of SipHash rounds. Ids are assigned in
//! first-appearance order, which makes sharded interning reproducible:
//! merging per-shard indexes in shard order yields the same ids as one
//! sequential pass (see [`crate::history::HistoryBuilder::merge`]).

use outage_types::Prefix;

/// Multiplier from FxHash (Firefox's hasher): odd, high entropy across
/// the top bits, which is where we take the table slot from.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Slot value marking an empty table entry (ids are stored `+1`).
const EMPTY: u32 = 0;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(SEED)
}

/// Hash a prefix's raw bits with a cheap multiplicative mix.
#[inline]
fn hash_prefix(p: &Prefix) -> u64 {
    match *p {
        Prefix::V4 { addr, len } => mix(mix(1, addr as u64), len as u64),
        Prefix::V6 { addr, len } => mix(mix(mix(2, addr.lo), addr.hi), len as u64),
    }
}

/// An interning table assigning each distinct [`Prefix`] a dense `u32`
/// id in first-appearance order.
#[derive(Debug, Clone, Default)]
pub struct BlockIndex {
    /// id → prefix.
    prefixes: Vec<Prefix>,
    /// Open-addressed slots holding `id + 1`, or [`EMPTY`].
    slots: Vec<u32>,
    /// `slots.len() - 1`; slot count is a power of two.
    mask: usize,
}

impl BlockIndex {
    /// An empty index.
    pub fn new() -> BlockIndex {
        BlockIndex::with_capacity(0)
    }

    /// An empty index sized for about `n` blocks without rehashing.
    pub fn with_capacity(n: usize) -> BlockIndex {
        let slots = (n * 2).next_power_of_two().max(16);
        BlockIndex {
            prefixes: Vec::with_capacity(n),
            slots: vec![EMPTY; slots],
            mask: slots - 1,
        }
    }

    /// Number of interned blocks.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether no block has been interned.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// The prefix interned as `id`. Panics if `id` was never assigned.
    pub fn prefix(&self, id: u32) -> Prefix {
        self.prefixes[id as usize]
    }

    /// All interned prefixes in id order.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// The id of `p`, if interned.
    #[inline]
    pub fn get(&self, p: &Prefix) -> Option<u32> {
        let mut slot = (hash_prefix(p) >> 32) as usize & self.mask;
        loop {
            let v = self.slots[slot];
            if v == EMPTY {
                return None;
            }
            let id = v - 1;
            if self.prefixes[id as usize] == *p {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The id of `p`, interning it if new. Ids are assigned densely in
    /// first-appearance order.
    #[inline]
    pub fn intern(&mut self, p: Prefix) -> u32 {
        let mut slot = (hash_prefix(&p) >> 32) as usize & self.mask;
        loop {
            let v = self.slots[slot];
            if v == EMPTY {
                break;
            }
            let id = v - 1;
            if self.prefixes[id as usize] == p {
                return id;
            }
            slot = (slot + 1) & self.mask;
        }
        let id = self.prefixes.len() as u32;
        assert!(id < u32::MAX, "BlockIndex full");
        self.prefixes.push(p);
        self.slots[slot] = id + 1;
        // Keep load under 1/2 so probe chains stay short.
        if (self.prefixes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(new_len, EMPTY);
        self.mask = new_len - 1;
        for (i, p) in self.prefixes.iter().enumerate() {
            let mut slot = (hash_prefix(p) >> 32) as usize & self.mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = i as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(i: u32) -> Prefix {
        Prefix::v4_raw(0x0A00_0000 + (i << 8), 24)
    }

    #[test]
    fn interns_in_first_appearance_order() {
        let mut ix = BlockIndex::new();
        assert_eq!(ix.intern(p4(7)), 0);
        assert_eq!(ix.intern(p4(3)), 1);
        assert_eq!(ix.intern(p4(7)), 0, "re-intern returns the same id");
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.prefix(0), p4(7));
        assert_eq!(ix.prefix(1), p4(3));
        assert_eq!(ix.prefixes(), &[p4(7), p4(3)]);
    }

    #[test]
    fn get_finds_only_interned_blocks() {
        let mut ix = BlockIndex::new();
        ix.intern(p4(1));
        assert_eq!(ix.get(&p4(1)), Some(0));
        assert_eq!(ix.get(&p4(2)), None);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut ix = BlockIndex::with_capacity(4);
        for i in 0..10_000u32 {
            assert_eq!(ix.intern(p4(i)), i);
        }
        assert_eq!(ix.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(ix.get(&p4(i)), Some(i), "lost {i} after growth");
        }
        assert_eq!(ix.get(&p4(10_000)), None);
    }

    #[test]
    fn v4_and_v6_do_not_collide() {
        let mut ix = BlockIndex::new();
        let v4 = Prefix::v4_raw(0, 24);
        let v6 = Prefix::v6_raw(0, 48);
        let a = ix.intern(v4);
        let b = ix.intern(v6);
        assert_ne!(a, b);
        assert_eq!(ix.get(&v4), Some(a));
        assert_eq!(ix.get(&v6), Some(b));
    }

    #[test]
    fn empty_index_reports_empty() {
        let ix = BlockIndex::new();
        assert!(ix.is_empty());
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.get(&p4(0)), None);
    }
}
