//! Seeded oracle for the IPv6 half of [`Prefix`]: the address used to be
//! a `u128` field and is now two `u64` halves ([`V6Bits`]). `Old` keeps
//! the `u128` layout with the old derives, and the `old_*` functions keep
//! the `u128` arithmetic the methods had, so every case checks that only
//! the layout moved: order, equality, hashing, `Debug`, containment,
//! parent/children/supernet, block enumeration, host offsets, bit reads,
//! `Display` and `FromStr`.

use super::*;
use crate::rng::{cases, SmallRng};
use std::collections::hash_map::DefaultHasher;

/// `Prefix` as it was declared with a `u128` address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Old {
    #[allow(dead_code)] // never drawn; keeps `V6`'s discriminant, which `Hash` feeds
    V4 {
        addr: u32,
        len: u8,
    },
    V6 {
        addr: u128,
        len: u8,
    },
}

fn old(addr: u128, len: u8) -> Old {
    Old::V6 {
        addr: addr & mask6(len),
        len,
    }
}

fn parts(o: Old) -> (u128, u8) {
    match o {
        Old::V6 { addr, len } => (addr, len),
        Old::V4 { .. } => unreachable!("the oracle draws IPv6 only"),
    }
}

fn to_old(p: Prefix) -> Old {
    match p {
        Prefix::V6 { addr, len } => Old::V6 {
            addr: addr.get(),
            len,
        },
        Prefix::V4 { .. } => panic!("{p} is not IPv6"),
    }
}

fn old_contains(a: Old, b: Old) -> bool {
    let ((a, la), (b, lb)) = (parts(a), parts(b));
    la <= lb && (b & mask6(la)) == a
}

fn old_parent(o: Old) -> Option<Old> {
    let (addr, len) = parts(o);
    (len > 0).then(|| old(addr, len - 1))
}

fn old_supernet(o: Old, to: u8) -> Option<Old> {
    let (addr, len) = parts(o);
    (to <= len).then(|| old(addr, to))
}

fn old_children(o: Old) -> Option<(Old, Old)> {
    let (addr, len) = parts(o);
    (len < 128).then(|| {
        let bit = 1u128 << (128 - len - 1);
        (
            Old::V6 { addr, len: len + 1 },
            Old::V6 {
                addr: addr | bit,
                len: len + 1,
            },
        )
    })
}

fn old_blocks(o: Old, limit: usize) -> Vec<Old> {
    let (addr, len) = parts(o);
    if len > 48 {
        return Vec::new();
    }
    let n = (1u128 << (48 - len)).min(limit as u128);
    (0..n)
        .map(|i| Old::V6 {
            addr: addr + i * (1u128 << 80),
            len: 48,
        })
        .collect()
}

fn old_host(o: Old, offset: u64) -> u128 {
    let (addr, len) = parts(o);
    let span: u128 = if len == 128 {
        1
    } else {
        1u128 << (128 - len).min(63)
    };
    addr + (offset as u128 % span)
}

fn old_bit(o: Old, i: u8) -> bool {
    (parts(o).0 >> (127 - i)) & 1 == 1
}

fn hash_of(h: impl Hash) -> u64 {
    let mut s = DefaultHasher::new();
    h.hash(&mut s);
    s.finish()
}

/// The named lengths (both sides of each 64-bit and block boundary and
/// the ends) half the time, any length otherwise.
fn draw_len(rng: &mut SmallRng) -> u8 {
    const EDGES: [u8; 9] = [0, 1, 47, 48, 63, 64, 65, 127, 128];
    if rng.gen_bool(0.5) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(0..=128u8)
    }
}

/// All-zero, all-ones, one half full, a single bit, or random bits.
fn draw_addr(rng: &mut SmallRng) -> u128 {
    match rng.gen_range(0..6u8) {
        0 => 0,
        1 => u128::MAX,
        2 => u128::from(u64::MAX) << 64,
        3 => u128::from(u64::MAX),
        4 => 1u128 << rng.gen_range(0..128u32),
        _ => u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>()),
    }
}

/// One case: a drawn prefix `a`, a second prefix that is often inside
/// `a` (so containment is exercised both ways), and an address.
fn check(rng: &mut SmallRng) {
    let (raw, len) = (draw_addr(rng), draw_len(rng));
    let a = Prefix::v6_raw(raw, len);
    let oa = old(raw, len);
    let b_len = if rng.gen_bool(0.7) {
        rng.gen_range(len..=128)
    } else {
        draw_len(rng)
    };
    let b_raw = if rng.gen_bool(0.7) {
        parts(oa).0 | (draw_addr(rng) & !mask6(len))
    } else {
        draw_addr(rng)
    };
    let b = Prefix::v6_raw(b_raw, b_len);
    let ob = old(b_raw, b_len);
    let ip = draw_addr(rng);

    assert_eq!(to_old(a), oa);
    assert_eq!(a.cmp(&b), oa.cmp(&ob), "{a} vs {b}");
    assert_eq!(a == b, oa == ob, "{a} == {b}");
    assert_eq!(hash_of(a), hash_of(oa), "hash of {a}");
    assert_eq!(format!("{a:?}"), format!("{oa:?}"));
    assert_eq!(a.contains(&b), old_contains(oa, ob), "{a} contains {b}");
    assert_eq!(b.contains(&a), old_contains(ob, oa), "{b} contains {a}");
    assert_eq!(
        a.contains_v6(Ipv6Addr::from(ip)),
        old_contains(oa, old(ip, 128)),
        "{a} contains {}",
        Ipv6Addr::from(ip)
    );
    assert_eq!(a.parent().map(to_old), old_parent(oa), "parent of {a}");
    let to = draw_len(rng);
    assert_eq!(
        a.supernet(to).map(to_old),
        old_supernet(oa, to),
        "{a} /{to}"
    );
    assert_eq!(
        a.children().map(|(l, h)| (to_old(l), to_old(h))),
        old_children(oa),
        "children of {a}"
    );
    let limit = rng.gen_range(0..9usize);
    let blocks: Vec<Old> = a.blocks(limit).into_iter().map(to_old).collect();
    assert_eq!(blocks, old_blocks(oa, limit), "blocks of {a}");
    let offset = rng.gen::<u64>();
    assert_eq!(
        a.host(offset),
        HostAddr::V6(Ipv6Addr::from(old_host(oa, offset))),
        "host {offset} of {a}"
    );
    for i in [0, 63, 64, 127, rng.gen_range(0..128u8)] {
        assert_eq!(a.bit(i), old_bit(oa, i), "bit {i} of {a}");
    }
    let text = format!("{}/{len}", Ipv6Addr::from(parts(oa).0));
    assert_eq!(a.to_string(), text);
    assert_eq!(text.parse::<Prefix>(), Ok(a));
    let unmasked = format!("{}/{len}", Ipv6Addr::from(raw));
    assert_eq!(unmasked.parse::<Prefix>().map(to_old), Ok(oa), "{unmasked}");
}

#[test]
fn v6_prefix_agrees_with_the_u128_reference() {
    cases(12_000, 0x5eed_0006, check);
}

#[test]
fn v6_bits_order_and_round_trip_match_u128() {
    let edges = [
        0,
        1,
        u128::from(u64::MAX),
        1u128 << 64,
        u128::MAX >> 1,
        1u128 << 127,
        u128::MAX,
    ];
    for &x in &edges {
        assert_eq!(V6Bits::new(x).get(), x);
        for &y in &edges {
            assert_eq!(
                V6Bits::new(x).cmp(&V6Bits::new(y)),
                x.cmp(&y),
                "{x:#x} vs {y:#x}"
            );
        }
    }
}
