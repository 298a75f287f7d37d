//! Address blocks: CIDR prefixes over IPv4 and IPv6.
//!
//! The paper's spatial unit is the **/24 for IPv4** and the **/48 for
//! IPv6**; its spatial-precision fallback aggregates those into shorter
//! prefixes (/22, /20, … and /46, /44, …). [`Prefix`] is a canonical CIDR
//! prefix usable both as the fine-grained block identity and as the
//! aggregated key, so detector state can be keyed uniformly at any
//! aggregation level.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// Address family of a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AddrFamily {
    /// IPv4.
    V4,
    /// IPv6.
    V6,
}

impl AddrFamily {
    /// Width of an address in bits: 32 or 128.
    pub const fn bits(self) -> u8 {
        match self {
            AddrFamily::V4 => 32,
            AddrFamily::V6 => 128,
        }
    }

    /// The paper's canonical block length for this family: /24 or /48.
    pub const fn block_len(self) -> u8 {
        match self {
            AddrFamily::V4 => 24,
            AddrFamily::V6 => 48,
        }
    }
}

impl fmt::Display for AddrFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrFamily::V4 => write!(f, "IPv4"),
            AddrFamily::V6 => write!(f, "IPv6"),
        }
    }
}

/// A 128-bit IPv6 address held as two `u64` halves, so that it is
/// 8-aligned: a `u128` field would give [`Prefix`] 16-byte alignment and
/// pad it from 24 to 32 bytes (and an observation from 32 to 48).
///
/// The derived order (`hi`, then `lo`) is `u128` order. `Hash` and
/// `Debug` go through the `u128`, so hashes and `{:?}` output match
/// those of the plain `u128` address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct V6Bits {
    /// The most significant 64 bits.
    pub hi: u64,
    /// The least significant 64 bits.
    pub lo: u64,
}

impl V6Bits {
    /// Split a `u128` address into its halves.
    #[inline]
    pub const fn new(addr: u128) -> V6Bits {
        V6Bits {
            hi: (addr >> 64) as u64,
            lo: addr as u64,
        }
    }

    /// The address as one `u128`.
    #[inline]
    pub const fn get(self) -> u128 {
        (self.hi as u128) << 64 | self.lo as u128
    }
}

impl Hash for V6Bits {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.get().hash(state);
    }
}

impl fmt::Debug for V6Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

/// A canonical CIDR prefix (host bits are always zero).
///
/// Ordering sorts IPv4 before IPv6, then by address, then by length —
/// so a prefix sorts immediately before its own sub-prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prefix {
    /// An IPv4 prefix: network bits of `addr`, masked to `len` bits.
    V4 {
        /// Network address as a big-endian u32, host bits zero.
        addr: u32,
        /// Prefix length, 0..=32.
        len: u8,
    },
    /// An IPv6 prefix: network bits of `addr`, masked to `len` bits.
    V6 {
        /// Network address (big-endian bit order), host bits zero.
        addr: V6Bits,
        /// Prefix length, 0..=128.
        len: u8,
    },
}

// An 8-aligned address keeps a prefix at 24 bytes and an observation
// (prefix plus an 8-byte time) at 32.
const _: () = assert!(size_of::<Prefix>() == 24);

#[inline]
fn mask4(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

#[inline]
fn mask6(len: u8) -> u128 {
    debug_assert!(len <= 128);
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len)
    }
}

impl Prefix {
    /// Construct an IPv4 prefix, masking away host bits. Panics if
    /// `len > 32`.
    pub fn v4(addr: Ipv4Addr, len: u8) -> Prefix {
        assert!(len <= 32, "IPv4 prefix length {len} > 32");
        Prefix::V4 {
            addr: u32::from(addr) & mask4(len),
            len,
        }
    }

    /// Construct an IPv6 prefix, masking away host bits. Panics if
    /// `len > 128`.
    pub fn v6(addr: Ipv6Addr, len: u8) -> Prefix {
        assert!(len <= 128, "IPv6 prefix length {len} > 128");
        Prefix::V6 {
            addr: V6Bits::new(u128::from(addr) & mask6(len)),
            len,
        }
    }

    /// Construct from raw integer forms (masked to canonical form).
    #[inline]
    pub fn v4_raw(addr: u32, len: u8) -> Prefix {
        assert!(len <= 32, "IPv4 prefix length {len} > 32");
        Prefix::V4 {
            addr: addr & mask4(len),
            len,
        }
    }

    /// Construct from raw integer forms (masked to canonical form).
    #[inline]
    pub fn v6_raw(addr: u128, len: u8) -> Prefix {
        assert!(len <= 128, "IPv6 prefix length {len} > 128");
        Prefix::V6 {
            addr: V6Bits::new(addr & mask6(len)),
            len,
        }
    }

    /// The /24 containing an IPv4 address — the paper's IPv4 block unit.
    pub fn block_of_v4(addr: Ipv4Addr) -> Prefix {
        Prefix::v4(addr, 24)
    }

    /// The /48 containing an IPv6 address — the paper's IPv6 block unit.
    pub fn block_of_v6(addr: Ipv6Addr) -> Prefix {
        Prefix::v6(addr, 48)
    }

    /// Address family.
    pub fn family(&self) -> AddrFamily {
        match self {
            Prefix::V4 { .. } => AddrFamily::V4,
            Prefix::V6 { .. } => AddrFamily::V6,
        }
    }

    /// Prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // not a container; /0 is valid
    pub fn len(&self) -> u8 {
        match *self {
            Prefix::V4 { len, .. } | Prefix::V6 { len, .. } => len,
        }
    }

    /// Whether this prefix is at the paper's canonical block granularity
    /// (/24 for IPv4, /48 for IPv6).
    pub fn is_block(&self) -> bool {
        self.len() == self.family().block_len()
    }

    /// Number of canonical blocks (/24 or /48) contained in this prefix.
    /// Returns 0 if the prefix is *longer* (more specific) than a block.
    pub fn block_count(&self) -> u128 {
        let bl = self.family().block_len();
        if self.len() > bl {
            0
        } else {
            1u128 << (bl - self.len())
        }
    }

    /// Whether `other` is contained in (or equal to) `self`.
    pub fn contains(&self, other: &Prefix) -> bool {
        match (*self, *other) {
            (Prefix::V4 { addr: a, len: la }, Prefix::V4 { addr: b, len: lb }) => {
                la <= lb && (b & mask4(la)) == a
            }
            (Prefix::V6 { addr: a, len: la }, Prefix::V6 { addr: b, len: lb }) => {
                la <= lb && (b.get() & mask6(la)) == a.get()
            }
            _ => false,
        }
    }

    /// Whether an IPv4 address falls inside this prefix.
    pub fn contains_v4(&self, ip: Ipv4Addr) -> bool {
        matches!(*self, Prefix::V4 { addr, len } if (u32::from(ip) & mask4(len)) == addr)
    }

    /// Whether an IPv6 address falls inside this prefix.
    pub fn contains_v6(&self, ip: Ipv6Addr) -> bool {
        matches!(*self, Prefix::V6 { addr, len } if (u128::from(ip) & mask6(len)) == addr.get())
    }

    /// The immediate parent (one bit shorter), or `None` at length 0.
    pub fn parent(&self) -> Option<Prefix> {
        match *self {
            Prefix::V4 { addr, len } if len > 0 => Some(Prefix::v4_raw(addr, len - 1)),
            Prefix::V6 { addr, len } if len > 0 => Some(Prefix::v6_raw(addr.get(), len - 1)),
            _ => None,
        }
    }

    /// The enclosing prefix of length `len`. Returns `None` if `len` is
    /// longer than this prefix (a supernet cannot be more specific).
    #[inline]
    pub fn supernet(&self, len: u8) -> Option<Prefix> {
        if len > self.len() {
            return None;
        }
        Some(match *self {
            Prefix::V4 { addr, .. } => Prefix::v4_raw(addr, len),
            Prefix::V6 { addr, .. } => Prefix::v6_raw(addr.get(), len),
        })
    }

    /// The two halves of this prefix (one bit longer), or `None` when the
    /// prefix is already a full host address.
    pub fn children(&self) -> Option<(Prefix, Prefix)> {
        match *self {
            Prefix::V4 { addr, len } if len < 32 => {
                let bit = 1u32 << (32 - len - 1);
                Some((
                    Prefix::V4 { addr, len: len + 1 },
                    Prefix::V4 {
                        addr: addr | bit,
                        len: len + 1,
                    },
                ))
            }
            Prefix::V6 { addr, len } if len < 128 => {
                let bit = 1u128 << (128 - len - 1);
                Some((
                    Prefix::V6 { addr, len: len + 1 },
                    Prefix::V6 {
                        addr: V6Bits::new(addr.get() | bit),
                        len: len + 1,
                    },
                ))
            }
            _ => None,
        }
    }

    /// Iterate over the canonical blocks (/24 or /48) inside this prefix.
    /// Empty if the prefix is more specific than a block. Capped at
    /// `limit` blocks to keep enumeration of short prefixes sane.
    pub fn blocks(&self, limit: usize) -> Vec<Prefix> {
        let bl = self.family().block_len();
        if self.len() > bl {
            return Vec::new();
        }
        let n = (self.block_count()).min(limit as u128) as usize;
        let mut out = Vec::with_capacity(n);
        match *self {
            Prefix::V4 { addr, .. } => {
                let step = 1u32 << (32 - bl);
                for i in 0..n as u32 {
                    out.push(Prefix::V4 {
                        addr: addr + i * step,
                        len: bl,
                    });
                }
            }
            Prefix::V6 { addr, .. } => {
                let step = 1u128 << (128 - bl);
                for i in 0..n as u128 {
                    out.push(Prefix::V6 {
                        addr: V6Bits::new(addr.get() + i * step),
                        len: bl,
                    });
                }
            }
        }
        out
    }

    /// The `i`-th bit of the network address, counting from the most
    /// significant (bit 0). Used by the prefix trie.
    pub(crate) fn bit(&self, i: u8) -> bool {
        match *self {
            Prefix::V4 { addr, .. } => {
                debug_assert!(i < 32);
                (addr >> (31 - i)) & 1 == 1
            }
            Prefix::V6 { addr, .. } => {
                debug_assert!(i < 128);
                (addr.get() >> (127 - i)) & 1 == 1
            }
        }
    }

    /// The `offset`-th address inside the prefix (wrapping within the
    /// prefix). Handy for simulators that need "some host in this block".
    pub fn host(&self, offset: u64) -> HostAddr {
        match *self {
            Prefix::V4 { addr, len } => {
                let span = if len == 32 { 1 } else { 1u64 << (32 - len) };
                HostAddr::V4(Ipv4Addr::from(addr + (offset % span) as u32))
            }
            Prefix::V6 { addr, len } => {
                let span: u128 = if len == 128 {
                    1
                } else {
                    1u128 << (128 - len).min(63)
                };
                HostAddr::V6(Ipv6Addr::from(addr.get() + (offset as u128 % span)))
            }
        }
    }
}

/// A single host address of either family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostAddr {
    /// An IPv4 host.
    V4(Ipv4Addr),
    /// An IPv6 host.
    V6(Ipv6Addr),
}

impl HostAddr {
    /// The canonical block (/24 or /48) containing this host.
    pub fn block(&self) -> Prefix {
        match *self {
            HostAddr::V4(ip) => Prefix::block_of_v4(ip),
            HostAddr::V6(ip) => Prefix::block_of_v6(ip),
        }
    }

    /// Address family.
    pub fn family(&self) -> AddrFamily {
        match self {
            HostAddr::V4(_) => AddrFamily::V4,
            HostAddr::V6(_) => AddrFamily::V6,
        }
    }
}

impl fmt::Display for HostAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostAddr::V4(ip) => write!(f, "{ip}"),
            HostAddr::V6(ip) => write!(f, "{ip}"),
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Prefix::V4 { addr, len } => write!(f, "{}/{}", Ipv4Addr::from(addr), len),
            Prefix::V6 { addr, len } => write!(f, "{}/{}", Ipv6Addr::from(addr.get()), len),
        }
    }
}

/// Error parsing a prefix from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError(pub String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, len) = s
            .split_once('/')
            .ok_or_else(|| ParsePrefixError(format!("{s}: missing '/'")))?;
        let len: u8 = len
            .parse()
            .map_err(|_| ParsePrefixError(format!("{s}: bad length")))?;
        if let Ok(v4) = ip.parse::<Ipv4Addr>() {
            if len > 32 {
                return Err(ParsePrefixError(format!("{s}: /{len} > 32")));
            }
            return Ok(Prefix::v4(v4, len));
        }
        if let Ok(v6) = ip.parse::<Ipv6Addr>() {
            if len > 128 {
                return Err(ParsePrefixError(format!("{s}: /{len} > 128")));
            }
            return Ok(Prefix::v6(v6, len));
        }
        Err(ParsePrefixError(format!("{s}: unparseable address")))
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_host_bits() {
        let p = Prefix::v4(Ipv4Addr::new(192, 0, 2, 77), 24);
        assert_eq!(p, Prefix::v4(Ipv4Addr::new(192, 0, 2, 0), 24));
        assert_eq!(p.to_string(), "192.0.2.0/24");
        let q = Prefix::v6("2001:db8::dead:beef".parse().unwrap(), 48);
        assert_eq!(q.to_string(), "2001:db8::/48");
    }

    #[test]
    fn zero_length_prefix_is_everything() {
        let all4 = Prefix::v4(Ipv4Addr::new(203, 0, 113, 9), 0);
        assert_eq!(all4.to_string(), "0.0.0.0/0");
        assert!(all4.contains_v4(Ipv4Addr::new(8, 8, 8, 8)));
        let all6 = Prefix::v6("2001:db8::1".parse().unwrap(), 0);
        assert!(all6.contains_v6("::1".parse().unwrap()));
    }

    #[test]
    fn containment() {
        let p16: Prefix = "10.1.0.0/16".parse().unwrap();
        let p24: Prefix = "10.1.2.0/24".parse().unwrap();
        assert!(p16.contains(&p24));
        assert!(!p24.contains(&p16));
        assert!(p16.contains(&p16));
        let q: Prefix = "10.2.0.0/24".parse().unwrap();
        assert!(!p16.contains(&q));
        // cross-family never contains
        let v6: Prefix = "2001:db8::/48".parse().unwrap();
        assert!(!p16.contains(&v6));
        assert!(!v6.contains(&p16));
    }

    #[test]
    fn parent_and_supernet() {
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        assert_eq!(p.parent().unwrap().to_string(), "192.0.2.0/23");
        assert_eq!(p.supernet(20).unwrap().to_string(), "192.0.0.0/20");
        assert_eq!(p.supernet(24), Some(p));
        assert!(p.supernet(25).is_none());
        let root = Prefix::v4_raw(0, 0);
        assert!(root.parent().is_none());
    }

    #[test]
    fn children_split_cleanly() {
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        let (lo, hi) = p.children().unwrap();
        assert_eq!(lo.to_string(), "192.0.2.0/25");
        assert_eq!(hi.to_string(), "192.0.2.128/25");
        assert!(p.contains(&lo) && p.contains(&hi));
        let host: Prefix = "192.0.2.1/32".parse().unwrap();
        assert!(host.children().is_none());
    }

    #[test]
    fn block_identity() {
        let b = Prefix::block_of_v4(Ipv4Addr::new(198, 51, 100, 200));
        assert_eq!(b.to_string(), "198.51.100.0/24");
        assert!(b.is_block());
        assert_eq!(b.block_count(), 1);
        let agg = b.supernet(22).unwrap();
        assert!(!agg.is_block());
        assert_eq!(agg.block_count(), 4);
        let v6 = Prefix::block_of_v6("2001:db8:42::1".parse().unwrap());
        assert_eq!(v6.to_string(), "2001:db8:42::/48");
        assert!(v6.is_block());
    }

    #[test]
    fn blocks_enumeration() {
        let agg: Prefix = "10.0.0.0/22".parse().unwrap();
        let blocks = agg.blocks(100);
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].to_string(), "10.0.0.0/24");
        assert_eq!(blocks[3].to_string(), "10.0.3.0/24");
        // limit respected
        assert_eq!(agg.blocks(2).len(), 2);
        // more-specific-than-block yields nothing
        let host: Prefix = "10.0.0.0/30".parse().unwrap();
        assert!(host.blocks(10).is_empty());
        // v6
        let agg6: Prefix = "2001:db8::/46".parse().unwrap();
        assert_eq!(agg6.blocks(100).len(), 4);
    }

    #[test]
    fn host_offsets_stay_inside() {
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        for off in [0u64, 1, 255, 256, 1000] {
            match p.host(off) {
                HostAddr::V4(ip) => assert!(p.contains_v4(ip), "{ip} outside {p}"),
                _ => panic!("family mismatch"),
            }
        }
        let p6: Prefix = "2001:db8::/48".parse().unwrap();
        match p6.host(12345) {
            HostAddr::V6(ip) => assert!(p6.contains_v6(ip)),
            _ => panic!("family mismatch"),
        }
    }

    #[test]
    fn host_block_roundtrip() {
        let h = HostAddr::V4(Ipv4Addr::new(203, 0, 113, 7));
        assert_eq!(h.block().to_string(), "203.0.113.0/24");
        assert_eq!(h.family(), AddrFamily::V4);
    }

    #[test]
    fn parse_errors() {
        assert!("10.0.0.0".parse::<Prefix>().is_err()); // no slash
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("2001:db8::/129".parse::<Prefix>().is_err());
        assert!("banana/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "192.0.2.0/24",
            "2001:db8::/32",
            "2001:db8:1:2::/64",
        ] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn bit_extraction() {
        let p: Prefix = "128.0.0.0/1".parse().unwrap();
        assert!(p.bit(0));
        let q: Prefix = "64.0.0.0/2".parse().unwrap();
        assert!(!q.bit(0));
        assert!(q.bit(1));
    }

    #[test]
    fn ordering_groups_families() {
        let mut v: Vec<Prefix> = vec![
            "2001:db8::/48".parse().unwrap(),
            "10.0.0.0/8".parse().unwrap(),
            "10.0.0.0/24".parse().unwrap(),
        ];
        v.sort();
        assert_eq!(v[0].to_string(), "10.0.0.0/8");
        assert_eq!(v[1].to_string(), "10.0.0.0/24");
        assert_eq!(v[2].to_string(), "2001:db8::/48");
    }
}
