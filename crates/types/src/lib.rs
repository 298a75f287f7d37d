//! # outage-types
//!
//! Shared vocabulary for the passive-outage workspace: addresses and CIDR
//! [`Prefix`]es, second-resolution [`UnixTime`] and [`TimeBin`]s, the
//! half-open [`Interval`]/[`IntervalSet`] timeline algebra, outage
//! [`OutageEvent`]s and per-block [`Timeline`]s, and a routing-style
//! [`PrefixTrie`].
//!
//! Every crate in the workspace — the passive detector, the Trinocular and
//! Chocolatine baselines, the RIPE-Atlas-style truth source, the traffic
//! simulator, and the evaluation harness — communicates exclusively through
//! these types, which is what lets the evaluation code compare detectors
//! without caring how each one works.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod interval;
pub mod prefix;
pub mod rng;
pub mod time;
pub mod trie;

pub use event::{DetectorId, Observation, OutageEvent, Timeline};
pub use interval::{Interval, IntervalSet};
pub use prefix::{AddrFamily, HostAddr, ParsePrefixError, Prefix, V6Bits};
pub use time::{durations, TimeBin, UnixTime};
pub use trie::PrefixTrie;
