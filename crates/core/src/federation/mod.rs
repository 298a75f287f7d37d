//! Multi-vantage federation: shard the block universe across N
//! telescopes, run an isolated engine per vantage, and fuse the results
//! into one global view.
//!
//! The paper detects outages from a single vantage (B-root). Production
//! systems fuse many: nationwide collectors feeding one event monitor,
//! with per-collector failure domains. This module is that horizontal
//! scale-out step, built from four pieces:
//!
//! * [`VantagePlan`] — partitions blocks across vantages by prefix.
//!   The partition key is the block's supernet at the *aggregation
//!   floor* (v4 /20, v6 /44 by default), so every block that spatial
//!   aggregation could ever pool into one unit lands on the same
//!   vantage — a federated run plans exactly the units a single-vantage
//!   run would, just spread across engines. An optional overlap
//!   fraction assigns some keys to a second vantage for corroboration.
//! * [`VantageRunner`] — one vantage's isolated engine: its own
//!   [`crate::PassiveDetector`], its own [`crate::FeedSentinel`]
//!   config, its own [`outage_obs::Obs`] scope. A feed blackout at one
//!   vantage quarantines only that vantage's shard (proven by the
//!   fault-isolation tests).
//! * [`fuse_models`] — cross-vantage [`crate::LearnedModel`] fusion: counts
//!   sum on the shared arena and the index is canonicalized, so the
//!   fused model is bit-for-bit identical regardless of merge order.
//! * [`FederationRouter`] — assembles per-vantage
//!   [`crate::DetectionReport`]s into one global event timeline with
//!   per-event vantage attribution. Units seen by one vantage pass
//!   through verbatim; units seen by several are fused under a
//!   [`FusionPolicy`] (union or quorum voting via
//!   [`crate::fuse_timelines`]).
//!
//! ## Guarantees
//!
//! * **Union equivalence** — with no overlap and `FusionPolicy::Union`,
//!   a fault-free federated run emits the same event timeline as a
//!   single-vantage run over the union stream (partitioning at the
//!   aggregation floor keeps unit planning identical; pass-through
//!   keeps events verbatim).
//! * **Quarantine isolation** — one vantage's sentinel quarantine is
//!   scoped to its own shard; other vantages' timelines are
//!   bit-identical to their solo runs.
//! * **Fusion determinism** — [`fuse_models`] output does not depend on
//!   the order shards are merged in.

mod fusion;
mod plan;
mod router;
mod runner;

pub use fusion::fuse_models;
pub use plan::VantagePlan;
pub use router::{FederatedReport, FederationRouter, FusionPolicy, GlobalEvent, VantageSummary};
pub use runner::{VantageReport, VantageRunner};

use crate::config::ConfigError;
use crate::model::ModelError;
use outage_types::Interval;

/// Why a federation could not be planned, run, or assembled.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// A plan needs at least one vantage.
    NoVantages,
    /// The overlap fraction must lie in `[0, 1]`.
    InvalidOverlap(f64),
    /// A fusion policy string did not parse.
    PolicyParse(String),
    /// Assembly needs at least one vantage report.
    NoReports,
    /// Two reports claim the same vantage id.
    DuplicateVantage(usize),
    /// A vantage report covers a different window than the first.
    WindowMismatch {
        /// Window of the first report.
        expected: Interval,
        /// The offending report's window.
        got: Interval,
        /// The offending report's vantage id.
        vantage: usize,
    },
    /// A per-vantage detector could not be constructed or run.
    Config(ConfigError),
    /// Cross-vantage model fusion failed.
    Model(ModelError),
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::NoVantages => write!(f, "a federation needs at least one vantage"),
            FederationError::InvalidOverlap(x) => {
                write!(f, "overlap fraction {x} is outside [0, 1]")
            }
            FederationError::PolicyParse(s) => {
                write!(f, "fusion policy {s:?} (expected `union` or `quorum:K`)")
            }
            FederationError::NoReports => write!(f, "no vantage reports to assemble"),
            FederationError::DuplicateVantage(v) => {
                write!(f, "two reports claim vantage {v}")
            }
            FederationError::WindowMismatch {
                expected,
                got,
                vantage,
            } => write!(
                f,
                "vantage {vantage} covers window [{}, {}) but the federation covers [{}, {})",
                got.start.secs(),
                got.end.secs(),
                expected.start.secs(),
                expected.end.secs()
            ),
            FederationError::Config(e) => write!(f, "vantage detector: {e}"),
            FederationError::Model(e) => write!(f, "model fusion: {e}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl From<ConfigError> for FederationError {
    fn from(e: ConfigError) -> FederationError {
        FederationError::Config(e)
    }
}

impl From<ModelError> for FederationError {
    fn from(e: ModelError) -> FederationError {
        FederationError::Model(e)
    }
}
