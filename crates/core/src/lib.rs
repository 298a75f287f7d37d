//! # outage-core
//!
//! The paper's contribution: **passive Internet outage detection with
//! per-block Bayesian inference and per-block parameter customization**,
//! covering IPv4 /24s and IPv6 /48s.
//!
//! Given nothing but timestamped traffic arrivals attributed to source
//! blocks (e.g. DNS queries reaching a root server), the detector:
//!
//! * learns a robust per-block rate model from history ([`history`]),
//! * chooses each block's operating point — the finest time bin its
//!   traffic supports ([`tuning`], [`config`]),
//! * runs clamped Bayesian belief inference per bin ([`belief`]) with a
//!   hysteresis up/down judgement, refined to exact packet timestamps
//!   ([`detector`]),
//! * pools blocks too sparse to judge alone into prefix aggregates,
//!   trading spatial precision for coverage ([`aggregate`]),
//! * corroborates multiple passive sources when available
//!   ([`correlate`]),
//! * federates N vantage engines — partitioned universe, isolated
//!   failure domains, fused global timeline ([`federation`]),
//! * and accounts for who is measurable at which precision
//!   ([`coverage`]).
//!
//! [`PassiveDetector`] ties the stages into a two-pass pipeline:
//! [`PassiveDetector::learn_model`] learns the histories, and
//! [`PassiveDetector::run`] — the one production entry point for a batch
//! detection — judges a stream against them across worker threads, with
//! an optional feed sentinel. [`PassiveDetector::detect`] is the
//! single-threaded reference the equivalence tests hold `run` to, and
//! [`PassiveDetector::run_slice`] a self-calibrating convenience for
//! small in-memory runs. [`detect_parallel`] and
//! [`VantageRunner::run`]/[`VantageRunner::run_with_model`] stay as thin
//! wrappers over `run` because the benchmark package calls them.
//!
//! ## Quick start
//!
//! ```
//! use outage_core::{DetectorConfig, PassiveDetector};
//! use outage_types::{Interval, Observation, Prefix, UnixTime};
//!
//! // A day of observations: one block, queries every 10 s, silent for
//! // two hours in the middle.
//! let block: Prefix = "192.0.2.0/24".parse().unwrap();
//! let window = Interval::from_secs(0, 86_400);
//! let observations: Vec<Observation> = (0..86_400)
//!     .step_by(10)
//!     .filter(|t| !(30_000..37_200).contains(t))
//!     .map(|t| Observation::new(UnixTime(t), block))
//!     .collect();
//!
//! let detector = PassiveDetector::new(DetectorConfig::default());
//! let report = detector.run_slice(&observations, window);
//!
//! let timeline = report.timeline_for(&block).unwrap();
//! assert_eq!(timeline.down.len(), 1);              // one outage found
//! assert!(timeline.down_secs() >= 7_000);          // ≈ the injected 2 h
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
mod arena;
pub mod belief;
pub mod config;
pub mod correlate;
pub mod coverage;
pub mod detector;
pub mod engine;
pub mod evidence;
pub mod federation;
pub mod history;
pub mod index;
pub mod model;
pub mod parallel;
pub mod pipeline;
pub mod sentinel;
pub mod service;
pub mod streaming;
pub mod tuning;

pub use aggregate::{plan, AggregationPlan, PlannedUnit};
pub use belief::{Belief, BeliefClamp};
pub use config::{AggregationConfig, ConfigError, DetectorConfig, EvidenceConfig};
pub use correlate::fuse_timelines;
pub use coverage::{coverage_by_width, spatial_coverage, CoveragePoint, SpatialCoverage};
pub use detector::{UnitDiagnostics, UnitReport};
pub use engine::{DetectionEngine, EngineInput, EngineOutput, QuarantineGate};
pub use evidence::{event_id, EventEvidence, EvidenceSample, EvidenceTrigger};
pub use federation::{
    fuse_models, FederatedReport, FederationError, FederationRouter, FusionPolicy, GlobalEvent,
    VantagePlan, VantageReport, VantageRunner, VantageSummary,
};
pub use history::{f64_bits_eq, BlockHistory, HistoryBuilder, HistorySource, IndexedHistories};
pub use index::BlockIndex;
pub use model::{LearnedModel, ModelError};
pub use parallel::{detect_parallel, RunError, ShardPartition, WorkerPanic};
pub use pipeline::{DetectionReport, PassiveDetector};
pub use sentinel::{FeedHealth, FeedSentinel, SentinelAccounting, SentinelConfig};
pub use service::{
    CheckpointReason, CheckpointSink, Daemon, DaemonConfig, DaemonOutcome, HttpServer,
    ObservationSource, ServeShared, ServeSnapshot, ServeStatus, ServeView, SourceFault, SourceItem,
};
pub use streaming::StreamingMonitor;
pub use tuning::{finest_measurable_width, tune_block, tune_rate, Tuning, UnitParams};
