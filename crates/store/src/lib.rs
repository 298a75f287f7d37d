//! # outage-store
//!
//! Durable checkpoints for the learned detector state, so detection can
//! **warm-start** instead of re-ingesting a full history window. The
//! paper's pipeline learns per-block rate models from a day of traffic
//! and then consults them for every detection window; at operational
//! scale that learning pass dominates wall time, and persisting it is
//! what turns the batch replayer into a continuously running service.
//!
//! Three layers:
//!
//! * [`mod@format`] — the versioned binary format (`POMS`): magic + version
//!   header, config fingerprint, and `INDX`/`CNTS`/`HIST` sections each
//!   guarded by a CRC32. Decoding is total: hostile bytes produce a
//!   typed [`StoreError`], never a panic or a partial model.
//! * [`atomic`] — crash-safe publication (write-temp, fsync, rename),
//!   reused by the CLI for metrics/trace snapshots.
//! * [`persist`] — file I/O plus [`ModelPersistence`], the
//!   [`outage_core::PassiveDetector`] extension that stamps and
//!   validates config fingerprints and feeds the
//!   [`outage_obs::StoreMetrics`] counters.
//!
//! Checkpoints are *mergeable*: because the format carries the raw
//! per-hour count arena (not just derived rates), two checkpoints over
//! adjacent history windows combine exactly via
//! [`outage_core::LearnedModel::merge`] — a daily cron rolls the model
//! forward without ever touching old raw traffic.
//!
//! ```
//! use outage_core::{DetectorConfig, PassiveDetector};
//! use outage_store::ModelPersistence;
//! use outage_types::{Interval, Observation, Prefix, UnixTime};
//!
//! let block: Prefix = "192.0.2.0/24".parse().unwrap();
//! let window = Interval::from_secs(0, 86_400);
//! let observations: Vec<Observation> = (0..86_400)
//!     .step_by(10)
//!     .map(|t| Observation::new(UnixTime(t), block))
//!     .collect();
//!
//! let detector = PassiveDetector::new(DetectorConfig::default());
//! let model = detector.learn_model(&observations, window, 1);
//!
//! let path = std::env::temp_dir().join("doc-model.poms");
//! detector.save_model(&model, &path).unwrap();
//!
//! // Later (or in another process): warm-start without re-learning.
//! let warm = detector.load_model(&path).unwrap();
//! let report = detector.detect(&warm, observations.iter().copied(), window);
//! assert!(report.covered_blocks() > 0);
//! # let _ = std::fs::remove_file(&path);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atomic;
pub mod crc32;
pub mod error;
pub mod format;
pub mod persist;
pub mod serve;

pub use atomic::atomic_write;
pub use crc32::crc32;
pub use error::StoreError;
pub use format::{decode_checkpoint, encode_checkpoint, encode_model, Checkpoint, MAGIC, VERSION};
pub use persist::{read_checkpoint, write_checkpoint, ModelPersistence};
pub use serve::{
    decode_serve_checkpoint, encode_serve_checkpoint, read_serve_checkpoint,
    write_serve_checkpoint, CheckpointCadence, FileCheckpointSink, ServeCheckpoint, SERVE_MAGIC,
    SERVE_VERSION,
};
