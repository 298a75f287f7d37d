//! Per-command implementations, kept I/O-free for testability: each
//! command takes parsed inputs and returns the text it would print /
//! write. One module per command family; shared plumbing (errors,
//! window resolution, worker counts) lives here.

mod coverage;
mod detect;
mod eval;
mod explain;
mod federate;
mod learn;
mod model;
mod serve;
mod simulate;
mod status;
mod telescope;

pub use self::coverage::coverage;
pub use self::detect::{detect, detect_with, DetectOptions, DetectOutput};
pub use self::eval::eval;
pub use self::explain::{explain, explain_live};
pub use self::federate::{federate, FederateOptions, FederateOutput};
pub use self::learn::{learn, LearnOutput};
pub use self::model::{model_inspect, model_merge, model_verify};
pub use self::serve::{serve, ServeOptions, ServeOutcomeSummary, ServeSource};
pub use self::simulate::{build_preset, simulate, SimulateOutput};
pub use self::status::status;
pub use self::telescope::telescope;

use crate::format;
use outage_core::ConfigError;
use outage_store::StoreError;
use outage_types::{durations, Interval, Observation, UnixTime};

/// Command error (bad arguments or bad input data).
#[derive(Debug)]
pub struct CommandError(pub String);

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CommandError {}

impl From<format::ParseError> for CommandError {
    fn from(e: format::ParseError) -> Self {
        CommandError(e.to_string())
    }
}

impl From<ConfigError> for CommandError {
    fn from(e: ConfigError) -> Self {
        CommandError(format!("invalid detector configuration: {e}"))
    }
}

impl From<outage_core::RunError> for CommandError {
    fn from(e: outage_core::RunError) -> Self {
        match e {
            outage_core::RunError::Config(e) => e.into(),
            outage_core::RunError::Worker(e) => CommandError(e.to_string()),
        }
    }
}

impl From<StoreError> for CommandError {
    fn from(e: StoreError) -> Self {
        CommandError(format!("model checkpoint: {e}"))
    }
}

impl From<outage_core::ModelError> for CommandError {
    fn from(e: outage_core::ModelError) -> Self {
        CommandError(format!("model merge: {e}"))
    }
}

impl From<outage_core::FederationError> for CommandError {
    fn from(e: outage_core::FederationError) -> Self {
        CommandError(format!("federation: {e}"))
    }
}

/// The window a document is detected (and learned) over: explicit
/// seconds, or the last observation rounded up to a whole day.
pub(crate) fn detection_window(
    observations: &[Observation],
    window_secs: Option<u64>,
) -> Result<Interval, CommandError> {
    let Some(max_t) = observations.iter().map(|o| o.time.secs()).max() else {
        return Err(CommandError("no observations in input".into()));
    };
    let window_end = window_secs.unwrap_or_else(|| max_t.div_ceil(durations::DAY) * durations::DAY);
    if window_end <= max_t && window_secs.is_some() {
        return Err(CommandError(format!(
            "--window {window_end} does not cover the last observation at {max_t}"
        )));
    }
    Ok(Interval::new(UnixTime::EPOCH, UnixTime(window_end)))
}

/// Worker-count resolution shared by `learn` and `detect`.
pub(crate) fn resolve_workers(workers: Option<usize>) -> Result<usize, CommandError> {
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    if workers == 0 {
        return Err(CommandError("--workers must be at least 1".into()));
    }
    Ok(workers)
}
