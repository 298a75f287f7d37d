//! One vantage's isolated detection engine.

use crate::config::{ConfigError, DetectorConfig};
use crate::history::HistorySource;
use crate::model::LearnedModel;
use crate::parallel::RunError;
use crate::pipeline::{DetectionReport, PassiveDetector};
use crate::sentinel::{FeedHealth, SentinelConfig};
use outage_obs::Obs;
use outage_types::{Interval, Observation, UnixTime};

/// A per-vantage runner owning its own [`PassiveDetector`], sentinel
/// configuration, and [`Obs`] scope.
///
/// The isolation is the point: each vantage's sentinel watches only its
/// own shard's aggregate rate, and each vantage's metrics land in its
/// own registry. A feed blackout at one vantage therefore quarantines
/// only that vantage's blocks — the other runners never see the fault
/// (see the fault-isolation tests).
#[derive(Debug)]
pub struct VantageRunner {
    vantage: usize,
    detector: PassiveDetector,
    sentinel: Option<SentinelConfig>,
}

/// One vantage's detection outcome, ready for
/// [`super::FederationRouter::assemble`].
#[derive(Debug)]
pub struct VantageReport {
    /// The vantage id (its index in the [`super::VantagePlan`]).
    pub vantage: usize,
    /// The vantage's own detection report, quarantine included.
    pub report: DetectionReport,
    /// The vantage sentinel's final state; `None` when the runner had
    /// no sentinel configured.
    pub feed_health: Option<FeedHealth>,
    /// How far the vantage has processed. Batch runs end at the window
    /// edge; streaming federations report their per-vantage high-water
    /// mark here.
    pub watermark: UnixTime,
}

impl VantageRunner {
    /// A runner for vantage `vantage` with its own detector and a fresh
    /// (isolated) obs scope.
    pub fn new(vantage: usize, config: DetectorConfig) -> Result<VantageRunner, ConfigError> {
        Ok(VantageRunner {
            vantage,
            detector: PassiveDetector::try_new(config)?.with_obs(Obs::new()),
            sentinel: None,
        })
    }

    /// Guard this vantage's detection pass with a feed sentinel.
    pub fn with_sentinel(mut self, sentinel: SentinelConfig) -> VantageRunner {
        self.sentinel = Some(sentinel);
        self
    }

    /// The vantage id.
    pub fn vantage(&self) -> usize {
        self.vantage
    }

    /// The vantage's detector (for metric scraping or direct driving).
    pub fn detector(&self) -> &PassiveDetector {
        &self.detector
    }

    /// The vantage's isolated obs scope.
    pub fn obs(&self) -> &Obs {
        self.detector.obs()
    }

    /// Learn this vantage's model from its shard of the stream.
    pub fn learn(
        &self,
        observations: &[Observation],
        window: Interval,
        workers: usize,
    ) -> LearnedModel {
        self.detector.learn_model(observations, window, workers)
    }

    /// Self-calibrated two-pass run over this vantage's shard: learn,
    /// then detect (sentinel-guarded when configured).
    pub fn run(
        &self,
        observations: &[Observation],
        window: Interval,
    ) -> Result<VantageReport, RunError> {
        let histories = self.learn(observations, window, 1).into_indexed();
        self.run_with_model(&histories, observations, window)
    }

    /// Detection pass over this vantage's shard from already-learned
    /// (possibly fused, possibly warm-started) histories: one
    /// [`PassiveDetector::run`] at one worker.
    pub fn run_with_model<H: HistorySource + ?Sized>(
        &self,
        histories: &H,
        observations: &[Observation],
        window: Interval,
    ) -> Result<VantageReport, RunError> {
        let report = self.detector.run(
            histories,
            observations.iter().copied(),
            window,
            1,
            self.sentinel.as_ref(),
        )?;
        Ok(VantageReport {
            vantage: self.vantage,
            feed_health: report.feed_health,
            report,
            watermark: window.end,
        })
    }
}
