//! `detect`: run the passive detector over an observation document, in
//! any of the three execution modes (batch/parallel is the default;
//! `--streaming` replays through the [`StreamingMonitor`] adapter).
//! All modes run the same [`outage_core::DetectionEngine`] kernel, so
//! verdicts are identical; only the driving differs.

use super::{detection_window, resolve_workers, CommandError};
use crate::format;
use outage_core::{
    DetectorConfig, EventEvidence, EvidenceConfig, LearnedModel, PassiveDetector, SentinelConfig,
    StreamingMonitor,
};
use outage_eval::summarize;
use outage_netsim::FaultPlan;
use outage_obs::{Obs, StoreMetrics};
use outage_store::{encode_model, ModelPersistence};
use outage_types::{Interval, Observation};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Output of `detect`.
#[derive(Debug)]
pub struct DetectOutput {
    /// Detected event document.
    pub events: String,
    /// Quarantined-interval document (empty set unless a sentinel ran
    /// and tripped).
    pub quarantine: String,
    /// Prometheus-text metrics snapshot of the run.
    pub metrics: String,
    /// Span trace as JSON lines (only when tracing was requested).
    pub trace: Option<String>,
    /// Encoded model checkpoint of the learned histories (only when
    /// [`DetectOptions::model_out`] was set).
    pub model: Option<Vec<u8>>,
    /// Evidence document — one JSON record per line, `(start, prefix)`
    /// order — when the evidence tier was on. What `explain` reads.
    pub evidence: Option<String>,
    /// Human summary.
    pub summary: String,
}

/// Knobs for [`detect_with`] beyond the observation document itself.
#[derive(Debug, Clone, Default)]
pub struct DetectOptions {
    /// Explicit window end (seconds); defaults to the last observation
    /// rounded up to a whole day.
    pub window_secs: Option<u64>,
    /// Sensor faults to inject into the feed before detection.
    pub fault_plan: Option<FaultPlan>,
    /// Guard detection with a feed sentinel under this configuration.
    pub sentinel: Option<SentinelConfig>,
    /// Worker threads for the sharded history pass and the parallel
    /// detection driver; `None` means available parallelism. Mutually
    /// exclusive with `streaming`.
    pub workers: Option<usize>,
    /// Run the window through the streaming adapter instead of the
    /// parallel driver: same engine, same verdicts, exercised through
    /// the online code path.
    pub streaming: bool,
    /// Record structured spans (for `--trace-out`). Metrics are always
    /// collected; only span tracing is opt-in.
    pub trace: bool,
    /// A model checkpoint file (`learn --model-out`): warm-start by
    /// skipping the history pass entirely. The checkpoint's config
    /// fingerprint and history window must match this run's.
    pub model: Option<PathBuf>,
    /// Encode the learned model into [`DetectOutput::model`] so the
    /// caller can persist it (`detect --model-out`). Meaningless — and
    /// rejected — together with `model`: a warm-started run has nothing
    /// newly learned to save.
    pub model_out: bool,
    /// Evidence capture tier: `off` (default) keeps nothing,
    /// `sampled:N` enrolls ~1/N of units by stable prefix hash, `full`
    /// enrolls everything.
    pub evidence: EvidenceConfig,
    /// Cooperative cancellation for the streaming path: when this flag
    /// flips mid-replay (SIGINT/SIGTERM in the binary), the run stops
    /// feeding, drains the monitor at the last replayed instant, and
    /// returns the partial event document instead of dying with no
    /// output. Ignored by the batch path, which has no incremental
    /// state worth salvaging.
    pub cancel: Option<&'static std::sync::atomic::AtomicBool>,
}

/// `detect`: run the passive detector over an observation document.
pub fn detect(
    observations_doc: &str,
    window_secs: Option<u64>,
) -> Result<DetectOutput, CommandError> {
    detect_with(
        observations_doc,
        &DetectOptions {
            window_secs,
            ..DetectOptions::default()
        },
    )
}

/// Load a warm-start checkpoint through [`ModelPersistence::load_model`]
/// (streamed decode, fingerprint refusal, store metrics) and check that
/// it was learned over this run's window.
fn load_checkpoint(
    path: &Path,
    detector: &PassiveDetector,
    window: Interval,
) -> Result<LearnedModel, CommandError> {
    let model = detector
        .load_model(path)
        .map_err(|e| CommandError(format!("model checkpoint {}: {e}", path.display())))?;
    if model.window() != window {
        return Err(CommandError(format!(
            "checkpoint history window {} does not match the detection window {} \
             (pass --window {} to align them)",
            model.window(),
            window,
            model.window().end.secs()
        )));
    }
    Ok(model)
}

/// Encode `model` for `--model-out`, recording the bytes and the encode
/// time in the store metrics.
fn encode_recorded(detector: &PassiveDetector, model: &LearnedModel, obs: &Obs) -> Vec<u8> {
    let metrics = StoreMetrics::register(&obs.registry);
    let t = Instant::now();
    let encoded = encode_model(detector.config().fingerprint(), model);
    metrics.save_seconds.observe(t.elapsed().as_secs_f64());
    metrics.bytes_written.add(encoded.len() as u64);
    encoded
}

/// `detect` with fault injection, a feed sentinel, warm start, and/or
/// an alternate execution mode.
pub fn detect_with(
    observations_doc: &str,
    opts: &DetectOptions,
) -> Result<DetectOutput, CommandError> {
    let mut observations = format::parse_observations(observations_doc)?;
    if observations.is_empty() {
        return Err(CommandError("no observations in input".into()));
    }
    let mut fault_note = String::new();
    if let Some(plan) = &opts.fault_plan {
        let before = observations.len();
        observations = plan.apply_to_vec(&observations);
        // The batch detector wants time order; delivery-order effects
        // (reordering) only matter to the streaming path.
        observations.sort_unstable();
        if observations.is_empty() {
            return Err(CommandError("fault plan silenced every observation".into()));
        }
        fault_note = format!(
            " [faults: {} -> {} observations, {} s marked faulted]",
            before,
            observations.len(),
            plan.faulted().total()
        );
    }
    if opts.model.is_some() && opts.model_out {
        return Err(CommandError(
            "--model and --model-out are mutually exclusive: a warm-started run \
             skips learning, so there is no newly learned model to save"
                .into(),
        ));
    }
    if opts.streaming && opts.workers.is_some() {
        return Err(CommandError(
            "--streaming and --workers are mutually exclusive: the streaming \
             adapter is single-threaded by design"
                .into(),
        ));
    }
    let window = detection_window(&observations, opts.window_secs)?;
    let workers = resolve_workers(opts.workers)?;

    let obs = if opts.trace {
        Obs::with_tracing()
    } else {
        Obs::new()
    };
    let config = DetectorConfig {
        evidence: opts.evidence,
        ..DetectorConfig::default()
    };
    let detector = PassiveDetector::try_new(config)?.with_obs(obs.clone());

    if opts.streaming {
        return detect_streaming(&observations, window, opts, &obs, &detector, &fault_note);
    }

    // Both passes go through the parallel path by default: sharded
    // history learning, then the router/worker detection driver (both
    // produce results identical to the sequential pipeline). A supplied
    // checkpoint replaces the learning pass entirely (warm start).
    let mut warm_note = String::new();
    let mut model_bytes = None;
    let model = match &opts.model {
        Some(path) => {
            warm_note = " [warm start from checkpoint]".to_string();
            load_checkpoint(path, &detector, window)?
        }
        None => {
            let model = detector.learn_model(&observations, window, workers);
            if opts.model_out {
                model_bytes = Some(encode_recorded(&detector, &model, &obs));
            }
            model
        }
    };
    let report = detector.run(
        &model.into_indexed(),
        observations.iter().copied(),
        window,
        workers,
        opts.sentinel.as_ref(),
    )?;
    // Deterministic by construction: DetectionReport::events sorts at
    // assembly time.
    let events = report.events();
    let evidence_doc = render_evidence(report.evidence().into_iter(), opts.evidence);
    let evidence_note = evidence_note(&evidence_doc, report.evidence_enrolled(), opts.evidence);

    let quarantine_note = if opts.sentinel.is_some() {
        format!(
            ", {} quarantined spans totalling {} s",
            report.quarantined_spans(),
            report.quarantined_secs()
        )
    } else {
        String::new()
    };
    let d = report.diagnostics();
    let summary = format!(
        "window {}: {} observations{}{}, {} blocks covered ({} uncovered), {} outage events \
         ({} via bins, {} via exact-timestamp gaps){}{}, {} workers\n{}",
        window,
        observations.len(),
        fault_note,
        warm_note,
        report.covered_blocks(),
        report.uncovered.len(),
        events.len(),
        d.bin_detections,
        d.gap_detections,
        quarantine_note,
        evidence_note,
        workers,
        summarize(&events, 5),
    );
    Ok(DetectOutput {
        events: format::render_events(&events),
        quarantine: format::render_intervals(&report.quarantined),
        metrics: obs.registry.render_prometheus(),
        trace: obs.tracer.as_ref().map(|t| t.to_jsonl()),
        model: model_bytes,
        evidence: evidence_doc,
        summary,
    })
}

/// Render evidence records as a JSONL document, one record per line.
/// `None` when the tier is off (distinguishing "tier off" from "tier on,
/// zero events": the latter yields an empty document).
fn render_evidence<'a, I>(records: I, tier: EvidenceConfig) -> Option<String>
where
    I: Iterator<Item = &'a EventEvidence>,
{
    if tier.is_off() {
        return None;
    }
    Some(records.map(|e| format!("{}\n", e.to_json())).collect())
}

/// The summary's evidence clause: silent when the tier is off.
fn evidence_note(doc: &Option<String>, enrolled: usize, tier: EvidenceConfig) -> String {
    match doc {
        None => String::new(),
        Some(d) => format!(
            ", evidence {tier}: {} units enrolled, {} records",
            enrolled,
            d.lines().count()
        ),
    }
}

/// The streaming execution mode: warm-start a [`StreamingMonitor`]
/// whose single epoch is the whole detection window (so it is live from
/// the first observation, with units planned from the same model the
/// batch path would use) and replay the slice through it.
fn detect_streaming(
    observations: &[Observation],
    window: Interval,
    opts: &DetectOptions,
    obs: &Obs,
    detector: &PassiveDetector,
    fault_note: &str,
) -> Result<DetectOutput, CommandError> {
    let mut warm_note = String::new();
    let mut model_bytes = None;
    let model = match &opts.model {
        Some(path) => {
            let model = load_checkpoint(path, detector, window)?;
            warm_note = " [warm start from checkpoint]".to_string();
            model
        }
        None => {
            let workers = resolve_workers(None)?;
            let model = detector.learn_model(observations, window, workers);
            if opts.model_out {
                model_bytes = Some(encode_recorded(detector, &model, obs));
            }
            model
        }
    };
    let mut monitor = StreamingMonitor::from_model(
        detector.config().clone(),
        &model,
        window.start,
        window.duration(),
    )?;
    if let Some(cfg) = &opts.sentinel {
        monitor = monitor.with_sentinel(*cfg)?;
    }
    let mut monitor = monitor.with_obs(obs.clone());
    // Replay in slices so a cancellation flag (SIGINT in the binary)
    // is noticed promptly; an interrupted run drains at the last
    // replayed instant and still emits its partial document.
    let mut replayed = 0usize;
    let mut interrupted = false;
    for chunk in observations.chunks(4_096) {
        if let Some(flag) = opts.cancel {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                interrupted = true;
                break;
            }
        }
        monitor.observe_all(chunk.iter().copied());
        replayed += chunk.len();
    }
    let covered = monitor.covered_blocks();
    let enrolled = monitor.evidence_enrolled();
    let drain_end = if interrupted {
        replayed
            .checked_sub(1)
            .and_then(|i| observations.get(i))
            .map(|o| o.time)
            .unwrap_or(window.start)
    } else {
        window.end
    };
    let (events, quarantined, evidence) = monitor.finish_with_evidence(drain_end);
    let evidence_doc = render_evidence(evidence.iter(), opts.evidence);
    let ev_note = evidence_note(&evidence_doc, enrolled, opts.evidence);

    let quarantine_note = if opts.sentinel.is_some() {
        format!(
            ", {} quarantined spans totalling {} s",
            quarantined.intervals().len(),
            quarantined.total()
        )
    } else {
        String::new()
    };
    let interrupt_note = if interrupted {
        format!(
            " [interrupted: drained after {replayed} of {} observations, results partial to t={}]",
            observations.len(),
            drain_end.secs()
        )
    } else {
        String::new()
    };
    let summary = format!(
        "window {}: {} observations{}{}{}, {} blocks covered, {} outage events{}{}, streaming\n{}",
        window,
        replayed,
        fault_note,
        warm_note,
        interrupt_note,
        covered,
        events.len(),
        quarantine_note,
        ev_note,
        summarize(&events, 5),
    );
    Ok(DetectOutput {
        events: format::render_events(&events),
        quarantine: format::render_intervals(&quarantined),
        metrics: obs.registry.render_prometheus(),
        trace: obs.tracer.as_ref().map(|t| t.to_jsonl()),
        model: model_bytes,
        evidence: evidence_doc,
        summary,
    })
}
