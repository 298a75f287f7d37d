//! `federate`: shard the block universe across N vantages, run one
//! isolated engine (and optional sentinel) per vantage, and fuse the
//! per-vantage verdicts into a single global event timeline.

use super::{detection_window, CommandError};
use crate::format;
use outage_core::{
    fuse_models, DetectorConfig, FederationRouter, FusionPolicy, SentinelConfig, VantagePlan,
    VantageReport, VantageRunner,
};
use outage_netsim::FaultPlan;
use outage_obs::Registry;
use outage_store::{encode_checkpoint, Checkpoint};
use outage_types::Observation;

/// Knobs for [`federate`].
#[derive(Debug, Clone)]
pub struct FederateOptions {
    /// Explicit window end (seconds); defaults to the last observation
    /// rounded up to a whole day.
    pub window_secs: Option<u64>,
    /// Number of vantages to shard across.
    pub vantages: usize,
    /// Fraction of partition keys corroborated by a second vantage.
    pub overlap: f64,
    /// How multi-vantage verdicts fuse (`union` or `quorum:K`).
    pub fusion: FusionPolicy,
    /// Guard every vantage's detection pass with a feed sentinel.
    pub sentinel: Option<SentinelConfig>,
    /// Sensor faults to inject before detection.
    pub fault_plan: Option<FaultPlan>,
    /// Restrict the fault plan to one vantage's feed (`None` faults
    /// every feed — a global sensor incident).
    pub fault_vantage: Option<usize>,
    /// Fuse the per-vantage learned models into one canonical global
    /// checkpoint ([`FederateOutput::model`]).
    pub model_out: bool,
}

impl Default for FederateOptions {
    fn default() -> FederateOptions {
        FederateOptions {
            window_secs: None,
            vantages: 3,
            overlap: 0.0,
            fusion: FusionPolicy::Union,
            sentinel: None,
            fault_plan: None,
            fault_vantage: None,
            model_out: false,
        }
    }
}

/// Output of [`federate`].
#[derive(Debug)]
pub struct FederateOutput {
    /// The fused global event document (same format as `detect`).
    pub events: String,
    /// Per-event vantage attribution, one line per fused event.
    pub attribution: String,
    /// Prometheus snapshot of the `po_federation_*` families.
    pub metrics: String,
    /// Encoded checkpoint of the fused global model (only with
    /// [`FederateOptions::model_out`]).
    pub model: Option<Vec<u8>>,
    /// Human summary: one line per vantage plus the fused shape.
    pub summary: String,
}

/// `federate`: run a multi-vantage detection over one observation
/// document and fuse the result.
pub fn federate(
    observations_doc: &str,
    opts: &FederateOptions,
) -> Result<FederateOutput, CommandError> {
    let observations = format::parse_observations(observations_doc)?;
    if observations.is_empty() {
        return Err(CommandError("no observations in input".into()));
    }
    if opts.fault_vantage.is_some() && opts.fault_plan.is_none() {
        return Err(CommandError(
            "--fault-vantage without --fault-plan: there is no fault to scope".into(),
        ));
    }
    if let Some(v) = opts.fault_vantage {
        if v >= opts.vantages {
            return Err(CommandError(format!(
                "--fault-vantage {v} out of range: the plan has {} vantages (0..{})",
                opts.vantages,
                opts.vantages - 1
            )));
        }
    }
    let window = detection_window(&observations, opts.window_secs)?;
    let plan = VantagePlan::new(opts.vantages)?.with_overlap(opts.overlap)?;
    let shards = plan.split(&observations);

    let mut reports: Vec<VantageReport> = Vec::with_capacity(opts.vantages);
    let mut models = Vec::new();
    let mut faulted_note = String::new();
    for (v, shard) in shards.iter().enumerate() {
        let faulted;
        let ingest: &[Observation] = match &opts.fault_plan {
            Some(fault) if opts.fault_vantage.is_none() || opts.fault_vantage == Some(v) => {
                let mut applied = fault.apply_to_vec(shard);
                applied.sort_unstable();
                faulted_note = format!(
                    " [faults on {}: {} s marked faulted]",
                    match opts.fault_vantage {
                        Some(v) => format!("vantage {v}"),
                        None => "every vantage".to_string(),
                    },
                    fault.faulted().total()
                );
                faulted = applied;
                &faulted
            }
            _ => shard,
        };
        let mut runner = VantageRunner::new(v, DetectorConfig::default())?;
        if let Some(cfg) = opts.sentinel {
            runner = runner.with_sentinel(cfg);
        }
        let model = runner.learn(ingest, window, 1);
        reports.push(runner.run_with_model(&model, ingest, window)?);
        if opts.model_out {
            models.push(model);
        }
    }

    let fused = FederationRouter::new(opts.fusion).assemble(&reports)?;
    let registry = Registry::new();
    fused.export_metrics(&registry);

    let model = if opts.model_out {
        let global = fuse_models(&models)?;
        Some(encode_checkpoint(&Checkpoint {
            fingerprint: DetectorConfig::default().fingerprint(),
            model: global,
        }))
    } else {
        None
    };

    let attribution: String = fused
        .events
        .iter()
        .map(|g| {
            let vantages: Vec<String> = g.vantages.iter().map(usize::to_string).collect();
            format!(
                "{} [{}, {}) vantages {} of {}\n",
                g.event.prefix,
                g.event.interval.start.secs(),
                g.event.interval.end.secs(),
                vantages.join(","),
                g.sources
            )
        })
        .collect();

    let mut summary = format!(
        "federation over {}: {} observations, {}, fusion {}{}\n",
        window,
        observations.len(),
        plan,
        opts.fusion,
        faulted_note
    );
    for v in &fused.vantages {
        let health = match v.feed_health {
            Some(h) => h.as_str(),
            None => "n/a",
        };
        summary.push_str(&format!(
            "  vantage {}: {} units over {} blocks, {} events, {} strays, sentinel {}, \
             quarantined {} span(s) / {} s\n",
            v.vantage,
            v.units,
            v.covered_blocks,
            v.events,
            v.strays,
            health,
            v.quarantined_spans,
            v.quarantined_secs
        ));
    }
    summary.push_str(&format!(
        "  fused: {} events, {} multi-vantage unit(s)\n",
        fused.events.len(),
        fused.fused_units
    ));

    Ok(FederateOutput {
        events: format::render_events(&fused.outage_events()),
        attribution,
        metrics: registry.render_prometheus(),
        model,
        summary,
    })
}
