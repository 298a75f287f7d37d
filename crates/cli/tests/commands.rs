//! End-to-end tests of the pure command layer: every command's text
//! pipeline, exercised exactly as the binary would. The filesystem is
//! touched only for warm-start checkpoints, which `detect` loads from a
//! path.
//!
//! These lived inline in `crates/cli/src/cmd/mod.rs`; they moved here so
//! the command modules themselves stay free of `unwrap`/`expect` call
//! sites (a repo invariant checked by grep in review).

use outage_cli::commands::*;
use outage_cli::format;

use outage_core::{EvidenceConfig, SentinelConfig};
use outage_netsim::FaultPlan;
use outage_obs::parse_prometheus;
use outage_types::{Interval, IntervalSet};
use std::path::PathBuf;

/// A checkpoint written to a per-test temp file for
/// `DetectOptions::model`, removed again when the test drops it.
struct ModelFile(PathBuf);

impl ModelFile {
    fn new(tag: &str, bytes: &[u8]) -> ModelFile {
        let name = format!("outage-cli-commands-{}-{tag}.poms", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, bytes).unwrap();
        ModelFile(path)
    }
}

impl Drop for ModelFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn simulate_then_detect_then_eval_pipeline() {
    let sim = simulate("quick", 40, 5).unwrap();
    assert!(sim.summary.contains("observations"));
    let det = detect(&sim.observations, Some(86_400)).unwrap();
    assert!(det.summary.contains("blocks covered"));
    // Duration-mode eval against ground truth: precision should be
    // very high end to end through the text formats.
    let table = eval(
        &det.events,
        &sim.truth,
        86_400,
        0,
        false,
        0,
        &IntervalSet::new(),
    )
    .unwrap();
    assert!(table.contains("Precision"), "{table}");
    // extract precision value from the rendering
    let line = table
        .lines()
        .find(|l| l.contains("Precision"))
        .unwrap()
        .to_string();
    let value: f64 = line
        .split("Precision")
        .nth(1)
        .unwrap()
        .trim()
        .trim_end_matches(['|', ' '])
        .trim()
        .parse()
        .unwrap();
    assert!(value > 0.98, "precision {value} via CLI pipeline");
}

#[test]
fn detect_window_validation() {
    let sim = simulate("quick", 40, 6).unwrap();
    assert!(detect(&sim.observations, Some(10)).is_err());
    assert!(detect("# empty\n", None).is_err());
}

#[test]
fn unknown_preset_rejected() {
    assert!(build_preset("nope", 10, 1).is_err());
    assert!(simulate("nope", 10, 1).is_err());
}

#[test]
fn coverage_prints_monotone_curve() {
    let sim = simulate("quick", 40, 7).unwrap();
    let table = coverage(&sim.observations).unwrap();
    let fractions: Vec<f64> = table
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
        .collect();
    assert!(fractions.len() >= 3);
    for w in fractions.windows(2) {
        assert!(w[0] <= w[1] + 1e-9);
    }
}

#[test]
fn eval_event_mode_runs() {
    let sim = simulate("table3", 30, 8).unwrap();
    let det = detect(&sim.observations, Some(86_400)).unwrap();
    let table = eval(
        &det.events,
        &sim.truth,
        86_400,
        300,
        true,
        180,
        &IntervalSet::new(),
    )
    .unwrap();
    assert!(table.contains("event"), "{table}");
    assert!(table.contains("TNR"));
}

/// A steady synthetic feed: four /24s, one query each every 10 s,
/// for two days. Aggregate rate is far above the sentinel floor.
fn steady_feed_doc() -> String {
    let mut doc = String::from("# synthetic\n");
    for t in (0..2 * 86_400).step_by(10) {
        for b in 0..4 {
            doc.push_str(&format!("{t} 10.0.{b}.0/24\n"));
        }
    }
    doc
}

#[test]
fn fault_plan_and_sentinel_flow_through_detect() {
    let doc = steady_feed_doc();
    let blackout = Interval::from_secs(120_000, 121_800);
    let plan = FaultPlan::new(7).blackout(blackout);

    // Sentinel off: the blackout reads as a mass outage.
    let off = detect_with(
        &doc,
        &DetectOptions {
            fault_plan: Some(plan.clone()),
            ..DetectOptions::default()
        },
    )
    .unwrap();
    let off_events = format::parse_events(&off.events).unwrap();
    assert!(
        off_events.iter().any(|e| e.interval.overlaps(&blackout)),
        "expected false outages without the sentinel"
    );

    // Sentinel on: the span is quarantined instead.
    let on = detect_with(
        &doc,
        &DetectOptions {
            fault_plan: Some(plan),
            sentinel: Some(SentinelConfig::default()),
            ..DetectOptions::default()
        },
    )
    .unwrap();
    assert!(on.summary.contains("quarantined"), "{}", on.summary);
    let on_events = format::parse_events(&on.events).unwrap();
    assert!(
        !on_events.iter().any(|e| e.interval.overlaps(&blackout)),
        "sentinel should suppress verdicts inside the blackout"
    );
    let quarantined = format::parse_intervals(&on.quarantine).unwrap();
    assert!(quarantined.total() >= blackout.duration());
    assert!(quarantined.iter().any(|iv| iv.overlaps(&blackout)));

    // The quarantine document round-trips into eval's exclusion.
    let truth = "# none\n";
    let table = eval(&on.events, truth, 2 * 86_400, 0, false, 0, &quarantined).unwrap();
    assert!(table.contains("excluded"), "{table}");
}

#[test]
fn worker_count_does_not_change_the_verdicts() {
    let doc = steady_feed_doc();
    let blackout = Interval::from_secs(120_000, 121_800);
    let run = |workers| {
        detect_with(
            &doc,
            &DetectOptions {
                fault_plan: Some(FaultPlan::new(7).blackout(blackout)),
                sentinel: Some(SentinelConfig::default()),
                workers: Some(workers),
                ..DetectOptions::default()
            },
        )
        .unwrap()
    };
    let one = run(1);
    assert!(one.summary.contains("1 workers"), "{}", one.summary);
    for workers in [2, 4] {
        let n = run(workers);
        assert_eq!(n.events, one.events, "{workers} workers");
        assert_eq!(n.quarantine, one.quarantine, "{workers} workers");
    }
    assert!(detect_with(
        &doc,
        &DetectOptions {
            workers: Some(0),
            ..DetectOptions::default()
        },
    )
    .is_err());
}

#[test]
fn streaming_mode_matches_batch_verdicts() {
    // The streaming adapter replays the slice through the same
    // engine the batch path uses: identical events and quarantine,
    // faults and all.
    let doc = steady_feed_doc();
    let blackout = Interval::from_secs(120_000, 121_800);
    let opts = |streaming| DetectOptions {
        fault_plan: Some(FaultPlan::new(7).blackout(blackout)),
        sentinel: Some(SentinelConfig::default()),
        streaming,
        ..DetectOptions::default()
    };
    let batch = detect_with(&doc, &opts(false)).unwrap();
    let streamed = detect_with(&doc, &opts(true)).unwrap();
    assert_eq!(streamed.events, batch.events);
    assert_eq!(streamed.quarantine, batch.quarantine);
    assert!(
        streamed.summary.contains("streaming"),
        "{}",
        streamed.summary
    );
}

#[test]
fn streaming_and_workers_are_mutually_exclusive() {
    let doc = steady_feed_doc();
    let err = detect_with(
        &doc,
        &DetectOptions {
            streaming: true,
            workers: Some(2),
            ..DetectOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("mutually exclusive"), "{err}");
}

#[test]
fn detect_emits_metrics_and_trace_and_status_renders_them() {
    let doc = steady_feed_doc();
    let blackout = Interval::from_secs(120_000, 121_800);
    let out = detect_with(
        &doc,
        &DetectOptions {
            fault_plan: Some(FaultPlan::new(7).blackout(blackout)),
            sentinel: Some(SentinelConfig::default()),
            workers: Some(2),
            trace: true,
            ..DetectOptions::default()
        },
    )
    .unwrap();

    // The snapshot parses and carries the headline instrument families.
    let snap = parse_prometheus(&out.metrics).unwrap();
    assert!(
        snap.sum("po_detect_arrivals_total") > 0.0,
        "{}",
        out.metrics
    );
    assert!(
        snap.sum("po_sentinel_transitions_total") > 0.0,
        "a blackout must drive at least one state transition"
    );
    assert!(
        snap.value("po_quarantine_intervals_total", &[]).unwrap() >= 1.0,
        "{}",
        out.metrics
    );
    assert!(snap.value("po_quarantine_seconds_total", &[]).unwrap() >= blackout.duration() as f64);
    assert_eq!(
        snap.type_of("po_quarantine_duration_seconds"),
        Some("histogram")
    );
    assert!(snap.sum("po_worker_busy_seconds_total") > 0.0);
    assert!(
        snap.value("po_stage_seconds_count", &[("stage", "learn")])
            .unwrap()
            >= 1.0
    );

    // Trace was requested: spans for every pipeline stage.
    let trace = out.trace.unwrap();
    for name in [
        "\"learn\"",
        "\"learn.shard\"",
        "\"plan\"",
        "\"detect.parallel\"",
    ] {
        assert!(trace.contains(name), "missing span {name} in:\n{trace}");
    }

    // And the status command renders a summary off the same snapshot.
    let rendered = status(&out.metrics).unwrap();
    assert!(rendered.contains("feed sentinel"), "{rendered}");
    assert!(rendered.contains("quarantine"), "{rendered}");
    assert!(rendered.contains("detection"), "{rendered}");
    assert!(rendered.contains("worker 0"), "{rendered}");
    assert!(rendered.contains("dark"), "{rendered}");
}

#[test]
fn status_rejects_garbage_and_empty_snapshots() {
    assert!(status("not prometheus {{{").is_err());
    let err = status("other_metric 1\n").unwrap_err();
    assert!(err.to_string().contains("no passive-outage"), "{err}");
}

#[test]
fn status_renders_evidence_section_or_tier_off_hint() {
    let doc = steady_feed_doc();

    // Tier off (the default): the snapshot carries no po_evidence_*
    // families, and status says so instead of a silently missing section.
    let off = detect_with(&doc, &DetectOptions::default()).unwrap();
    assert!(!off.metrics.contains("po_evidence_"), "{}", off.metrics);
    let rendered = status(&off.metrics).unwrap();
    assert!(rendered.contains("evidence"), "{rendered}");
    assert!(rendered.contains("off (no po_evidence_*"), "{rendered}");

    // Full tier: the families exist and the section is concrete.
    let full = detect_with(
        &doc,
        &DetectOptions {
            evidence: EvidenceConfig::Full,
            ..DetectOptions::default()
        },
    )
    .unwrap();
    assert!(
        full.metrics.contains("po_evidence_units_enrolled"),
        "{}",
        full.metrics
    );
    let rendered = status(&full.metrics).unwrap();
    assert!(rendered.contains("units enrolled"), "{rendered}");
    assert!(!rendered.contains("off (no po_evidence_*"), "{rendered}");

    // The explain pipeline closes the loop end to end: a feed with a
    // real outage hole yields an evidence record that is explainable by
    // id, and --json round-trips the record line byte for byte.
    let mut holed = String::from("# synthetic\n");
    for t in (0..2 * 86_400).step_by(10) {
        for b in 0..4 {
            if b == 0 && (30_000..37_200).contains(&t) {
                continue;
            }
            holed.push_str(&format!("{t} 10.0.{b}.0/24\n"));
        }
    }
    let full = detect_with(
        &holed,
        &DetectOptions {
            evidence: EvidenceConfig::Full,
            ..DetectOptions::default()
        },
    )
    .unwrap();
    let evidence_doc = full.evidence.as_deref().unwrap();
    let first_line = evidence_doc.lines().next().unwrap();
    let id = outage_obs::Value::parse(first_line)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let pretty = explain(evidence_doc, &id, false).unwrap();
    assert!(pretty.contains(&id), "{pretty}");
    let json = explain(evidence_doc, &id, true).unwrap();
    assert_eq!(json.trim_end(), first_line);
}

#[test]
fn invalid_sentinel_config_is_a_command_error() {
    let doc = steady_feed_doc();
    let bad = SentinelConfig {
        bucket_secs: 0,
        ..SentinelConfig::default()
    };
    let err = detect_with(
        &doc,
        &DetectOptions {
            sentinel: Some(bad),
            ..DetectOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("invalid detector configuration"),
        "{err}"
    );
}

#[test]
fn telescope_reports_intake_breakdown() {
    let clean = telescope("quick", 20, 3, 0.0).unwrap();
    assert!(clean.contains("dropped 0"), "{clean}");
    let dirty = telescope("quick", 20, 3, 0.4).unwrap();
    assert!(dirty.contains("malformed"), "{dirty}");
    let malformed: u64 = dirty
        .split("malformed ")
        .nth(1)
        .unwrap()
        .trim_start()
        .split([',', ')'])
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        malformed > 0,
        "corruption should damage some payloads: {dirty}"
    );
    assert!(telescope("quick", 20, 3, 1.5).is_err());
    assert!(telescope("nope", 20, 3, 0.0).is_err());
}

#[test]
fn eval_handles_one_sided_prefixes() {
    // truth has an outage on a prefix the observer never mentions
    let truth = "# ev\n10.0.0.0/24 100 800 1.000 ground-truth\n";
    let observed = "# ev\n10.0.1.0/24 100 800 0.900 passive-bayes\n";
    let table = eval(observed, truth, 86_400, 0, false, 0, &IntervalSet::new()).unwrap();
    // the missed outage is false availability, the invented one false
    // outage; both prefixes accounted for the full window
    assert!(table.contains("fa = 700"), "{table}");
    assert!(table.contains("fo = 700"), "{table}");
}

#[test]
fn learn_then_warm_detect_matches_cold_detect() {
    let sim = simulate("quick", 40, 21).unwrap();
    let cold = detect(&sim.observations, Some(86_400)).unwrap();

    let learned = learn(&sim.observations, Some(86_400), Some(1)).unwrap();
    assert!(
        learned.summary.contains("fingerprint"),
        "{}",
        learned.summary
    );

    let model = ModelFile::new("warm", &learned.model);
    let warm = detect_with(
        &sim.observations,
        &DetectOptions {
            window_secs: Some(86_400),
            model: Some(model.0.clone()),
            ..DetectOptions::default()
        },
    )
    .unwrap();
    assert_eq!(warm.events, cold.events, "warm start changed the verdicts");
    assert_eq!(warm.quarantine, cold.quarantine);
    assert!(warm.summary.contains("warm start"), "{}", warm.summary);
    assert!(!cold.summary.contains("warm start"));
    // The warm run's snapshot must record the store traffic.
    let snap = parse_prometheus(&warm.metrics).unwrap();
    assert_eq!(
        snap.value("po_store_warm_start_hits_total", &[]).unwrap(),
        1.0
    );
    assert_eq!(
        snap.value("po_store_bytes_read_total", &[]).unwrap(),
        learned.model.len() as f64
    );
    // The load's codec time is live telemetry, and `status` renders it.
    assert_eq!(snap.value("po_store_load_seconds_count", &[]), Some(1.0));
    let rendered = status(&warm.metrics).unwrap();
    assert!(rendered.contains("model store"), "{rendered}");
    assert!(rendered.contains("warm starts     1"), "{rendered}");
    assert!(rendered.contains("load            "), "{rendered}");
}

#[test]
fn warm_start_works_in_every_execution_mode() {
    // The PR 4 gap: --model used to exist only on the batch path.
    // Now the same checkpoint must drive identical verdicts under
    // explicit worker counts AND streaming mode.
    let sim = simulate("quick", 40, 26).unwrap();
    let cold = detect(&sim.observations, Some(86_400)).unwrap();
    let learned = learn(&sim.observations, Some(86_400), Some(1)).unwrap();
    let model = ModelFile::new("every-mode", &learned.model);
    let warm = |streaming, workers| {
        detect_with(
            &sim.observations,
            &DetectOptions {
                window_secs: Some(86_400),
                model: Some(model.0.clone()),
                streaming,
                workers,
                ..DetectOptions::default()
            },
        )
        .unwrap()
    };
    for workers in [1, 4] {
        let out = warm(false, Some(workers));
        assert_eq!(out.events, cold.events, "{workers} workers");
        assert!(out.summary.contains("warm start"), "{}", out.summary);
    }
    let streamed = warm(true, None);
    assert_eq!(streamed.events, cold.events, "streaming warm start");
    assert!(
        streamed.summary.contains("warm start"),
        "{}",
        streamed.summary
    );
}

#[test]
fn detect_model_out_emits_a_loadable_checkpoint() {
    let sim = simulate("quick", 40, 22).unwrap();
    let out = detect_with(
        &sim.observations,
        &DetectOptions {
            window_secs: Some(86_400),
            model_out: true,
            ..DetectOptions::default()
        },
    )
    .unwrap();
    let bytes = out.model.expect("model_out must populate the checkpoint");
    assert!(model_verify(&bytes).unwrap().starts_with("ok: "));
    // It matches what `learn` would have produced byte for byte.
    let learned = learn(&sim.observations, Some(86_400), Some(1)).unwrap();
    assert_eq!(bytes, learned.model);
    let snap = parse_prometheus(&out.metrics).unwrap();
    assert_eq!(
        snap.value("po_store_bytes_written_total", &[]).unwrap(),
        bytes.len() as f64
    );
    assert_eq!(snap.value("po_store_save_seconds_count", &[]), Some(1.0));
    let rendered = status(&out.metrics).unwrap();
    assert!(rendered.contains("save            "), "{rendered}");
}

#[test]
fn model_and_model_out_are_mutually_exclusive() {
    let sim = simulate("quick", 40, 23).unwrap();
    let learned = learn(&sim.observations, Some(86_400), Some(1)).unwrap();
    let model = ModelFile::new("exclusive", &learned.model);
    let err = detect_with(
        &sim.observations,
        &DetectOptions {
            window_secs: Some(86_400),
            model: Some(model.0.clone()),
            model_out: true,
            ..DetectOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("mutually exclusive"), "{err}");
}

#[test]
fn warm_detect_rejects_mismatched_window_with_a_hint() {
    let sim = simulate("quick", 40, 24).unwrap();
    let learned = learn(&sim.observations, Some(86_400), Some(1)).unwrap();
    let model = ModelFile::new("window", &learned.model);
    let err = detect_with(
        &sim.observations,
        &DetectOptions {
            window_secs: Some(2 * 86_400),
            model: Some(model.0.clone()),
            ..DetectOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("--window"), "{err}");
}

#[test]
fn model_inspect_and_corrupt_checkpoints() {
    let sim = simulate("quick", 40, 25).unwrap();
    let learned = learn(&sim.observations, Some(86_400), Some(1)).unwrap();
    let report = model_inspect(&learned.model).unwrap();
    assert!(report.contains("fingerprint"), "{report}");
    assert!(report.contains("IPv4"), "{report}");

    // A flipped byte must surface as a typed checkpoint error, for
    // inspect, verify, and warm-start detect alike.
    let mut bad = learned.model.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(model_inspect(&bad).is_err());
    let err = model_verify(&bad).unwrap_err();
    assert!(err.to_string().contains("model checkpoint"), "{err}");
    let model = ModelFile::new("corrupt", &bad);
    let err = detect_with(
        &sim.observations,
        &DetectOptions {
            window_secs: Some(86_400),
            model: Some(model.0.clone()),
            ..DetectOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("model checkpoint"), "{err}");
}

#[test]
fn model_merge_of_split_feeds_matches_whole_feed_learning() {
    // CLI windows always start at the epoch, so the CLI-reachable
    // merge case is identical windows: two halves of one feed, each
    // learned over the full window, merge by count addition into
    // exactly the checkpoint one-pass learning would produce.
    let doc = steady_feed_doc(); // two days of steady traffic
    let split = |keep: fn(u64) -> bool| -> String {
        doc.lines()
            .filter(|l| {
                l.starts_with('#')
                    || l.split_once(' ')
                        .is_some_and(|(t, _)| keep(t.parse::<u64>().unwrap()))
            })
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let day1 = split(|t| t < 86_400);
    let day2 = split(|t| t >= 86_400);
    let window = Some(2 * 86_400);

    let a = learn(&day1, window, Some(1)).unwrap();
    let b = learn(&day2, window, Some(1)).unwrap();
    let (merged, summary) = model_merge(&a.model, &b.model).unwrap();
    assert!(summary.contains("merged"), "{summary}");
    assert!(model_verify(&merged).unwrap().starts_with("ok: "));

    let whole = learn(&doc, window, Some(1)).unwrap();
    assert_eq!(merged, whole.model, "merge must equal one-pass learning");
}

#[test]
fn federate_union_matches_single_vantage_detect() {
    let sim = simulate("quick", 40, 31).unwrap();
    let solo = detect(&sim.observations, Some(86_400)).unwrap();
    let fed = federate(
        &sim.observations,
        &FederateOptions {
            window_secs: Some(86_400),
            vantages: 3,
            ..FederateOptions::default()
        },
    )
    .unwrap();
    assert!(
        !fed.events.trim().is_empty(),
        "scenario must produce events"
    );
    assert_eq!(
        fed.events, solo.events,
        "3-vantage union federation must emit the single-vantage event document"
    );
    // One attribution line per fused event, each naming its vantage.
    let event_lines = fed.events.lines().filter(|l| !l.starts_with('#')).count();
    let attr_lines = fed.attribution.lines().count();
    assert_eq!(event_lines, attr_lines, "{}", fed.attribution);
    assert!(fed.attribution.lines().all(|l| l.contains("vantages")));
    // The federation metric families are exported.
    let snap = parse_prometheus(&fed.metrics).unwrap();
    assert_eq!(snap.value("po_federation_vantages", &[]).unwrap(), 3.0);
    for v in ["0", "1", "2"] {
        let covered = snap
            .value("po_federation_covered_blocks", &[("vantage", v)])
            .unwrap();
        assert!(covered > 0.0, "vantage {v} covered nothing");
    }
    assert!(fed.summary.contains("fusion union"), "{}", fed.summary);
    assert!(fed.summary.contains("vantage 2:"), "{}", fed.summary);
}

#[test]
fn federate_scopes_faults_to_one_vantage() {
    let sim = simulate("quick", 40, 32).unwrap();
    let fault = FaultPlan::new(9).blackout(Interval::from_secs(30_000, 37_200));
    let fed = federate(
        &sim.observations,
        &FederateOptions {
            window_secs: Some(86_400),
            vantages: 3,
            sentinel: Some(SentinelConfig::default()),
            fault_plan: Some(fault.clone()),
            fault_vantage: Some(1),
            ..FederateOptions::default()
        },
    )
    .unwrap();
    let snap = parse_prometheus(&fed.metrics).unwrap();
    let quarantined = |v: &str| {
        snap.value("po_federation_quarantine_seconds_total", &[("vantage", v)])
            .unwrap_or(0.0)
    };
    assert!(
        quarantined("1") > 0.0,
        "the faulted vantage must quarantine:\n{}",
        fed.metrics
    );
    assert_eq!(quarantined("0"), 0.0, "fault leaked to vantage 0");
    assert_eq!(quarantined("2"), 0.0, "fault leaked to vantage 2");
    assert!(
        fed.summary.contains("faults on vantage 1"),
        "{}",
        fed.summary
    );

    // Scoping flags are validated.
    let err = federate(
        &sim.observations,
        &FederateOptions {
            window_secs: Some(86_400),
            vantages: 3,
            fault_vantage: Some(1),
            ..FederateOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("--fault-plan"), "{err}");
    let err = federate(
        &sim.observations,
        &FederateOptions {
            window_secs: Some(86_400),
            vantages: 3,
            fault_plan: Some(fault),
            fault_vantage: Some(7),
            ..FederateOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn federate_model_out_warm_starts_detect() {
    let sim = simulate("quick", 40, 33).unwrap();
    let fed = federate(
        &sim.observations,
        &FederateOptions {
            window_secs: Some(86_400),
            vantages: 3,
            model_out: true,
            ..FederateOptions::default()
        },
    )
    .unwrap();
    let bytes = fed.model.expect("model_out must populate the checkpoint");
    assert!(model_verify(&bytes).unwrap().starts_with("ok: "));
    // The fused global model warm-starts a single-vantage detect and
    // reproduces the cold run: fusion loses nothing.
    let cold = detect(&sim.observations, Some(86_400)).unwrap();
    let model = ModelFile::new("fused", &bytes);
    let warm = detect_with(
        &sim.observations,
        &DetectOptions {
            window_secs: Some(86_400),
            model: Some(model.0.clone()),
            ..DetectOptions::default()
        },
    )
    .unwrap();
    assert_eq!(warm.events, cold.events);
}

#[test]
fn status_renders_federation_table_or_single_vantage_hint() {
    let sim = simulate("quick", 40, 34).unwrap();
    let fed = federate(
        &sim.observations,
        &FederateOptions {
            window_secs: Some(86_400),
            vantages: 3,
            sentinel: Some(SentinelConfig::default()),
            ..FederateOptions::default()
        },
    )
    .unwrap();
    let rendered = status(&fed.metrics).unwrap();
    assert!(rendered.contains("federation\n"), "{rendered}");
    assert!(rendered.contains("vantage  health"), "{rendered}");
    for v in ["0", "1", "2"] {
        assert!(
            rendered.lines().any(|l| l.trim_start().starts_with(v)),
            "missing row for vantage {v}:\n{rendered}"
        );
    }

    // A single-vantage snapshot gets the explicit hint, not silence.
    let solo = detect(&sim.observations, Some(86_400)).unwrap();
    let rendered = status(&solo.metrics).unwrap();
    assert!(
        rendered.contains("no po_federation_* families"),
        "{rendered}"
    );
}
