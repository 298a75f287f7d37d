//! Ingest-throughput benchmark: observations/second for both pipeline
//! passes, sequential and parallel, on a fixed-seed scenario.
//!
//! This is the perf trajectory every PR is judged against: the numbers
//! land in `BENCH_throughput.json` at the repo root, regenerated by
//! `repro throughput` (and in CI smoke mode on every PR). The workload
//! is deterministic — same scenario, same seed — so runs are comparable
//! across commits on the same hardware; `available_parallelism` is
//! recorded so parallel scaling numbers are read in context (a 1-core
//! container cannot show a speedup, only the absence of a regression).

use crate::experiments::Scale;
use outage_core::{
    detect_parallel, DetectorConfig, EvidenceConfig, FederationRouter, FusionPolicy,
    PassiveDetector, StreamingMonitor, VantagePlan, VantageReport, VantageRunner,
};
use outage_netsim::Scenario;
use outage_obs::{Obs, Sample};
use outage_types::{Interval, Observation, OutageEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which scenario the throughput benchmark runs over.
///
/// `Table1` is the historical workload (small, dense, one day) kept for
/// trend continuity; `PaperScale` is the benchmark of record — ≥ 500k
/// blocks with heavy-tailed density over two days at its default size,
/// the shape the paper's B-root deployment actually processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchPreset {
    /// The legacy table1 scenario (dense one-day world).
    Table1,
    /// The paper-scale scenario (sparse multi-day world).
    PaperScale,
}

impl BenchPreset {
    /// The preset's name as it appears in JSON and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            BenchPreset::Table1 => "table1",
            BenchPreset::PaperScale => "paper-scale",
        }
    }

    /// Parse a CLI preset name.
    pub fn parse(s: &str) -> Option<BenchPreset> {
        match s {
            "table1" => Some(BenchPreset::Table1),
            "paper-scale" => Some(BenchPreset::PaperScale),
            _ => None,
        }
    }

    /// Default AS count for a full (non-smoke) run: table1 keeps the
    /// 40-AS world every prior `BENCH_throughput.json` measured, so the
    /// trend series stays comparable; paper-scale sizes to ≥ 500k
    /// blocks.
    pub fn full_num_as(self) -> u32 {
        match self {
            BenchPreset::Table1 => 40,
            BenchPreset::PaperScale => 60_000,
        }
    }

    /// AS count for CI smoke runs: small enough for a PR-gating job,
    /// large enough that paper-scale smoke still has ~50k blocks of
    /// the same heavy-tailed shape.
    pub fn smoke_num_as(self) -> u32 {
        match self {
            BenchPreset::Table1 => Scale::small().num_as,
            BenchPreset::PaperScale => 5_800,
        }
    }

    fn scenario(self, scale: Scale) -> Scenario {
        match self {
            BenchPreset::Table1 => Scenario::table1(scale.num_as, scale.seed),
            BenchPreset::PaperScale => Scenario::paper_scale(scale.num_as, scale.seed),
        }
    }
}

/// Peak resident set size of this process in bytes (`VmHWM`), or 0
/// where /proc is unavailable. The high-water mark is process-wide and
/// monotonic, so when several sections run in one process the largest
/// workload should run last for its reading to be meaningful.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Timing of one pass at one worker count.
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    /// Worker threads used (1 = the parallel driver on one thread).
    pub workers: usize,
    /// Best wall-clock seconds across iterations.
    pub secs: f64,
    /// Observations processed per second at that best time.
    pub obs_per_sec: f64,
}

/// Cold-vs-warm pipeline timing through the model store: how much of
/// the end-to-end detect time a checkpoint saves, and what the
/// round trip itself costs.
#[derive(Debug, Clone, Copy)]
pub struct ModelStoreTiming {
    /// Checkpoint size on disk in bytes.
    pub bytes: usize,
    /// Encode + atomic publish (write-temp, fsync, rename) seconds.
    pub save_secs: f64,
    /// Read + decode + full-validation seconds.
    pub load_secs: f64,
    /// Cold pipeline: learn from observations, then detect.
    pub cold_secs: f64,
    /// Warm pipeline: load the checkpoint, then detect.
    pub warm_secs: f64,
}

impl ModelStoreTiming {
    /// Cold / warm end-to-end ratio (how much warm start buys).
    pub fn warm_speedup(&self) -> f64 {
        self.cold_secs / self.warm_secs.max(1e-9)
    }
}

/// Full benchmark result for one preset: structured numbers, a rendered
/// table, and the JSON *section* combined into `BENCH_throughput.json`
/// by [`throughput_document`].
#[derive(Debug)]
pub struct ThroughputResult {
    /// The preset this section ran.
    pub preset: BenchPreset,
    /// Scenario observations routed per pass.
    pub observations: usize,
    /// Distinct blocks in the scenario feed.
    pub blocks: usize,
    /// `std::thread::available_parallelism()` on the machine that ran
    /// the benchmark — the context for every parallel number below.
    pub available_parallelism: usize,
    /// The worker counts the parallel passes were *requested* at. When
    /// `max(requested) > available_parallelism` the run is
    /// oversubscribed and speedups are meaningless — recorded so the
    /// document says so instead of implying a regression.
    pub requested_workers: Vec<usize>,
    /// True when the run requested more workers than detected CPUs.
    pub oversubscribed: bool,
    /// Process peak RSS (`VmHWM`) in bytes after this section ran.
    pub peak_rss_bytes: u64,
    /// Sequential history pass (classic single-thread builder).
    pub learn_sequential: PassTiming,
    /// Sharded history pass per worker count.
    pub learn: Vec<PassTiming>,
    /// Sequential detection pass.
    pub detect_sequential: PassTiming,
    /// Parallel detection pass per worker count.
    pub detect: Vec<PassTiming>,
    /// Cold vs warm pipeline timing through the model store.
    pub model_store: ModelStoreTiming,
    /// Events produced by the scenario — identical across batch,
    /// streaming replay, and every parallel worker count (the run
    /// aborts before timing anything if they disagree).
    pub three_way_events: usize,
    /// Human-readable table.
    pub rendered: String,
    /// The `BENCH_throughput.json` document.
    pub json: String,
    /// Prometheus snapshot of the run's instrumented registry. Carries
    /// `po_bench_oversubscribed` so `status` can surface an untrustworthy
    /// run from the snapshot alone, without re-reading stderr.
    pub metrics: String,
}

fn time_best<F: FnMut()>(iterations: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iterations.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn timing(workers: usize, secs: f64, observations: usize) -> PassTiming {
    PassTiming {
        workers,
        secs,
        obs_per_sec: observations as f64 / secs.max(1e-9),
    }
}

/// One line per event, in the deterministic `events()` order — the
/// document diffed across execution paths.
fn event_document(events: &[OutageEvent]) -> String {
    events
        .iter()
        .map(|e| format!("{:?} {:?}", e.prefix, e.interval))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run the benchmark scenario through all three execution paths —
/// batch, streaming replay, and the parallel driver at each worker
/// count — from one learned model, and panic with a document diff if
/// any pair of event lists disagrees. Returns the shared event count.
///
/// This is the benchmark's guard that a perf change to one adapter has
/// not forked its semantics from the others; the heavier property-based
/// version lives in outage-core's `engine_equivalence` suite.
fn check_three_way_equivalence(
    detector: &PassiveDetector,
    observations: &[Observation],
    window: Interval,
    worker_counts: &[usize],
) -> usize {
    let model = detector.learn_model(observations, window, 1);
    let batch = detector.detect(&model, observations.iter().copied(), window);
    let batch_doc = event_document(&batch.events());

    let mut monitor = StreamingMonitor::from_model(
        detector.config().clone(),
        &model,
        window.start,
        window.duration(),
    )
    .expect("window-sized epoch is valid");
    monitor.observe_all(observations.iter().copied());
    let (stream_events, _) = monitor.finish_with_quarantine(window.end);
    assert_eq!(
        event_document(&stream_events),
        batch_doc,
        "streaming replay diverged from batch"
    );

    for &w in worker_counts {
        let par = detect_parallel(detector, &model, observations.iter().copied(), window, w);
        assert_eq!(
            event_document(&par.events()),
            batch_doc,
            "parallel detect diverged from batch at {w} workers"
        );
    }
    batch.events().len()
}

/// Run the benchmark: `iterations` timed runs per configuration (best
/// is kept), at each of `worker_counts` for the parallel passes.
pub fn throughput(
    preset: BenchPreset,
    scale: Scale,
    worker_counts: &[usize],
    iterations: usize,
) -> ThroughputResult {
    let scenario = preset.scenario(scale);
    let observations: Vec<Observation> = scenario.collect_observations();
    let window: Interval = scenario.window();
    // The detector runs fully instrumented: the timings below therefore
    // *include* metrics overhead (that is the point — the benchmark
    // guards the instrumented hot path), and the per-stage latency
    // histograms accumulated across every iteration land in the JSON.
    let obs = Obs::new();
    let detector = PassiveDetector::new(DetectorConfig::default()).with_obs(obs.clone());
    let n = observations.len();

    // Before timing anything, prove the three execution paths still
    // agree on this scenario — a benchmark of a forked detector would
    // be worse than no benchmark.
    let three_way_events =
        check_three_way_equivalence(&detector, &observations, window, worker_counts);

    // History pass, sequential baseline.
    let learn_seq_secs = time_best(iterations, || {
        std::hint::black_box(
            detector
                .learn_model(&observations, window, 1)
                .into_indexed(),
        );
    });
    let histories = detector
        .learn_model(&observations, window, 1)
        .into_indexed();
    let blocks = histories.len();

    // History pass, sharded.
    let learn: Vec<PassTiming> = worker_counts
        .iter()
        .map(|&w| {
            let secs = time_best(iterations, || {
                let h = detector
                    .learn_model(&observations, window, w)
                    .into_indexed();
                assert_eq!(h.len(), blocks, "sharded learning lost blocks");
                std::hint::black_box(h);
            });
            timing(w, secs, n)
        })
        .collect();

    // Detection pass, sequential baseline.
    let detect_seq_secs = time_best(iterations, || {
        std::hint::black_box(detector.detect(&histories, observations.iter().copied(), window));
    });
    let seq_report = detector.detect(&histories, observations.iter().copied(), window);

    // Detection pass, parallel driver.
    let detect: Vec<PassTiming> = worker_counts
        .iter()
        .map(|&w| {
            let secs = time_best(iterations, || {
                let r = detect_parallel(
                    &detector,
                    &histories,
                    observations.iter().copied(),
                    window,
                    w,
                );
                assert_eq!(
                    r.covered_blocks(),
                    seq_report.covered_blocks(),
                    "parallel detect diverged"
                );
                std::hint::black_box(r);
            });
            timing(w, secs, n)
        })
        .collect();

    // Model store: cold pipeline (learn + detect) against warm pipeline
    // (load checkpoint + detect), plus the checkpoint round trip itself.
    let model_store = {
        use outage_store::{
            atomic_write, decode_checkpoint, encode_checkpoint, read_checkpoint, Checkpoint,
        };
        let model = detector.learn_model(&observations, window, 1);
        let checkpoint = Checkpoint {
            fingerprint: detector.config().fingerprint(),
            model,
        };
        let encoded = encode_checkpoint(&checkpoint);
        // One file per call, not per process: concurrent calls in one
        // process (parallel tests) must not delete each other's file.
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "outage-bench-model-{}-{}.poms",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        let save_secs = time_best(iterations, || {
            atomic_write(&path, &encoded).expect("checkpoint publish");
        });
        let load_secs = time_best(iterations, || {
            let (c, _) = read_checkpoint(&path).expect("checkpoint load");
            std::hint::black_box(c);
        });
        let cold_secs = time_best(iterations, || {
            let m = detector.learn_model(&observations, window, 1);
            let h = m.into_indexed();
            std::hint::black_box(detector.detect(&h, observations.iter().copied(), window));
        });
        let warm_secs = time_best(iterations, || {
            let bytes = std::fs::read(&path).expect("checkpoint read");
            let c = decode_checkpoint(&bytes).expect("checkpoint decode");
            let h = c.model.into_indexed();
            std::hint::black_box(detector.detect(&h, observations.iter().copied(), window));
        });
        std::fs::remove_file(&path).ok();
        ModelStoreTiming {
            bytes: encoded.len(),
            save_secs,
            load_secs,
            cold_secs,
            warm_secs,
        }
    };

    let available_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let requested_workers = worker_counts.to_vec();
    let oversubscribed = requested_workers.iter().any(|&w| w > available_parallelism);
    // The oversubscription verdict lands in the metrics snapshot too
    // (gauge = workers requested beyond detected CPUs, 0 when sane), so
    // `status` flags an untrustworthy run instead of only stderr.
    let excess = requested_workers
        .iter()
        .map(|&w| w.saturating_sub(available_parallelism))
        .max()
        .unwrap_or(0);
    obs.registry
        .gauge("po_bench_oversubscribed", &[])
        .set(excess as f64);
    let peak_rss = peak_rss_bytes();
    let learn_sequential = timing(1, learn_seq_secs, n);
    let detect_sequential = timing(1, detect_seq_secs, n);

    let rendered = render(
        preset,
        scale,
        n,
        blocks,
        available_parallelism,
        oversubscribed,
        peak_rss,
        &learn_sequential,
        &learn,
        &detect_sequential,
        &detect,
        &model_store,
        three_way_events,
    );
    let json = render_json(
        preset,
        scale,
        n,
        blocks,
        peak_rss,
        iterations,
        &learn_sequential,
        &learn,
        &detect_sequential,
        &detect,
        &model_store,
        three_way_events,
        &stage_histograms_json(&obs),
    );

    ThroughputResult {
        preset,
        observations: n,
        blocks,
        available_parallelism,
        requested_workers,
        oversubscribed,
        peak_rss_bytes: peak_rss,
        learn_sequential,
        learn,
        detect_sequential,
        detect,
        model_store,
        three_way_events,
        rendered,
        json,
        metrics: obs.registry.render_prometheus(),
    }
}

/// Cost of the sampled evidence tier, measured on the sequential detect
/// pass: the always-on telemetry budget says `sampled` may cost at most
/// a few percent of `off` throughput (CI gates at 5%).
#[derive(Debug)]
pub struct EvidenceOverheadResult {
    /// The preset both passes ran.
    pub preset: BenchPreset,
    /// Observations detected per pass.
    pub observations: usize,
    /// The `sampled:N` rate the comparison used.
    pub sampled_rate: u32,
    /// Sequential detect throughput with the tier off.
    pub off_obs_per_sec: f64,
    /// Sequential detect throughput at `sampled:N`.
    pub sampled_obs_per_sec: f64,
    /// `1 - sampled/off`: positive when evidence capture costs time.
    pub overhead_frac: f64,
    /// Process peak RSS after the off pass.
    pub off_peak_rss_bytes: u64,
    /// Process peak RSS after the sampled pass. `VmHWM` is monotonic,
    /// so `sampled/off - 1` is an upper bound on evidence memory growth.
    pub sampled_peak_rss_bytes: u64,
    /// Human-readable summary line.
    pub rendered: String,
    /// The `evidence_overhead` JSON section.
    pub json: String,
}

/// Time the sequential detect pass with the evidence tier off and at
/// `sampled:8`, on the same scenario and learned histories. Runs the
/// off pass first so the monotonic peak-RSS reading brackets evidence
/// memory from above.
pub fn evidence_overhead(
    preset: BenchPreset,
    scale: Scale,
    iterations: usize,
) -> EvidenceOverheadResult {
    const SAMPLED_RATE: u32 = 8;
    let scenario = preset.scenario(scale);
    let observations: Vec<Observation> = scenario.collect_observations();
    let window: Interval = scenario.window();
    let n = observations.len();
    let build = |evidence: EvidenceConfig| {
        let detector = PassiveDetector::new(DetectorConfig {
            evidence,
            ..DetectorConfig::default()
        });
        let histories = detector
            .learn_model(&observations, window, 1)
            .into_indexed();
        (detector, histories)
    };
    let time_once = |detector: &PassiveDetector, histories: &_| {
        let t = Instant::now();
        std::hint::black_box(detector.detect(histories, observations.iter().copied(), window));
        t.elapsed().as_secs_f64()
    };
    // One off pass before the sampled detector exists, so the monotonic
    // peak-RSS reading brackets evidence memory from above.
    let (off_det, off_hist) = build(EvidenceConfig::Off);
    let mut best_off = time_once(&off_det, &off_hist);
    let off_peak_rss_bytes = peak_rss_bytes();
    // Remaining passes interleave so slow machine drift (frequency
    // scaling, background load) lands on both sides, not just one.
    let (sampled_det, sampled_hist) = build(EvidenceConfig::Sampled(SAMPLED_RATE));
    let mut best_sampled = f64::INFINITY;
    for i in 0..iterations.max(1) {
        best_sampled = best_sampled.min(time_once(&sampled_det, &sampled_hist));
        if i + 1 < iterations.max(1) {
            best_off = best_off.min(time_once(&off_det, &off_hist));
        }
    }
    let sampled_peak_rss_bytes = peak_rss_bytes();
    let off_obs_per_sec = n as f64 / best_off.max(1e-9);
    let sampled_obs_per_sec = n as f64 / best_sampled.max(1e-9);
    let overhead_frac = 1.0 - sampled_obs_per_sec / off_obs_per_sec.max(1e-9);
    let rss_growth_frac =
        sampled_peak_rss_bytes as f64 / (off_peak_rss_bytes as f64).max(1.0) - 1.0;
    let rendered = format!(
        "Evidence overhead ({}, {} observations): off {:.0} obs/s, sampled:{} {:.0} obs/s \
         ({:+.1}% throughput, {:+.1}% peak RSS)\n",
        preset.name(),
        n,
        off_obs_per_sec,
        SAMPLED_RATE,
        sampled_obs_per_sec,
        -overhead_frac * 100.0,
        rss_growth_frac * 100.0,
    );
    let json = format!(
        "{{\"preset\": \"{}\", \"observations\": {}, \"sampled_rate\": {}, \
         \"off_obs_per_sec\": {:.1}, \"sampled_obs_per_sec\": {:.1}, \
         \"overhead_frac\": {:.4}, \"off_peak_rss_bytes\": {}, \
         \"sampled_peak_rss_bytes\": {}, \"peak_rss_growth_frac\": {:.4}}}",
        preset.name(),
        n,
        SAMPLED_RATE,
        off_obs_per_sec,
        sampled_obs_per_sec,
        overhead_frac,
        off_peak_rss_bytes,
        sampled_peak_rss_bytes,
        rss_growth_frac,
    );
    EvidenceOverheadResult {
        preset,
        observations: n,
        sampled_rate: SAMPLED_RATE,
        off_obs_per_sec,
        sampled_obs_per_sec,
        overhead_frac,
        off_peak_rss_bytes,
        sampled_peak_rss_bytes,
        rendered,
        json,
    }
}

/// N-vantage federation vs the single-vantage engine on the same
/// scenario: scale-out throughput and a fused-timeline diff.
#[derive(Debug)]
pub struct FederationBenchResult {
    /// The preset both runs used.
    pub preset: BenchPreset,
    /// Observations processed per run.
    pub observations: usize,
    /// Vantage count of the federated run.
    pub vantages: usize,
    /// Single-vantage two-pass throughput (learn + detect).
    pub single_obs_per_sec: f64,
    /// Federated two-pass throughput: split, N runner threads, fuse.
    pub federated_obs_per_sec: f64,
    /// `federated / single` (may be < 1 on starved machines).
    pub speedup: f64,
    /// Events on the fused global timeline.
    pub events: usize,
    /// Event lines differing between the fused and single timelines —
    /// the union-equivalence guarantee says this must be 0.
    pub event_diff: usize,
    /// Human-readable summary line.
    pub rendered: String,
    /// The `federation` JSON section.
    pub json: String,
}

/// Time the full two-pass pipeline single-vantage vs federated across
/// `vantages` runner threads (split and fusion included in the timed
/// region — they are part of the federated pipeline), then diff the
/// fused union timeline against the single-vantage one.
pub fn federation_bench(
    preset: BenchPreset,
    scale: Scale,
    vantages: usize,
    iterations: usize,
) -> FederationBenchResult {
    let scenario = preset.scenario(scale);
    let observations: Vec<Observation> = scenario.collect_observations();
    let window: Interval = scenario.window();
    let n = observations.len();
    let detector = PassiveDetector::new(DetectorConfig::default());
    let plan = VantagePlan::new(vantages).expect("at least one vantage");

    let run_federated = || -> Vec<VantageReport> {
        let shards = plan.split(&observations);
        std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(v, shard)| {
                    s.spawn(move || {
                        let runner =
                            VantageRunner::new(v, DetectorConfig::default()).expect("valid config");
                        runner.run(&shard, window).expect("valid config")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("vantage thread panicked"))
                .collect()
        })
    };

    let single_secs = time_best(iterations, || {
        std::hint::black_box(detector.run_slice(&observations, window));
    });
    let federated_secs = time_best(iterations, || {
        let reports = run_federated();
        let fused = FederationRouter::new(FusionPolicy::Union)
            .assemble(&reports)
            .expect("assemble");
        std::hint::black_box(fused);
    });

    let single_events = detector.run_slice(&observations, window).events();
    let fused_events = FederationRouter::new(FusionPolicy::Union)
        .assemble(&run_federated())
        .expect("assemble")
        .outage_events();
    let single_doc = event_document(&single_events);
    let fused_doc = event_document(&fused_events);
    let event_diff = single_doc
        .lines()
        .filter(|l| !fused_doc.contains(l))
        .count()
        + fused_doc
            .lines()
            .filter(|l| !single_doc.contains(l))
            .count();

    let single_obs_per_sec = n as f64 / single_secs.max(1e-9);
    let federated_obs_per_sec = n as f64 / federated_secs.max(1e-9);
    let speedup = federated_obs_per_sec / single_obs_per_sec.max(1e-9);
    let rendered = format!(
        "Federation ({}, {} observations): single {:.0} obs/s, {}-vantage {:.0} obs/s \
         ({:.2}x); fused timeline {} ({} events)\n",
        preset.name(),
        n,
        single_obs_per_sec,
        vantages,
        federated_obs_per_sec,
        speedup,
        if event_diff == 0 {
            "identical".to_string()
        } else {
            format!("DIVERGED by {event_diff} lines")
        },
        fused_events.len(),
    );
    let json = format!(
        "{{\"preset\": \"{}\", \"observations\": {}, \"vantages\": {}, \
         \"single_obs_per_sec\": {:.1}, \"federated_obs_per_sec\": {:.1}, \
         \"speedup\": {:.3}, \"events\": {}, \"event_diff\": {}, \
         \"events_identical\": {}}}",
        preset.name(),
        n,
        vantages,
        single_obs_per_sec,
        federated_obs_per_sec,
        speedup,
        fused_events.len(),
        event_diff,
        event_diff == 0,
    );
    FederationBenchResult {
        preset,
        observations: n,
        vantages,
        single_obs_per_sec,
        federated_obs_per_sec,
        speedup,
        events: fused_events.len(),
        event_diff,
        rendered,
        json,
    }
}

/// Combine per-preset sections into the `BENCH_throughput.json`
/// document. The machine parallelism context is recorded once at the
/// top: `detected` CPUs, the `requested` worker counts, and whether the
/// run was `oversubscribed` (more workers than CPUs — speedup figures
/// then measure scheduling overhead, not scaling).
pub fn throughput_document(results: &[ThroughputResult]) -> String {
    throughput_document_with(results, None, None)
}

/// [`throughput_document`] plus an optional `evidence_overhead` section
/// from [`evidence_overhead`] — the always-on telemetry budget CI gates
/// against — and an optional `federation` section from
/// [`federation_bench`] comparing N-vantage scale-out against the
/// single-vantage engine.
pub fn throughput_document_with(
    results: &[ThroughputResult],
    evidence: Option<&EvidenceOverheadResult>,
    federation: Option<&FederationBenchResult>,
) -> String {
    assert!(!results.is_empty(), "no benchmark sections to render");
    let detected = results[0].available_parallelism;
    let requested: Vec<String> = results[0]
        .requested_workers
        .iter()
        .map(|w| w.to_string())
        .collect();
    let oversubscribed = results.iter().any(|r| r.oversubscribed);
    let sections: Vec<String> = results
        .iter()
        .map(|r| format!("    \"{}\": {}", r.preset.name(), indent(&r.json, 4)))
        .collect();
    let evidence_section = match evidence {
        Some(e) => format!(",\n  \"evidence_overhead\": {}", e.json),
        None => String::new(),
    };
    let federation_section = match federation {
        Some(f) => format!(",\n  \"federation\": {}", f.json),
        None => String::new(),
    };
    format!(
        "{{\n  \"experiment\": \"throughput\",\n  \"available_parallelism\": {},\n  \"parallelism\": {{\"detected\": {}, \"requested\": [{}], \"oversubscribed\": {}}},\n  \"sections\": {{\n{}\n  }}{}{}\n}}\n",
        detected,
        detected,
        requested.join(", "),
        oversubscribed,
        sections.join(",\n"),
        evidence_section,
        federation_section,
    )
}

/// Re-indent a rendered JSON fragment so it nests under `extra` spaces
/// (first line unchanged — it sits after the key).
fn indent(json: &str, extra: usize) -> String {
    let pad = " ".repeat(extra);
    let mut lines = json.trim_end().lines();
    let mut out = lines.next().unwrap_or_default().to_string();
    for line in lines {
        out.push('\n');
        out.push_str(&pad);
        out.push_str(line);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render(
    preset: BenchPreset,
    scale: Scale,
    observations: usize,
    blocks: usize,
    available_parallelism: usize,
    oversubscribed: bool,
    peak_rss: u64,
    learn_seq: &PassTiming,
    learn: &[PassTiming],
    detect_seq: &PassTiming,
    detect: &[PassTiming],
    store: &ModelStoreTiming,
    three_way_events: usize,
) -> String {
    let mut out = format!(
        "Throughput: {observations} observations, {blocks} blocks \
         ({} scenario, {} ASes, seed {}; {available_parallelism} CPUs, \
         peak RSS {:.0} MiB)\n",
        preset.name(),
        scale.num_as,
        scale.seed,
        peak_rss as f64 / (1024.0 * 1024.0),
    );
    if oversubscribed {
        out.push_str(&format!(
            "WARNING: more workers requested than the {available_parallelism} detected \
             CPU(s) — parallel speedups below measure scheduling overhead, not scaling\n",
        ));
    }
    out.push_str(&format!(
        "{:>8} {:>14} {:>10} | {:>14} {:>10}\n",
        "workers", "learn obs/s", "speedup", "detect obs/s", "speedup",
    ));
    out.push_str(&format!(
        "{:>8} {:>14.0} {:>10} | {:>14.0} {:>10}\n",
        "seq", learn_seq.obs_per_sec, "1.00x", detect_seq.obs_per_sec, "1.00x",
    ));
    for (l, d) in learn.iter().zip(detect) {
        out.push_str(&format!(
            "{:>8} {:>14.0} {:>9.2}x | {:>14.0} {:>9.2}x\n",
            l.workers,
            l.obs_per_sec,
            l.obs_per_sec / learn_seq.obs_per_sec,
            d.obs_per_sec,
            d.obs_per_sec / detect_seq.obs_per_sec,
        ));
    }
    out.push_str(&format!(
        "Model store: {} byte checkpoint, save {:.1} ms, load {:.1} ms; \
         pipeline cold {:.3} s vs warm {:.3} s ({:.2}x)\n",
        store.bytes,
        store.save_secs * 1e3,
        store.load_secs * 1e3,
        store.cold_secs,
        store.warm_secs,
        store.warm_speedup(),
    ));
    out.push_str(&format!(
        "Equivalence: batch = streaming = parallel on this scenario ({three_way_events} events)\n",
    ));
    out
}

fn json_pass(seq: &PassTiming, per_worker: &[PassTiming]) -> String {
    let entries: Vec<String> = per_worker
        .iter()
        .map(|t| {
            format!(
                "      {{\"workers\": {}, \"secs\": {:.6}, \"obs_per_sec\": {:.1}, \"speedup\": {:.3}}}",
                t.workers,
                t.secs,
                t.obs_per_sec,
                t.obs_per_sec / seq.obs_per_sec
            )
        })
        .collect();
    format!(
        "{{\n    \"sequential_secs\": {:.6},\n    \"sequential_obs_per_sec\": {:.1},\n    \"workers\": [\n{}\n    ]\n  }}",
        seq.secs,
        seq.obs_per_sec,
        entries.join(",\n")
    )
}

/// Fold the run's `po_stage_seconds` histograms into a JSON object:
/// per stage, the sample count, total seconds, and the cumulative
/// bucket counts. Covers every timed call across all iterations.
fn stage_histograms_json(obs: &Obs) -> String {
    let samples = obs.registry.samples();
    let stage_of = |s: &Sample| -> Option<String> {
        s.labels
            .iter()
            .find(|(k, _)| k == "stage")
            .map(|(_, v)| v.clone())
    };
    let mut stages: Vec<String> = samples
        .iter()
        .filter(|s| s.name == "po_stage_seconds_count")
        .filter_map(stage_of)
        .collect();
    stages.sort();
    stages.dedup();
    let entries: Vec<String> = stages
        .iter()
        .map(|stage| {
            let find = |name: &str| {
                samples
                    .iter()
                    .find(|s| s.name == name && stage_of(s).as_deref() == Some(stage))
                    .map(|s| s.value)
                    .unwrap_or(0.0)
            };
            let buckets: Vec<String> = samples
                .iter()
                .filter(|s| {
                    s.name == "po_stage_seconds_bucket" && stage_of(s).as_deref() == Some(stage)
                })
                .filter_map(|s| {
                    let le = s.labels.iter().find(|(k, _)| k == "le")?;
                    Some(format!(
                        "{{\"le\": \"{}\", \"count\": {:.0}}}",
                        le.1, s.value
                    ))
                })
                .collect();
            format!(
                "    \"{stage}\": {{\"count\": {:.0}, \"sum_secs\": {:.6}, \"buckets\": [{}]}}",
                find("po_stage_seconds_count"),
                find("po_stage_seconds_sum"),
                buckets.join(", ")
            )
        })
        .collect();
    format!("{{\n{}\n  }}", entries.join(",\n"))
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    preset: BenchPreset,
    scale: Scale,
    observations: usize,
    blocks: usize,
    peak_rss: u64,
    iterations: usize,
    learn_seq: &PassTiming,
    learn: &[PassTiming],
    detect_seq: &PassTiming,
    detect: &[PassTiming],
    store: &ModelStoreTiming,
    three_way_events: usize,
    stages: &str,
) -> String {
    let store_json = format!(
        "{{\"bytes\": {}, \"save_secs\": {:.6}, \"load_secs\": {:.6}, \"cold_secs\": {:.6}, \"warm_secs\": {:.6}, \"warm_speedup\": {:.3}}}",
        store.bytes,
        store.save_secs,
        store.load_secs,
        store.cold_secs,
        store.warm_secs,
        store.warm_speedup(),
    );
    format!(
        "{{\n  \"scenario\": {{\"preset\": \"{}\", \"num_as\": {}, \"seed\": {}}},\n  \"observations\": {},\n  \"blocks\": {},\n  \"peak_rss_bytes\": {},\n  \"iterations\": {},\n  \"learn\": {},\n  \"detect\": {},\n  \"model_store\": {},\n  \"three_way_events\": {},\n  \"stages\": {}\n}}\n",
        preset.name(),
        scale.num_as,
        scale.seed,
        observations,
        blocks,
        peak_rss,
        iterations,
        json_pass(learn_seq, learn),
        json_pass(detect_seq, detect),
        store_json,
        three_way_events,
        stages,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_consistent_numbers() {
        let r = throughput(
            BenchPreset::Table1,
            Scale {
                num_as: 10,
                seed: 42,
            },
            &[1, 2],
            1,
        );
        assert!(r.observations > 0);
        assert!(r.blocks > 0);
        assert!(r.learn_sequential.obs_per_sec > 0.0);
        assert!(r.detect_sequential.obs_per_sec > 0.0);
        assert_eq!(r.learn.len(), 2);
        assert_eq!(r.detect.len(), 2);
        assert!(r.rendered.contains("workers"));
        // JSON sanity: balanced braces, the fields CI greps for.
        assert_eq!(
            r.json.matches('{').count(),
            r.json.matches('}').count(),
            "{}",
            r.json
        );
        assert!(r.json.contains("\"scenario\""));
        assert!(r.json.contains("\"preset\": \"table1\""));
        assert!(r.json.contains("\"obs_per_sec\""));
        assert!(r.json.contains("\"peak_rss_bytes\""));
        // Cold vs warm model-store timings ride along.
        assert!(r.model_store.bytes > 0);
        assert!(r.model_store.save_secs > 0.0 && r.model_store.load_secs > 0.0);
        assert!(r.model_store.cold_secs > 0.0 && r.model_store.warm_secs > 0.0);
        assert!(r.json.contains("\"model_store\""), "{}", r.json);
        assert!(r.json.contains("\"warm_speedup\""), "{}", r.json);
        assert!(r.rendered.contains("Model store"), "{}", r.rendered);
        // The smoke run proved batch = streaming = parallel before
        // timing anything, and the verdict lands in the document.
        assert!(r.json.contains("\"three_way_events\""), "{}", r.json);
        assert!(r.rendered.contains("Equivalence"), "{}", r.rendered);
        // Per-stage latency histograms ride along.
        assert!(r.json.contains("\"stages\""), "{}", r.json);
        for stage in ["\"learn\"", "\"learn_shard\"", "\"plan\"", "\"detect\""] {
            assert!(r.json.contains(stage), "missing stage {stage}: {}", r.json);
        }
        assert!(r.json.contains("\"le\": \"+Inf\""), "{}", r.json);
        // Combined document: sections keyed by preset name, machine
        // parallelism recorded once with the oversubscription verdict.
        let doc = throughput_document(std::slice::from_ref(&r));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert!(doc.contains("\"experiment\": \"throughput\""), "{doc}");
        assert!(doc.contains("\"available_parallelism\""), "{doc}");
        assert!(doc.contains("\"parallelism\""), "{doc}");
        assert!(doc.contains("\"detected\""), "{doc}");
        assert!(doc.contains("\"requested\": [1, 2]"), "{doc}");
        assert!(doc.contains("\"oversubscribed\""), "{doc}");
        assert!(doc.contains("\"sections\""), "{doc}");
        assert!(doc.contains("\"table1\": {"), "{doc}");
        // The oversubscription flag matches the machine we ran on, and
        // the rendered table warns when it is set.
        assert_eq!(r.oversubscribed, r.available_parallelism < 2);
        if r.oversubscribed {
            assert!(r.rendered.contains("WARNING"), "{}", r.rendered);
        }
        // The verdict also lands in the metrics snapshot as a gauge, so
        // `status` can surface it from the file alone.
        assert!(
            r.metrics.contains("po_bench_oversubscribed"),
            "{}",
            r.metrics
        );
    }

    #[test]
    fn evidence_overhead_measures_and_joins_the_document() {
        let scale = Scale {
            num_as: 10,
            seed: 42,
        };
        let ev = evidence_overhead(BenchPreset::Table1, scale, 1);
        assert!(ev.off_obs_per_sec > 0.0);
        assert!(ev.sampled_obs_per_sec > 0.0);
        assert!(ev.rendered.contains("Evidence overhead"), "{}", ev.rendered);
        for field in [
            "\"overhead_frac\"",
            "\"off_obs_per_sec\"",
            "\"sampled_obs_per_sec\"",
            "\"peak_rss_growth_frac\"",
        ] {
            assert!(ev.json.contains(field), "missing {field}: {}", ev.json);
        }
        let t = throughput(BenchPreset::Table1, scale, &[1], 1);
        let doc = throughput_document_with(std::slice::from_ref(&t), Some(&ev), None);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert!(doc.contains("\"evidence_overhead\": {"), "{doc}");
        // Without the section the document is unchanged in shape.
        let plain = throughput_document(std::slice::from_ref(&t));
        assert!(!plain.contains("evidence_overhead"), "{plain}");
    }

    #[test]
    fn federation_bench_matches_single_vantage_and_joins_the_document() {
        let scale = Scale {
            num_as: 10,
            seed: 42,
        };
        let fed = federation_bench(BenchPreset::Table1, scale, 3, 1);
        assert_eq!(fed.vantages, 3);
        assert!(fed.observations > 0);
        assert!(fed.single_obs_per_sec > 0.0);
        assert!(fed.federated_obs_per_sec > 0.0);
        // Union equivalence: the fused timeline must be bit-identical
        // to the single-vantage run on the same stream.
        assert_eq!(fed.event_diff, 0, "{}", fed.rendered);
        assert!(fed.rendered.contains("Federation"), "{}", fed.rendered);
        assert!(fed.rendered.contains("identical"), "{}", fed.rendered);
        for field in [
            "\"vantages\": 3",
            "\"single_obs_per_sec\"",
            "\"federated_obs_per_sec\"",
            "\"speedup\"",
            "\"events_identical\": true",
        ] {
            assert!(fed.json.contains(field), "missing {field}: {}", fed.json);
        }
        let t = throughput(BenchPreset::Table1, scale, &[1], 1);
        let doc = throughput_document_with(std::slice::from_ref(&t), None, Some(&fed));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert!(doc.contains("\"federation\": {"), "{doc}");
        // Without the section the document is unchanged in shape.
        let plain = throughput_document(std::slice::from_ref(&t));
        assert!(!plain.contains("\"federation\""), "{plain}");
    }

    #[test]
    fn paper_scale_preset_parses_and_sizes() {
        assert_eq!(
            BenchPreset::parse("paper-scale"),
            Some(BenchPreset::PaperScale)
        );
        assert_eq!(BenchPreset::parse("table1"), Some(BenchPreset::Table1));
        assert_eq!(BenchPreset::parse("nope"), None);
        assert!(BenchPreset::PaperScale.full_num_as() > BenchPreset::PaperScale.smoke_num_as());
        assert_eq!(BenchPreset::PaperScale.name(), "paper-scale");
    }
}
