//! Parallel detection driver: the body of [`PassiveDetector::run`], the
//! one production entry point for a batch detection.
//!
//! A day of root-server traffic is millions of arrivals across hundreds
//! of thousands of independent per-unit detectors — embarrassingly
//! shardable. This driver partitions units across worker threads and
//! streams observation batches to them over bounded channels; each
//! worker holds a unit-only [`DetectionEngine`] shard and advances only
//! its own detectors, so no per-unit state is ever shared. Results are
//! identical to the sequential [`PassiveDetector::detect`] because each
//! unit still sees its own arrivals in order.
//!
//! ## Shard-affine routing
//!
//! Units are partitioned into *contiguous* ranges ([`ShardPartition`]):
//! worker `w` owns units `range(w)`. The router resolves an arrival's
//! worker and local index with one load from a `(worker, local)` table
//! indexed by the block's dense routing id, built once from the
//! partition beside the id → unit table, so no arrival pays a division
//! (8 bytes per covered block). Contiguity also means each
//! worker's shard walks a contiguous slice of the plan, so its unit
//! state is dense in memory.
//!
//! Batch sizes adapt to the universe: a toy universe keeps the small
//! batches that bound latency, a paper-scale universe uses batches up
//! to 16× larger to amortize channel overhead, with channel depth
//! scaled down to bound in-flight memory. Drained batch buffers are
//! recycled back to the router over a return channel instead of being
//! reallocated per send.
//!
//! ## Sentinel broadcast protocol
//!
//! The feed sentinel is inherently sequential — it watches the *global*
//! arrival order — so the router thread runs the engine's
//! [`QuarantineGate`], exactly as the sequential pass does. Quarantine
//! control flows to the workers **in-band** on the same channels as the
//! observation batches:
//!
//! * While the feed is healthy, the router sends [`Msg::Batch`]es of
//!   `(local unit, arrival time)` pairs.
//! * When the gate opens a quarantine, the router simply stops
//!   routing (faulted arrivals are not evidence, same as sequential).
//! * When it closes one — on recovery at time `t`, or at the window end
//!   — the router flushes every worker's pending batch and then
//!   broadcasts [`Msg::SkipTo`]`(t)` to every worker, which jumps each
//!   of its detectors past the faulted span.
//!
//! Because the channel preserves order, every detector sees the same
//! `observe`/`skip_to` call sequence it would in a sequential
//! [`DetectionEngine`] owning the same gate — timelines, the reported
//! quarantined set and the final feed health are identical, for any
//! worker count.
//!
//! ## Worker failure
//!
//! A worker that panics mid-run is a *typed* failure, not a router
//! panic: the router notices the closed channel (or the recorded panic
//! at join), stops routing, drains the remaining workers, and
//! [`PassiveDetector::run`] returns [`RunError::Worker`] naming the
//! dead worker. Only the [`detect_parallel`] wrapper turns that back
//! into a panic.

use crate::config::{ConfigError, DetectorConfig};
use crate::detector::UnitReport;
use crate::engine::{DetectionEngine, QuarantineGate};
use crate::history::HistorySource;
use crate::pipeline::{build_routing, DetectionReport, PassiveDetector};
use crate::sentinel::{FeedSentinel, SentinelConfig};
use outage_obs::span;
use outage_types::{Interval, IntervalSet, Observation, UnixTime};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Smallest observation batch (toy universes; bounds latency).
const MIN_BATCH: usize = 1_024;
/// Largest observation batch (paper scale; amortizes send overhead).
const MAX_BATCH: usize = 16_384;
/// In-flight budget per worker channel, in batch-entry bytes: depth is
/// derived from the batch size so bigger batches mean fewer in flight.
const CHANNEL_BYTES: usize = 1 << 20;

/// Observations per routed batch, adapted to the universe size: roughly
/// a quarter of the unit count, clamped to `[MIN_BATCH, MAX_BATCH]`.
fn batch_capacity(n_units: usize) -> usize {
    (n_units / 4)
        .next_power_of_two()
        .clamp(MIN_BATCH, MAX_BATCH)
}

/// Maximum in-flight batches per worker for a given batch capacity.
fn channel_depth(batch: usize) -> usize {
    (CHANNEL_BYTES / (batch * size_of::<(u32, UnixTime)>())).clamp(4, 64)
}

/// Contiguous shard-affine assignment of `n_units` units to `workers`
/// workers: worker `w` owns the closed range [`Self::range`]`(w)`, the
/// first `n_units % workers` workers taking one extra unit. The owning
/// worker and the unit's index within its shard are both closed-form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPartition {
    workers: usize,
    /// Units per shard, before remainder distribution.
    base: usize,
    /// Shards that take `base + 1` units.
    rem: usize,
    /// First unit owned by a `base`-sized shard.
    cut: usize,
}

impl ShardPartition {
    /// Partition `n_units` units across `workers` (≥ 1) workers.
    pub fn new(n_units: usize, workers: usize) -> ShardPartition {
        let workers = workers.max(1);
        let base = n_units / workers;
        let rem = n_units % workers;
        ShardPartition {
            workers,
            base,
            rem,
            cut: rem * (base + 1),
        }
    }

    /// Number of workers partitioned over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The contiguous unit range worker `w` owns (possibly empty).
    pub fn range(&self, w: usize) -> std::ops::Range<usize> {
        let start = if w < self.rem {
            w * (self.base + 1)
        } else {
            self.cut + (w - self.rem) * self.base
        };
        let len = if w < self.rem {
            self.base + 1
        } else {
            self.base
        };
        start..start + len
    }

    /// The worker owning global unit `g`.
    #[inline]
    pub fn worker_of(&self, g: usize) -> usize {
        if g < self.cut {
            g / (self.base + 1)
        } else {
            self.rem + (g - self.cut) / self.base
        }
    }

    /// `(worker, local index within its shard)` for global unit `g`.
    #[inline]
    pub fn locate(&self, g: usize) -> (usize, u32) {
        let w = self.worker_of(g);
        (w, (g - self.range(w).start) as u32)
    }
}

/// A detection worker thread died mid-run. Returned (as
/// [`RunError::Worker`]) by [`PassiveDetector::run`] after the remaining
/// workers were drained and joined — the run does not hang and no other
/// worker is left mid-batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the worker whose thread panicked.
    pub worker: usize,
    /// The panic payload, when it carried a message.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "detection worker {} panicked: {}",
            self.worker, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lock `m`, recovering the guard if a worker panicked while holding it:
/// that panic is already recorded as a [`WorkerPanic`], so taking the lock
/// must not raise a second one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-band message to a worker: data, or a quarantine-close marker.
#[derive(Debug)]
enum Msg {
    /// `(local detector index, arrival time)` pairs to observe in order.
    Batch(Vec<(u32, UnixTime)>),
    /// A quarantine closed at this time: jump every detector past it.
    SkipTo(UnixTime),
}

/// Why [`PassiveDetector::run`] returned no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The sentinel configuration is invalid. Checked before any
    /// thread starts.
    Config(ConfigError),
    /// A detection worker panicked. The other workers were drained and
    /// every thread joined before the run returned.
    Worker(WorkerPanic),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => e.fmt(f),
            RunError::Worker(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> RunError {
        RunError::Config(e)
    }
}

impl PassiveDetector {
    /// The production batch detection: plan units from `histories`
    /// (learned, fused or warm-started), then judge `observations`
    /// across `workers` threads (see the module docs), guarded by a
    /// feed sentinel when `sentinel` is given. At any worker count the
    /// report, its quarantined set, feed health and evidence equal the
    /// single-threaded reference: [`PassiveDetector::detect`], or with a
    /// sentinel one [`DetectionEngine`] owning the same gate.
    pub fn run<H, I>(
        &self,
        histories: &H,
        observations: I,
        window: Interval,
        workers: usize,
        sentinel: Option<&SentinelConfig>,
    ) -> Result<DetectionReport, RunError>
    where
        H: HistorySource + ?Sized,
        I: IntoIterator<Item = Observation>,
    {
        if let Some(cfg) = sentinel {
            cfg.validate()?;
        }
        drive(self, histories, observations, window, workers, sentinel).map_err(RunError::Worker)
    }
}

/// [`PassiveDetector::run`] without a sentinel, panicking on a
/// [`WorkerPanic`]. Kept because the benchmark package calls it; a
/// benchmark change may move it to `run`.
pub fn detect_parallel<H, I>(
    detector: &PassiveDetector,
    histories: &H,
    observations: I,
    window: Interval,
    workers: usize,
) -> DetectionReport
where
    H: HistorySource + ?Sized,
    I: IntoIterator<Item = Observation>,
{
    match detector.run(histories, observations, window, workers, None) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

// Test hook: the worker that panics on its first message, to exercise
// the drain path end to end through `PassiveDetector::run`.
#[cfg(test)]
thread_local! {
    static INJECT_FAULT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
fn injected_fault() -> Option<usize> {
    INJECT_FAULT.with(std::cell::Cell::get)
}

#[cfg(not(test))]
fn injected_fault() -> Option<usize> {
    None
}

fn drive<H, I>(
    detector: &PassiveDetector,
    histories: &H,
    observations: I,
    window: Interval,
    workers: usize,
    sentinel_cfg: Option<&SentinelConfig>,
) -> Result<DetectionReport, WorkerPanic>
where
    H: HistorySource + ?Sized,
    I: IntoIterator<Item = Observation>,
{
    let workers = workers.max(1);
    let inject_fault = injected_fault();
    let plan = detector.plan_units(histories);
    let config: &DetectorConfig = detector.config();

    // Shard-affine assignment: worker w owns the contiguous unit range
    // partition.range(w); ownership and local index are closed-form.
    let n_units = plan.units.len();
    let partition = ShardPartition::new(n_units, workers);
    let batch_cap = batch_capacity(n_units);
    let depth = channel_depth(batch_cap);

    // Per-packet routing: member block → dense id (one cheap hash probe
    // per observation, no SipHash) → (worker, local index), resolved
    // once per member here so the router divides nothing per arrival.
    let (route, unit_of_id) = build_routing(&plan);
    let slot_of_id: Vec<(u32, u32)> = unit_of_id
        .iter()
        .map(|&g| {
            let (w, local) = partition.locate(g as usize);
            (w as u32, local)
        })
        .collect();

    // Build each worker's engine shard up front (on the main thread:
    // cheap). A shard has no routing table and no gate — the router
    // owns both.
    let mut shards: Vec<DetectionEngine> = (0..workers)
        .map(|w| DetectionEngine::for_units(config, &plan, partition.range(w), histories, window))
        .collect();

    let reports: Mutex<Vec<Option<UnitReport>>> = Mutex::new((0..n_units).map(|_| None).collect());
    let failures: Mutex<Vec<WorkerPanic>> = Mutex::new(Vec::new());
    let mut strays = 0u64;

    // Router instruments: all pre-resolved, so the hot loop pays one
    // atomic op per event at most.
    let obs = detector.obs().clone();
    let mut detect_span = span!(obs, "detect.parallel", workers = workers, units = n_units);
    let t0 = Instant::now();
    let registry = &obs.registry;
    let batches_total = registry.counter("po_router_batches_total", &[]);
    let routed_total = registry.counter("po_router_observations_total", &[]);
    let skipto_total = registry.counter("po_router_skipto_total", &[]);
    let queue_depth = registry.gauge("po_router_queue_depth", &[]);

    let mut gate = sentinel_cfg
        .map(|cfg| QuarantineGate::from_sentinel(FeedSentinel::new(*cfg, window.start)));

    // Drained batch buffers flow back to the router through this pool
    // and are reused instead of reallocated per send. Total live
    // buffers are bounded by what fits in the channels, so the pool
    // never grows past workers × depth.
    let recycle_pool: Mutex<Vec<Vec<(u32, UnixTime)>>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(workers);
        for (w, shard) in shards.drain(..).enumerate() {
            let (tx, rx) = sync_channel::<Msg>(depth);
            senders.push(tx);
            let range = partition.range(w);
            let reports = &reports;
            let failures = &failures;
            let recycle = &recycle_pool;
            let w_label = w.to_string();
            let busy =
                registry.float_counter("po_worker_busy_seconds_total", &[("worker", &w_label)]);
            let idle =
                registry.float_counter("po_worker_idle_seconds_total", &[("worker", &w_label)]);
            let depth_gauge = queue_depth.clone();
            scope.spawn(move || {
                // The whole worker body runs under catch_unwind: a panic
                // drops `rx` (closing the channel so the router stops
                // feeding this worker) and is recorded as a typed
                // failure instead of tearing down the process.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut shard = shard;
                    let mut first = true;
                    loop {
                        let wait = Instant::now();
                        let Ok(msg) = rx.recv() else {
                            idle.add(wait.elapsed().as_secs_f64());
                            break;
                        };
                        depth_gauge.add(-1.0);
                        idle.add(wait.elapsed().as_secs_f64());
                        if first && inject_fault == Some(w) {
                            panic!("injected worker fault (test)");
                        }
                        first = false;
                        let work = Instant::now();
                        match msg {
                            Msg::Batch(mut batch) => {
                                for &(local, t) in &batch {
                                    shard.observe_unit(local, t);
                                }
                                batch.clear();
                                lock(recycle).push(batch);
                            }
                            Msg::SkipTo(t) => shard.skip_to(t),
                        }
                        busy.add(work.elapsed().as_secs_f64());
                    }
                    let work = Instant::now();
                    let mut guard = lock(reports);
                    for (local, report) in shard.finish_shard().into_iter().enumerate() {
                        guard[range.start + local] = Some(report);
                    }
                    busy.add(work.elapsed().as_secs_f64());
                }));
                if let Err(payload) = outcome {
                    lock(failures).push(WorkerPanic {
                        worker: w,
                        message: panic_message(payload),
                    });
                }
            });
        }

        let mut buffers: Vec<Vec<(u32, UnixTime)>> = (0..workers)
            .map(|_| Vec::with_capacity(batch_cap))
            .collect();
        let fresh_buffer = || {
            lock(&recycle_pool)
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(batch_cap))
        };
        // Flush pending batches, then broadcast a marker: in-band order
        // guarantees each detector sees its pre-quarantine arrivals
        // before the skip, exactly as the sequential loop does. Returns
        // the index of a dead worker on channel failure.
        let flush_and_skip = |buffers: &mut Vec<Vec<(u32, UnixTime)>>,
                              senders: &[SyncSender<Msg>],
                              t: UnixTime|
         -> Result<(), usize> {
            for (w, buf) in buffers.iter_mut().enumerate() {
                if !buf.is_empty() {
                    let full = std::mem::replace(buf, fresh_buffer());
                    batches_total.inc();
                    routed_total.add(full.len() as u64);
                    queue_depth.add(1.0);
                    senders[w].send(Msg::Batch(full)).map_err(|_| w)?;
                }
                queue_depth.add(1.0);
                senders[w].send(Msg::SkipTo(t)).map_err(|_| w)?;
            }
            skipto_total.inc();
            Ok(())
        };

        // Route observations. A send to a dead worker aborts routing;
        // the remaining workers are drained below and the recorded
        // panic surfaces as the run's error.
        let routed: Result<(), usize> = 'route: {
            for obs in observations {
                if !window.contains(obs.time) {
                    continue;
                }
                if let Some(g) = &mut gate {
                    g.observe(obs.time);
                    g.open_if_flagged(obs.time);
                    if let Some(to) = g.close_if_recovered(obs.time) {
                        if let Err(w) = flush_and_skip(&mut buffers, &senders, to) {
                            break 'route Err(w);
                        }
                    }
                    if g.is_open() {
                        g.swallow(); // sensor-fault arrivals are not evidence
                        continue;
                    }
                }
                match route.get(&obs.block) {
                    Some(id) => {
                        let (w, local) = slot_of_id[id as usize];
                        let w = w as usize;
                        buffers[w].push((local, obs.time));
                        if buffers[w].len() >= batch_cap {
                            let full = std::mem::replace(&mut buffers[w], fresh_buffer());
                            batches_total.inc();
                            routed_total.add(full.len() as u64);
                            // Router adds before the send, workers
                            // subtract after the recv, so the gauge is
                            // the number of messages in flight across
                            // all channels.
                            queue_depth.add(1.0);
                            if senders[w].send(Msg::Batch(full)).is_err() {
                                break 'route Err(w);
                            }
                        }
                    }
                    None => strays += 1,
                }
            }

            // Stream end: the feed may die faulted, or the fault may
            // only become visible once trailing silence closes sentinel
            // buckets — the same gate settlement the sequential engine
            // performs.
            if let Some(g) = &mut gate {
                g.advance_to(window.end);
                g.open_if_flagged(window.end);
                if let Some(to) = g.close_if_recovered(window.end) {
                    if let Err(w) = flush_and_skip(&mut buffers, &senders, to) {
                        break 'route Err(w);
                    }
                }
                if let Some(to) = g.force_close(window.end) {
                    if let Err(w) = flush_and_skip(&mut buffers, &senders, to) {
                        break 'route Err(w);
                    }
                }
            }
            for (w, buf) in buffers.iter_mut().enumerate() {
                if !buf.is_empty() {
                    let full = std::mem::take(buf);
                    batches_total.inc();
                    routed_total.add(full.len() as u64);
                    queue_depth.add(1.0);
                    if senders[w].send(Msg::Batch(full)).is_err() {
                        break 'route Err(w);
                    }
                }
            }
            Ok(())
        };
        let _ = routed; // the authoritative failure record is `failures`
        drop(senders); // close channels; workers drain, finish, publish
    });
    queue_depth.set(0.0); // drained: nothing in flight after the join

    // All workers are joined. Any recorded panic is the run's outcome —
    // the other workers were drained, so nothing is left mid-batch.
    let mut failed = std::mem::take(&mut *lock(&failures));
    if !failed.is_empty() {
        failed.sort_by_key(|f| f.worker);
        return Err(failed.swap_remove(0));
    }

    let units: Vec<UnitReport> = reports
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every unit reports"))
        .collect();

    let (sentinel, quarantined) = match gate {
        Some(g) => {
            let (s, q) = g.into_parts();
            (Some(s), q)
        }
        None => (None, IntervalSet::new()),
    };
    let report = DetectionReport::assemble(
        window,
        units,
        plan.units.into_iter().map(|u| u.members).collect(),
        plan.uncovered,
        strays,
        quarantined,
        sentinel.as_ref().map(FeedSentinel::health),
        route,
        unit_of_id,
    );
    detect_span.field("strays", report.strays);
    drop(detect_span);
    obs.registry
        .histogram(
            "po_stage_seconds",
            &[("stage", "detect")],
            outage_obs::LATENCY_BUCKETS,
        )
        .observe(t0.elapsed().as_secs_f64());
    detector.export_run_metrics(&report, sentinel.as_ref());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::{Prefix, UnixTime};

    fn make_observations() -> (Vec<Observation>, Interval) {
        let window = Interval::from_secs(0, 86_400);
        let mut obs = Vec::new();
        // 12 blocks, one with an outage.
        for i in 0..12u32 {
            let b = Prefix::v4_raw(0x0A00_0000 + (i << 8), 24);
            let period = 10 + (i as u64 % 5) * 7;
            for t in (0..86_400u64).step_by(period as usize) {
                if i == 3 && (30_000..40_000).contains(&t) {
                    continue;
                }
                obs.push(Observation::new(UnixTime(t), b));
            }
        }
        obs.sort();
        (obs, window)
    }

    /// Dense fleet with a total feed blackout (sensor fault, not outage).
    fn blacked_out_fleet(blackout: std::ops::Range<u64>) -> (Vec<Observation>, Interval) {
        let window = Interval::from_secs(0, 86_400);
        let mut obs = Vec::new();
        for i in 0..4u32 {
            let b = Prefix::v4_raw(0xC633_6400 + (i << 8), 24);
            obs.extend(
                (i as u64..86_400)
                    .step_by(10)
                    .filter(|t| !blackout.contains(t))
                    .map(|t| Observation::new(UnixTime(t), b)),
            );
        }
        obs.sort();
        (obs, window)
    }

    #[test]
    fn shard_partition_is_contiguous_and_balanced() {
        for (n, w) in [(0, 4), (1, 4), (12, 5), (13, 4), (336, 8), (100_000, 7)] {
            let p = ShardPartition::new(n, w);
            let mut next = 0usize;
            for worker in 0..w {
                let r = p.range(worker);
                assert_eq!(r.start, next, "ranges must tile [0, n)");
                next = r.end;
                for g in r.clone() {
                    assert_eq!(p.worker_of(g), worker);
                    assert_eq!(p.locate(g), (worker, (g - r.start) as u32));
                }
                let len = r.end - r.start;
                assert!(len == n / w || len == n / w + 1, "balanced: {len}");
            }
            assert_eq!(next, n, "every unit owned exactly once");
        }
    }

    #[test]
    fn batch_capacity_scales_with_universe() {
        assert_eq!(batch_capacity(12), MIN_BATCH);
        assert_eq!(batch_capacity(336), MIN_BATCH);
        assert_eq!(batch_capacity(1_000_000), MAX_BATCH);
        let mid = batch_capacity(20_000);
        assert!(mid > MIN_BATCH && mid <= MAX_BATCH);
        // Depth shrinks as batches grow: bounded in-flight memory.
        assert!(channel_depth(MAX_BATCH) < channel_depth(MIN_BATCH));
        assert!(channel_depth(MAX_BATCH) >= 4);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (obs, window) = make_observations();
        let det = PassiveDetector::new(DetectorConfig::default());
        let histories = det.learn_histories(obs.iter().copied(), window);
        let seq = det.detect(&histories, obs.iter().copied(), window);
        for workers in [1, 2, 4] {
            let par = detect_parallel(&det, &histories, obs.iter().copied(), window, workers);
            assert_eq!(par.units.len(), seq.units.len());
            assert_eq!(par.covered_blocks(), seq.covered_blocks());
            assert_eq!(par.strays, seq.strays);
            // Compare per-block timelines irrespective of unit ordering.
            for i in 0..12u32 {
                let b = Prefix::v4_raw(0x0A00_0000 + (i << 8), 24);
                assert_eq!(
                    par.timeline_for(&b),
                    seq.timeline_for(&b),
                    "block {b} differs at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_accepts_indexed_histories() {
        let (obs, window) = make_observations();
        let det = PassiveDetector::new(DetectorConfig::default());
        let map = det.learn_histories(obs.iter().copied(), window);
        let indexed = det.learn_model(&obs, window, 4).into_indexed();
        let a = detect_parallel(&det, &map, obs.iter().copied(), window, 2);
        let b = detect_parallel(&det, &indexed, obs.iter().copied(), window, 2);
        for i in 0..12u32 {
            let blk = Prefix::v4_raw(0x0A00_0000 + (i << 8), 24);
            assert_eq!(a.timeline_for(&blk), b.timeline_for(&blk));
        }
    }

    #[test]
    fn parallel_detects_the_outage() {
        let (obs, window) = make_observations();
        let det = PassiveDetector::new(DetectorConfig::default());
        let histories = det.learn_histories(obs.iter().copied(), window);
        let par = detect_parallel(&det, &histories, obs.iter().copied(), window, 4);
        let victim = Prefix::v4_raw(0x0A00_0000 + (3 << 8), 24);
        let tl = par.timeline_for(&victim).unwrap();
        assert!(tl.down_secs() > 8_000, "down {} s", tl.down_secs());
    }

    #[test]
    fn parallel_from_model_matches_sequential_model_run() {
        let (obs, window) = make_observations();
        let det = PassiveDetector::new(DetectorConfig::default());
        let model = crate::LearnedModel::learn(obs.iter().copied(), window);
        let seq = det.detect(&model, obs.iter().copied(), window);
        for workers in [1, 4] {
            let par = det
                .run(&model, obs.iter().copied(), window, workers, None)
                .unwrap();
            assert_eq!(par.covered_blocks(), seq.covered_blocks());
            for i in 0..12u32 {
                let b = Prefix::v4_raw(0x0A00_0000 + (i << 8), 24);
                assert_eq!(
                    par.timeline_for(&b),
                    seq.timeline_for(&b),
                    "block {b} differs at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn more_workers_than_units_is_fine() {
        let (obs, window) = make_observations();
        let det = PassiveDetector::new(DetectorConfig::default());
        let histories = det.learn_histories(obs.iter().copied(), window);
        let par = detect_parallel(&det, &histories, obs.iter().copied(), window, 64);
        assert_eq!(par.covered_blocks(), 12);
    }

    /// `run` with worker `fault` made to panic on its first message.
    fn run_with_fault(
        det: &PassiveDetector,
        obs: &[Observation],
        window: Interval,
        workers: usize,
        sentinel: Option<&SentinelConfig>,
        fault: usize,
    ) -> Result<DetectionReport, RunError> {
        let histories = det.learn_histories(obs.iter().copied(), window);
        INJECT_FAULT.with(|f| f.set(Some(fault)));
        let result = det.run(&histories, obs.iter().copied(), window, workers, sentinel);
        INJECT_FAULT.with(|f| f.set(None));
        result
    }

    #[test]
    fn worker_panic_is_a_typed_error_that_names_the_worker() {
        let (obs, window) = make_observations();
        let det = PassiveDetector::new(DetectorConfig::default());
        // Inject a panic into worker 1 of 3; the router must drain the
        // other two and return a typed error, not hang or panic. `run`
        // returns only after its thread scope joined every worker.
        let Err(RunError::Worker(err)) = run_with_fault(&det, &obs, window, 3, None, 1) else {
            panic!("a worker panic must be RunError::Worker");
        };
        assert_eq!(err.worker, 1);
        assert!(
            err.message.contains("injected worker fault"),
            "payload surfaced: {}",
            err.message
        );
        let shown = err.to_string();
        assert!(shown.contains("worker 1"), "names the worker: {shown}");
        // Nothing is left in flight, and the same detector runs again.
        assert_eq!(
            det.obs().registry.value("po_router_queue_depth", &[]),
            Some(0.0)
        );
        let histories = det.learn_histories(obs.iter().copied(), window);
        let again = det.run(&histories, obs.iter().copied(), window, 3, None);
        assert_eq!(again.unwrap().covered_blocks(), 12);
    }

    #[test]
    fn run_succeeds_on_healthy_workers() {
        let (obs, window) = make_observations();
        let det = PassiveDetector::new(DetectorConfig::default());
        let histories = det.learn_histories(obs.iter().copied(), window);
        let report = det
            .run(&histories, obs.iter().copied(), window, 4, None)
            .unwrap();
        assert_eq!(report.covered_blocks(), 12);
        assert_eq!(report.feed_health, None, "no sentinel ran");
    }

    /// The sequential reference for a sentinel run: one engine owning
    /// the gate.
    fn gated_reference(
        det: &PassiveDetector,
        histories: &impl HistorySource,
        obs: &[Observation],
        window: Interval,
        cfg: &SentinelConfig,
    ) -> DetectionReport {
        let gate = QuarantineGate::new(*cfg, window.start).unwrap();
        let mut engine = DetectionEngine::from_histories(det, histories, window, Some(gate));
        for o in obs {
            engine.observe(*o);
        }
        engine.finish().report
    }

    #[test]
    fn sentinel_parallel_matches_sequential() {
        let (obs, window) = blacked_out_fleet(43_200..45_000);
        let det = PassiveDetector::new(DetectorConfig::default());
        let histories = det.learn_histories(obs.iter().copied(), window);
        let cfg = SentinelConfig::default();
        let seq = gated_reference(&det, &histories, &obs, window, &cfg);
        assert!(!seq.quarantined.is_empty(), "fixture must quarantine");
        assert!(seq.feed_health.is_some());
        for workers in [1, 2, 4, 8] {
            let par = det
                .run(&histories, obs.iter().copied(), window, workers, Some(&cfg))
                .unwrap();
            assert_eq!(
                par.quarantined, seq.quarantined,
                "quarantine differs at {workers} workers"
            );
            assert_eq!(par.feed_health, seq.feed_health);
            assert_eq!(par.strays, seq.strays);
            for i in 0..4u32 {
                let b = Prefix::v4_raw(0xC633_6400 + (i << 8), 24);
                assert_eq!(
                    par.timeline_for(&b),
                    seq.timeline_for(&b),
                    "block {b} differs at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn sentinel_parallel_swallows_dead_tail() {
        // Feed dies at 60 000: the open quarantine must reach the
        // window end via the in-band SkipTo, same as sequential.
        let (mut obs, window) = blacked_out_fleet(0..0);
        obs.retain(|o| o.time.secs() < 60_000);
        let det = PassiveDetector::new(DetectorConfig::default());
        let histories = det.learn_histories(obs.iter().copied(), window);
        let cfg = SentinelConfig::default();
        let par = det
            .run(&histories, obs.iter().copied(), window, 3, Some(&cfg))
            .unwrap();
        assert!(!par.quarantined.is_empty());
        for u in &par.units {
            assert!(
                !u.timeline
                    .down
                    .intervals()
                    .iter()
                    .any(|iv| iv.end.secs() > 60_200),
                "tail must be quarantined, not judged: {:?}",
                u.timeline.down
            );
        }
    }

    #[test]
    fn invalid_sentinel_config_is_a_typed_error() {
        let (obs, window) = make_observations();
        let det = PassiveDetector::new(DetectorConfig::default());
        let bad = SentinelConfig {
            recovery_buckets: 0,
            ..SentinelConfig::default()
        };
        // A worker set to panic on its first message never gets one:
        // the config is refused before any thread starts.
        let err = run_with_fault(&det, &obs, window, 2, Some(&bad), 0).unwrap_err();
        assert_eq!(err, RunError::Config(ConfigError::SentinelNoRecovery));
        assert_eq!(
            det.obs().registry.value("po_router_batches_total", &[]),
            None,
            "no router instrument registered, so no worker spawned"
        );
    }
}
