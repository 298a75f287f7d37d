//! Scenario presets: world + ground truth + observation window.
//!
//! A [`Scenario`] bundles everything one experiment needs: the generated
//! [`Internet`], the ground-truth [`OutageSchedule`], and the observation
//! window, with named presets matching the paper's experiments (see
//! DESIGN.md's experiment index). All presets are deterministic in
//! `(preset, size, seed)`.

use crate::arrivals::{BlockArrivals, MergedArrivals};
use crate::oracle::NetworkOracle;
use crate::schedule::{OutageConfig, OutageSchedule};
use crate::topology::{Internet, TopologyConfig};
use outage_types::rng::SmallRng;
use outage_types::{durations, Interval, Observation, Prefix, UnixTime};

/// A Bernoulli-thinned view of the merged observation stream — what a
/// second passive service sees of the same world. Produced by
/// [`Scenario::observations_for_service`].
pub struct ThinnedArrivals<'a> {
    inner: MergedArrivals<'a>,
    rng: SmallRng,
    keep: f64,
}

impl Iterator for ThinnedArrivals<'_> {
    type Item = Observation;

    fn next(&mut self) -> Option<Observation> {
        loop {
            let obs = self.inner.next()?;
            if self.rng.gen::<f64>() < self.keep {
                return Some(obs);
            }
        }
    }
}

/// A block-predicate-filtered view of the merged observation stream —
/// the shard one federated vantage ingests. Produced by
/// [`Scenario::observations_where`].
pub struct PartitionedArrivals<'a, F> {
    inner: MergedArrivals<'a>,
    keep: F,
}

impl<F: FnMut(&Prefix) -> bool> Iterator for PartitionedArrivals<'_, F> {
    type Item = Observation;

    fn next(&mut self) -> Option<Observation> {
        loop {
            let obs = self.inner.next()?;
            if (self.keep)(&obs.block) {
                return Some(obs);
            }
        }
    }
}

/// Full description of a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Human-readable name (shows up in reports).
    pub name: String,
    /// Topology generation parameters.
    pub topology: TopologyConfig,
    /// Outage injection parameters.
    pub outages: OutageConfig,
    /// Observation window length in seconds.
    pub window_secs: u64,
    /// Master seed.
    pub seed: u64,
}

/// A generated world ready for measurement.
pub struct Scenario {
    /// The configuration this scenario was built from.
    pub config: ScenarioConfig,
    /// The synthetic Internet.
    pub internet: Internet,
    /// Ground-truth outages.
    pub schedule: OutageSchedule,
}

impl Scenario {
    /// Build a scenario from a config.
    pub fn build(config: ScenarioConfig) -> Scenario {
        let internet = Internet::generate(&config.topology, config.seed);
        let window = Interval::new(UnixTime::EPOCH, UnixTime(config.window_secs));
        let schedule = OutageSchedule::generate(&internet, &config.outages, window, config.seed);
        Scenario {
            config,
            internet,
            schedule,
        }
    }

    /// The observation window.
    pub fn window(&self) -> Interval {
        self.schedule.window()
    }

    /// The merged, time-ordered passive observation stream — what the
    /// telescope at the service would deliver.
    pub fn observations(&self) -> MergedArrivals<'_> {
        let streams = self
            .internet
            .blocks()
            .iter()
            .map(|b| {
                BlockArrivals::new(
                    b,
                    self.schedule.down_set(&b.prefix),
                    self.window(),
                    self.config.seed,
                )
            })
            .collect();
        MergedArrivals::new(streams)
    }

    /// Arrivals of a single block (handy for focused tests/examples).
    pub fn block_observations(&self, prefix: &outage_types::Prefix) -> Option<BlockArrivals<'_>> {
        let profile = self.internet.block(prefix)?;
        Some(BlockArrivals::new(
            profile,
            self.schedule.down_set(prefix),
            self.window(),
            self.config.seed,
        ))
    }

    /// An oracle for active probing against this world.
    pub fn oracle(&self) -> NetworkOracle<'_> {
        NetworkOracle::new(&self.internet, &self.schedule, self.config.seed)
    }

    /// The observation stream as seen by a *different* passive service.
    ///
    /// A second vantage (another root letter, a popular website, an NTP
    /// pool) sees an independent Bernoulli thinning of each block's
    /// queries: `keep` is the fraction of the block's traffic that goes
    /// to this service. Thinning a Poisson process yields a Poisson
    /// process, so every detector assumption still holds — just at a
    /// lower rate. Streams for different `service` names are independent.
    pub fn observations_for_service(&self, service: &str, keep: f64) -> ThinnedArrivals<'_> {
        assert!((0.0..=1.0).contains(&keep), "keep must be a fraction");
        let service_seed = crate::stats::seed_for(self.config.seed, service.as_bytes());
        ThinnedArrivals {
            inner: self.observations(),
            rng: SmallRng::seed_from_u64(service_seed),
            keep,
        }
    }

    /// The observation stream restricted to blocks a predicate accepts —
    /// the vantage-split generalization of
    /// [`Scenario::observations_for_service`]. Where service thinning
    /// drops individual *packets* probabilistically, a vantage split
    /// routes whole *blocks* deterministically: the caller supplies the
    /// block predicate (e.g. a federation plan's per-vantage `sees`).
    /// Each stream stays time-ordered, and the streams of a complete
    /// partition union back to exactly [`Scenario::observations`].
    pub fn observations_where<F>(&self, keep: F) -> PartitionedArrivals<'_, F>
    where
        F: FnMut(&Prefix) -> bool,
    {
        PartitionedArrivals {
            inner: self.observations(),
            keep,
        }
    }

    /// Collect the entire observation stream into memory. Convenient for
    /// multi-pass detectors; scales with total traffic, so prefer
    /// [`Scenario::observations`] for large runs.
    pub fn collect_observations(&self) -> Vec<Observation> {
        self.observations().collect()
    }

    // ---- presets ------------------------------------------------------

    /// Tiny world for unit tests: ~40 ASes, one day.
    pub fn quick(seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            name: "quick".into(),
            topology: TopologyConfig::default(),
            outages: OutageConfig::default(),
            window_secs: durations::DAY,
            seed,
        })
    }

    /// Table 1/2 preset: one day, long-outage-dominated schedule, like the
    /// paper's 2019-01-10 comparison against Trinocular.
    pub fn table1(num_as: u32, seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            name: "table1-long-outages".into(),
            topology: TopologyConfig {
                num_as,
                ..TopologyConfig::default()
            },
            outages: OutageConfig {
                p_long_per_day: 0.08,
                p_short_per_day: 0.02,
                ..OutageConfig::default()
            },
            window_secs: durations::DAY,
            seed,
        })
    }

    /// Table 3 preset: one day, rich in short (5–11 min) outages, for the
    /// event-matched comparison against the Atlas-style mesh.
    pub fn table3(num_as: u32, seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            name: "table3-short-outages".into(),
            topology: TopologyConfig {
                num_as,
                // Denser blocks so 5-minute bins are widely feasible, as in
                // the paper's 600 dual-covered blocks.
                rate_mu: -3.2,
                ..TopologyConfig::default()
            },
            outages: OutageConfig {
                p_long_per_day: 0.03,
                p_short_per_day: 0.25,
                ..OutageConfig::default()
            },
            window_secs: durations::DAY,
            seed,
        })
    }

    /// Figure 1 preset: the temporal/spatial precision trade-off sweep
    /// wants the full dense→sparse spectrum, so a wide rate distribution.
    pub fn tradeoff(num_as: u32, seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            name: "fig1-tradeoff".into(),
            topology: TopologyConfig {
                num_as,
                rate_sigma: 2.2,
                ..TopologyConfig::default()
            },
            outages: OutageConfig::default(),
            window_secs: durations::DAY,
            seed,
        })
    }

    /// Figure 2a preset: one representative day with substantial IPv6
    /// deployment, for the v4-vs-v6 outage comparison. Outage injection
    /// rates are calibrated so ~5 % of measurable IPv4 blocks see a
    /// 10-minute outage (the paper's 2019-01-10 figure), with the IPv6
    /// multiplier pushing /48s to roughly double that.
    pub fn ipv6_day(num_as: u32, seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            name: "fig2-ipv6-day".into(),
            topology: TopologyConfig {
                num_as,
                v6_as_fraction: 0.45,
                v6_blocks_per_as: 4.0,
                ..TopologyConfig::default()
            },
            outages: OutageConfig {
                p_long_per_day: 0.045,
                p_short_per_day: 0.03,
                p_as_per_day: 0.005,
                ..OutageConfig::default()
            },
            window_secs: durations::DAY,
            seed,
        })
    }

    /// Week preset: seven days (the paper's full validation window,
    /// 2019-01-09 → 2019-01-15), with weekly seasonality — weekend
    /// traffic at 70 % of weekday levels — exercising the streaming
    /// monitor's daily recalibration.
    pub fn week(num_as: u32, seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            name: "week-validation".into(),
            topology: TopologyConfig {
                num_as,
                weekend_factor: 0.7,
                ..TopologyConfig::default()
            },
            outages: OutageConfig::default(),
            window_secs: durations::WEEK,
            seed,
        })
    }

    /// Paper-scale preset: the benchmark of record. The paper's B-root
    /// vantage tracks ~900k measurable blocks over multi-day windows,
    /// dominated by *sparse* blocks near the measurability floor; this
    /// preset reproduces that shape at a size CI-class machines can
    /// hold: a heavy-tailed per-block rate distribution (log-normal,
    /// median ≈ 4.5 × 10⁻⁵ q/s, σ = 2.0) whose mass sits far below one
    /// query per bin, a two-day window so diurnal learning and rotation
    /// both engage, and enough ASes that the default `num_as = 60_000`
    /// yields ≥ 500k blocks (~35M observations).
    ///
    /// The AS index occupies bits 16.. of the generated /24 addresses,
    /// so `num_as` must stay below 65 536 for prefixes to be unique —
    /// scale block count through `v4_blocks_per_as`, not more ASes.
    pub fn paper_scale(num_as: u32, seed: u64) -> Scenario {
        assert!(num_as < 65_536, "paper_scale: num_as must fit in 16 bits");
        Scenario::build(ScenarioConfig {
            name: "paper-scale".into(),
            topology: TopologyConfig {
                num_as,
                v4_blocks_per_as: 10.0,
                v6_as_fraction: 0.10,
                v6_blocks_per_as: 3.0,
                rate_mu: -10.0,
                rate_sigma: 2.0,
                rate_cap: 0.5,
                ..TopologyConfig::default()
            },
            outages: OutageConfig::default(),
            window_secs: 2 * durations::DAY,
            seed,
        })
    }

    /// Figure 2b preset: as [`Scenario::ipv6_day`], but ~78 % of blocks
    /// are *dark* — they exist (Trinocular probes them, the hitlist
    /// enumerates them) but never query the monitored service, modelling
    /// B-root's limited vantage (it sees only recursive resolvers,
    /// ≈ 20 % of the probe universe).
    pub fn ipv6_universe(num_as: u32, seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig {
            name: "fig2b-ipv6-universe".into(),
            topology: TopologyConfig {
                num_as,
                v6_as_fraction: 0.45,
                v6_blocks_per_as: 4.0,
                dark_fraction: 0.78,
                ..TopologyConfig::default()
            },
            outages: OutageConfig::default(),
            window_secs: durations::DAY,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::rng::cases;
    use outage_types::AddrFamily;

    #[test]
    fn quick_scenario_produces_traffic() {
        let s = Scenario::quick(1);
        let obs = s.collect_observations();
        assert!(obs.len() > 1_000, "only {} observations", obs.len());
        for w in obs.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // every observation's block exists in the topology
        for o in obs.iter().take(100) {
            assert!(s.internet.block(&o.block).is_some());
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = Scenario::quick(7).collect_observations();
        let b = Scenario::quick(7).collect_observations();
        assert_eq!(a, b);
    }

    #[test]
    fn block_observations_matches_merged_stream() {
        let s = Scenario::quick(2);
        let block = s.internet.blocks()[0].prefix;
        let solo: Vec<_> = s.block_observations(&block).unwrap().collect();
        let from_merged: Vec<_> = s
            .collect_observations()
            .into_iter()
            .filter(|o| o.block == block)
            .collect();
        assert_eq!(solo, from_merged);
    }

    #[test]
    fn presets_differ_in_outage_mix() {
        let t1 = Scenario::table1(60, 5);
        let t3 = Scenario::table3(60, 5);
        let w = t1.window();
        let short = |s: &Scenario| {
            s.schedule
                .blocks_with_outages()
                .flat_map(|(_, set)| set.iter())
                .filter(|iv| iv.duration() < 660)
                .count()
        };
        let _ = w;
        assert!(
            short(&t3) > short(&t1),
            "table3 preset should be short-outage rich"
        );
    }

    #[test]
    fn thinned_service_view_is_a_subset_at_roughly_keep() {
        let s = Scenario::quick(4);
        let full: Vec<_> = s.collect_observations();
        let thin: Vec<_> = s.observations_for_service("c-root", 0.5).collect();
        // roughly half, and every observation appears in the full stream
        let ratio = thin.len() as f64 / full.len() as f64;
        assert!((0.45..0.55).contains(&ratio), "ratio {ratio}");
        let full_set: std::collections::HashSet<_> = full.iter().collect();
        assert!(thin.iter().all(|o| full_set.contains(o)));
        // deterministic per service name, different across names
        let thin2: Vec<_> = s.observations_for_service("c-root", 0.5).collect();
        assert_eq!(thin, thin2);
        let other: Vec<_> = s.observations_for_service("ntp-pool", 0.5).collect();
        assert_ne!(thin, other);
    }

    #[test]
    fn keep_one_is_identity_keep_zero_is_empty() {
        let s = Scenario::quick(5);
        assert_eq!(
            s.observations_for_service("x", 1.0).count(),
            s.observations().count()
        );
        assert_eq!(s.observations_for_service("x", 0.0).count(), 0);
    }

    #[test]
    fn paper_scale_has_heavy_tailed_sparse_density() {
        // Small-size build of the preset: the *shape* must hold at any
        // size — two-day window, rates spanning orders of magnitude,
        // and a population dominated by blocks too sparse to measure
        // alone (the paper's reason aggregation exists).
        let s = Scenario::paper_scale(60, 9);
        assert_eq!(s.window().duration(), 2 * durations::DAY);
        let rates: Vec<f64> = s
            .internet
            .blocks()
            .iter()
            .map(|b| b.base_rate)
            .filter(|&r| r > 0.0)
            .collect();
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 1e3, "span {min}..{max} not heavy-tailed");
        // Solo-measurability needs ≥ 4 queries in a 2-hour bin
        // (≈ 5.5 × 10⁻⁴ q/s); most of the population must sit below it.
        let sparse = rates.iter().filter(|&&r| r < 5.5e-4).count();
        assert!(
            sparse * 2 > rates.len(),
            "only {sparse}/{} blocks below the solo-measurable floor",
            rates.len()
        );
    }

    /// The benchmark of record must be reproducible: identical
    /// `(size, seed)` ⇒ identical world and identical feed, and the
    /// size knob must not leak into previously generated ASes.
    #[test]
    fn paper_scale_deterministic_in_size_and_seed() {
        cases(8, 1, |rng| {
            let (num_as, seed) = (rng.gen_range(5u32..40), rng.gen_range(0u64..1_000));
            let a = Scenario::paper_scale(num_as, seed);
            let b = Scenario::paper_scale(num_as, seed);
            assert_eq!(a.internet.blocks().len(), b.internet.blocks().len());
            for (x, y) in a.internet.blocks().iter().zip(b.internet.blocks()) {
                assert_eq!(x.prefix, y.prefix);
                assert_eq!(x.base_rate, y.base_rate);
            }
            let oa: Vec<_> = a.observations().take(2_000).collect();
            let ob: Vec<_> = b.observations().take(2_000).collect();
            assert_eq!(oa, ob);
        });
    }

    #[test]
    fn partitioned_streams_tile_the_full_stream() {
        let s = Scenario::quick(6);
        let full: Vec<_> = s.collect_observations();
        // Deterministic 3-way partition by a block hash.
        let shard_of = |p: &Prefix| match p {
            Prefix::V4 { addr, .. } => (addr >> 8) % 3,
            Prefix::V6 { addr, .. } => ((addr.get() >> 80) % 3) as u32,
        };
        let shards: Vec<Vec<_>> = (0..3u32)
            .map(|v| s.observations_where(|p| shard_of(p) == v).collect())
            .collect();
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), full.len());
        // Each shard is time-ordered, and the merge-sorted union is the
        // full stream exactly.
        for shard in &shards {
            assert!(shard.windows(2).all(|w| w[0].time <= w[1].time));
        }
        let mut union: Vec<_> = shards.concat();
        union.sort_by_key(|o| (o.time, o.block));
        let mut sorted_full = full.clone();
        sorted_full.sort_by_key(|o| (o.time, o.block));
        assert_eq!(union, sorted_full);
    }

    #[test]
    fn ipv6_day_has_substantial_v6() {
        let s = Scenario::ipv6_day(80, 3);
        let v6 = s.internet.count_of(AddrFamily::V6);
        let v4 = s.internet.count_of(AddrFamily::V4);
        assert!(v6 > 0);
        assert!(v6 as f64 / v4 as f64 > 0.1, "v6 {v6} vs v4 {v4}");
    }
}
