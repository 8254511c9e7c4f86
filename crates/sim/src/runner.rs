//! Multi-seed replication: run the same configuration under several seeds
//! and aggregate the metrics, as the paper's plotted points do.

use eua_uam::generator::ArrivalPattern;

use crate::engine::{Engine, SimConfig};
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::platform_view::Platform;
use crate::policy::SchedulerPolicy;
use crate::task::TaskSet;

/// One replication's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// The seed that produced it.
    pub seed: u64,
    /// Its metrics.
    pub metrics: Metrics,
}

/// Aggregated replications of one `(workload, platform, policy)` triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The per-seed runs.
    pub runs: Vec<Replication>,
}

impl Summary {
    /// Mean of an arbitrary metric across runs.
    pub fn mean_by(&self, f: impl Fn(&Metrics) -> f64) -> f64 {
        self.runs.iter().map(|r| f(&r.metrics)).sum::<f64>() / self.runs.len() as f64
    }

    /// Sample standard deviation of an arbitrary metric across runs
    /// (zero for a single run).
    pub fn std_by(&self, f: impl Fn(&Metrics) -> f64) -> f64 {
        if self.runs.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_by(&f);
        let var = self
            .runs
            .iter()
            .map(|r| {
                let d = f(&r.metrics) - mean;
                d * d
            })
            .sum::<f64>()
            / (self.runs.len() - 1) as f64;
        var.sqrt()
    }

    /// Mean accrued utility.
    #[must_use]
    pub fn mean_utility(&self) -> f64 {
        self.mean_by(|m| m.total_utility)
    }

    /// Mean energy consumption.
    #[must_use]
    pub fn mean_energy(&self) -> f64 {
        self.mean_by(|m| m.energy)
    }

    /// Mean utility ratio (accrued / ceiling).
    #[must_use]
    pub fn mean_utility_ratio(&self) -> f64 {
        self.mean_by(Metrics::utility_ratio)
    }

    /// An approximate 95% confidence half-width for the mean of an
    /// arbitrary metric (`1.96·s/√n`; zero for fewer than two runs).
    pub fn ci95_by(&self, f: impl Fn(&Metrics) -> f64) -> f64 {
        if self.runs.len() < 2 {
            return 0.0;
        }
        1.96 * self.std_by(f) / (self.runs.len() as f64).sqrt()
    }
}

/// Runs the policy under every seed in `seeds`, fanned out over the
/// [`crate::pool`] worker pool, and collects the metrics.
///
/// Policies are constructed **per worker** through `policy_factory` (one
/// policy value per worker thread, reset by the engine before each seed),
/// so the factory must be `Sync` but the policy itself never crosses
/// threads. Runs are re-assembled in the order of `seeds`, and each run
/// is an independent deterministic simulation, so the returned
/// [`Summary`] is **bit-identical** for any `jobs` count; `jobs = 1`
/// runs the pool's worker loop on the calling thread.
///
/// # Errors
///
/// Returns [`SimError::ZeroReplications`] for an empty seed list,
/// [`SimError::Pool`] for the first (in seed order) run that panicked,
/// or else the first per-run error.
pub fn replicate_parallel<P, F>(
    tasks: &TaskSet,
    patterns: &[ArrivalPattern],
    platform: &Platform,
    policy_factory: F,
    config: &SimConfig,
    seeds: &[u64],
    jobs: usize,
) -> Result<Summary, SimError>
where
    P: SchedulerPolicy,
    F: Fn() -> P + Sync,
{
    if seeds.is_empty() {
        return Err(SimError::ZeroReplications);
    }
    let results = crate::pool::map_parallel_settle(
        jobs,
        seeds.to_vec(),
        |_, seed| format!("seed {seed}"),
        &policy_factory,
        |policy, _, seed| {
            Engine::run(tasks, patterns, platform, policy, config, seed).map(|outcome| {
                Replication {
                    seed,
                    metrics: outcome.metrics,
                }
            })
        },
    )
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let runs = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Summary { runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eua_platform::{EnergySetting, TimeDelta};
    use eua_tuf::Tuf;
    use eua_uam::demand::DemandModel;
    use eua_uam::{Assurance, UamSpec};

    use crate::policy::MaxSpeedEdf;
    use crate::task::Task;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn setup() -> (TaskSet, Vec<ArrivalPattern>, Platform, SimConfig) {
        let task = Task::new(
            "t",
            Tuf::step(5.0, ms(10)).unwrap(),
            UamSpec::new(2, ms(10)).unwrap(),
            DemandModel::normal(100_000.0, 100_000.0).unwrap(),
            Assurance::new(1.0, 0.9).unwrap(),
        )
        .unwrap();
        let tasks = TaskSet::new(vec![task]).unwrap();
        let patterns =
            vec![ArrivalPattern::random_burst(UamSpec::new(2, ms(10)).unwrap()).unwrap()];
        (
            tasks,
            patterns,
            Platform::powernow(EnergySetting::e1()),
            SimConfig::new(ms(300)),
        )
    }

    fn replicate(
        (tasks, patterns, platform, config): &(TaskSet, Vec<ArrivalPattern>, Platform, SimConfig),
        seeds: &[u64],
        jobs: usize,
    ) -> Result<Summary, SimError> {
        replicate_parallel(
            tasks,
            patterns,
            platform,
            MaxSpeedEdf::new,
            config,
            seeds,
            jobs,
        )
    }

    #[test]
    fn replicate_aggregates_all_seeds() {
        let summary = replicate(&setup(), &[1, 2, 3, 4], 1).unwrap();
        assert_eq!(summary.runs.len(), 4);
        assert!(summary.mean_utility() > 0.0);
        assert!(summary.mean_energy() > 0.0);
        assert!(summary.mean_utility_ratio() > 0.0);
        // Different seeds actually vary the workload.
        assert!(summary.std_by(|m| m.total_utility) > 0.0);
    }

    #[test]
    fn single_run_has_zero_std() {
        let summary = replicate(&setup(), &[7], 1).unwrap();
        assert_eq!(summary.std_by(|m| m.energy), 0.0);
        assert_eq!(summary.ci95_by(|m| m.energy), 0.0);
    }

    #[test]
    fn ci95_scales_with_std() {
        let summary = replicate(&setup(), &[1, 2, 3, 4], 1).unwrap();
        let std = summary.std_by(|m| m.total_utility);
        let ci = summary.ci95_by(|m| m.total_utility);
        assert!((ci - 1.96 * std / 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_seed_list_rejected() {
        for jobs in [1, 4] {
            let err = replicate(&setup(), &[], jobs).unwrap_err();
            assert_eq!(err, SimError::ZeroReplications, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_replication_is_bit_identical_to_sequential() {
        let fixture = setup();
        let seeds = [9u64, 1, 5, 3, 7, 2]; // deliberately unsorted
        let sequential = replicate(&fixture, &seeds, 1).unwrap();
        assert_eq!(
            sequential.runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
            seeds.to_vec(),
            "run order must follow the seed list"
        );
        for jobs in [2, 4, 16] {
            let parallel = replicate(&fixture, &seeds, jobs).unwrap();
            assert_eq!(parallel, sequential, "jobs = {jobs}");
        }
    }
}
