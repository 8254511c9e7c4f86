#![allow(clippy::expect_used)] // test/demo code: panicking on bad setup is the point

//! Cross-crate check of the parallel sweep runner: `replicate_parallel`
//! at any worker count must be **bit-identical** to its `jobs = 1` run
//! on the calling thread — same metrics, same seed order — on a real
//! paper workload.

use eua::core::Eua;
use eua::platform::{EnergySetting, TimeDelta};
use eua::sim::{replicate_parallel, Platform, SimConfig};
use eua::workload::{fig2_workload, fig3_workload};

const SEEDS: [u64; 6] = [17, 2, 9, 41, 3, 28];

#[test]
fn parallel_replicate_is_bit_identical_on_fig2_workload() {
    let platform = Platform::powernow(EnergySetting::e1());
    let w = fig2_workload(0.8, 42, platform.f_max()).expect("workload");
    let config = SimConfig::new(TimeDelta::from_secs(2));

    let sequential = replicate_parallel(
        &w.tasks,
        &w.patterns,
        &platform,
        Eua::new,
        &config,
        &SEEDS,
        1,
    )
    .expect("sequential run");
    assert_eq!(
        sequential.runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
        SEEDS.to_vec(),
        "runs follow the seed list"
    );

    for jobs in [2, 3, 8] {
        let parallel = replicate_parallel(
            &w.tasks,
            &w.patterns,
            &platform,
            Eua::new,
            &config,
            &SEEDS,
            jobs,
        )
        .expect("parallel run");
        assert_eq!(
            parallel.runs.len(),
            sequential.runs.len(),
            "jobs={jobs}: run count"
        );
        for (p, s) in parallel.runs.iter().zip(&sequential.runs) {
            assert_eq!(p.seed, s.seed, "jobs={jobs}: seed order must match");
            assert_eq!(
                p.metrics, s.metrics,
                "jobs={jobs} seed={}: metrics must be bit-identical",
                p.seed
            );
        }
    }
}

#[test]
fn parallel_replicate_is_bit_identical_on_bursty_workload() {
    // ⟨3, P⟩ random-burst arrivals exercise the stochastic generator paths.
    let platform = Platform::powernow(EnergySetting::e3());
    let w = fig3_workload(1.2, 3, 42, platform.f_max()).expect("workload");
    let config = SimConfig::new(TimeDelta::from_secs(1));

    let sequential = replicate_parallel(
        &w.tasks,
        &w.patterns,
        &platform,
        Eua::new,
        &config,
        &SEEDS,
        1,
    )
    .expect("sequential run");
    assert_eq!(
        sequential.runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
        SEEDS.to_vec(),
        "runs follow the seed list"
    );
    let parallel = replicate_parallel(
        &w.tasks,
        &w.patterns,
        &platform,
        Eua::new,
        &config,
        &SEEDS,
        4,
    )
    .expect("parallel run");
    assert_eq!(parallel.runs.len(), sequential.runs.len());
    for (p, s) in parallel.runs.iter().zip(&sequential.runs) {
        assert_eq!(p.seed, s.seed);
        assert_eq!(p.metrics, s.metrics);
    }
}
