//! The two workloads whose unit is one `Engine::run` call:
//! `fig2-sweep` (the paper's Figure 2 experiment) and
//! `overload-backlog` (sustained overload at a fixed pending level).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use eua_core::make_policy;
use eua_platform::{EnergySetting, TimeDelta};
use eua_sim::{Engine, Metrics, Platform, SchedulerPolicy, SimConfig, Task, TaskSet};
use eua_tuf::Tuf;
use eua_uam::demand::DemandModel;
use eua_uam::generator::ArrivalPattern;
use eua_uam::{Assurance, UamSpec};
use eua_workload::fig2_workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::digest::{metrics_digest, Verifier};
use crate::heap;
use crate::report::{Layers, Report};
use crate::stats::{median, quantile, tail_percentile};
use crate::trace::{replay, ReplaySplit, TimingPolicy};
use crate::calib::{HostClock, Span};
use crate::{mix, SetupClock, Workload};

/// A task set with its arrival patterns and platform.
pub struct Input {
    tasks: TaskSet,
    patterns: Vec<ArrivalPattern>,
    platform: Platform,
}

/// One timed `Engine::run` call.
pub struct Unit {
    input: usize,
    policy: &'static str,
    run_seed: u64,
    horizon: TimeDelta,
    label: String,
}

pub struct Plan {
    inputs: Vec<Input>,
    units: Vec<Unit>,
    /// Units run once during set-up, before any timing.
    warmup: Vec<usize>,
}

const FIG2_POLICIES: [&str; 5] = ["eua", "laedf", "ccedf", "edf-na", "edf"];
const FIG2_RUN_SEEDS: u64 = 3;
const BACKLOG_POLICIES: [&str; 3] = ["eua", "dasa", "edf"];
/// Pending levels. Three levels times three policies gives nine unit
/// groups, so the median of all samples falls inside one group instead
/// of on the boundary between two.
const BACKLOG_LEVELS: [usize; 3] = [64, 128, 256];
const BACKLOG_VARIANTS: u64 = 12;

/// The task-set synthesis seed of the `fig2` binary. Synthesis draws
/// each task's window, so other seeds change how many events a unit
/// has by tens of percent; the benchmark's seed picks the run seeds.
const FIG2_WORKLOAD_SEED: u64 = 42;

/// Table 1 task sets at loads 0.2..=1.8 under E1 and E3, the paper's
/// five Figure 2 policies, 20 simulated seconds, three run seeds drawn
/// from `seed` (they drive demand sampling).
pub fn fig2_plan(seed: u64) -> Result<Plan, String> {
    let mut inputs = Vec::new();
    let mut units = Vec::new();
    let mut warmup = Vec::new();
    let horizon = TimeDelta::from_secs(20);
    for setting in [EnergySetting::e1(), EnergySetting::e3()] {
        let platform = Platform::powernow(setting);
        for step in 1..=9u32 {
            let load = 0.2 * f64::from(step);
            let w = fig2_workload(load, FIG2_WORKLOAD_SEED, platform.f_max())
                .map_err(|e| format!("fig2 workload at load {load:.1}: {e}"))?;
            let input = inputs.len();
            inputs.push(Input {
                tasks: w.tasks,
                patterns: w.patterns,
                platform: platform.clone(),
            });
            for policy in FIG2_POLICIES {
                for r in 0..FIG2_RUN_SEEDS {
                    if step == 5 && r == 0 {
                        warmup.push(units.len());
                    }
                    units.push(Unit {
                        input,
                        policy,
                        run_seed: mix(seed, 0x6649_4732 + r),
                        horizon,
                        label: format!("{} load {load:.1} {policy} run {r}", setting.name()),
                    });
                }
            }
        }
    }
    Ok(Plan {
        inputs,
        units,
        warmup,
    })
}

/// `n` tasks share a 40 ms window with phase-staggered periodic
/// arrivals and deterministic demands at aggregate load 2.0, so about
/// `n` jobs stay pending at every event. Step utilities 1..=8 occur
/// equally often; the seed shuffles which task gets which, so every
/// seed poses the same amount of work in a different order.
fn backlog_input(n: usize, seed: u64) -> Result<Input, String> {
    let window = TimeDelta::from_millis(40);
    let cycles = (2 * window.as_micros() * 100) as f64 / n as f64;
    let mut utilities: Vec<u32> = (0..n as u32).map(|i| 1 + i % 8).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        utilities.swap(i, rng.gen_range(0..=i));
    }
    let mut tasks = Vec::with_capacity(n);
    let mut patterns = Vec::with_capacity(n);
    for (i, &utility) in utilities.iter().enumerate() {
        let utility = f64::from(utility);
        let task = Task::new(
            format!("b{i}"),
            Tuf::step(utility, window).map_err(|e| e.to_string())?,
            UamSpec::new(1, window).map_err(|e| e.to_string())?,
            DemandModel::deterministic(cycles).map_err(|e| e.to_string())?,
            Assurance::new(1.0, 0.5).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        tasks.push(task);
        let phase = TimeDelta::from_micros(window.as_micros() * i as u64 / n as u64);
        patterns
            .push(ArrivalPattern::periodic_with_phase(window, phase).map_err(|e| e.to_string())?);
    }
    Ok(Input {
        tasks: TaskSet::new(tasks).map_err(|e| e.to_string())?,
        patterns,
        platform: Platform::powernow(EnergySetting::e1()),
    })
}

/// Pending levels 64/128/256 x `eua`/`dasa`/`edf` x twelve seed-drawn
/// utility assignments, 200 simulated ms each.
pub fn backlog_plan(seed: u64) -> Result<Plan, String> {
    let mut inputs = Vec::new();
    let mut units = Vec::new();
    let mut warmup = Vec::new();
    for variant in 0..BACKLOG_VARIANTS {
        let variant_seed = mix(seed, 0x4241_434b + variant);
        for n in BACKLOG_LEVELS {
            let input = inputs.len();
            inputs.push(backlog_input(n, variant_seed)?);
            for policy in BACKLOG_POLICIES {
                if variant == 0 && n < 256 {
                    warmup.push(units.len());
                }
                units.push(Unit {
                    input,
                    policy,
                    run_seed: variant_seed,
                    horizon: TimeDelta::from_millis(200),
                    label: format!("pending {n} {policy} variant {variant}"),
                });
            }
        }
    }
    Ok(Plan {
        inputs,
        units,
        warmup,
    })
}

fn plan(workload: Workload, seed: u64) -> Result<Plan, String> {
    match workload {
        Workload::Fig2Sweep => fig2_plan(seed),
        _ => backlog_plan(seed),
    }
}

fn policy_for(unit: &Unit) -> Box<dyn SchedulerPolicy> {
    make_policy(unit.policy).unwrap_or_else(|| panic!("unknown policy {}", unit.policy))
}

/// One `Engine::run` of `unit` under `policy`; a panic or a simulation
/// error becomes `Err`.
fn run_unit<P: SchedulerPolicy>(
    plan: &Plan,
    unit: &Unit,
    policy: &mut P,
) -> Result<Metrics, String> {
    let input = &plan.inputs[unit.input];
    let config = SimConfig::new(unit.horizon);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Engine::run(
            &input.tasks,
            &input.patterns,
            &input.platform,
            policy,
            &config,
            unit.run_seed,
        )
    }));
    match outcome {
        Ok(Ok(out)) => Ok(out.metrics),
        Ok(Err(e)) => Err(format!("{}: simulation error: {e}", unit.label)),
        Err(_) => Err(format!("{}: panicked", unit.label)),
    }
}

/// Output invariants any correct run satisfies, whatever its seed.
fn sane(m: &Metrics) -> bool {
    m.energy.is_finite()
        && m.energy >= 0.0
        && m.total_utility <= m.max_possible_utility * (1.0 + 1e-9) + 1e-9
        && m.per_task
            .iter()
            .all(|t| t.completed + t.aborted_by_policy + t.aborted_by_termination <= t.arrived)
}

/// Checks one unit's output; returns whether it is accepted.
fn verify(verifier: &mut Verifier, pos: usize, unit: &Unit, m: &Metrics) -> bool {
    if !sane(m) {
        verifier.note(format!("{}: metrics violate basic invariants", unit.label));
        return false;
    }
    verifier.check(pos, metrics_digest(m), &unit.label)
}

/// Builds the inputs and runs the warm-up units once.
fn set_up(workload: Workload, seed: u64) -> Result<Plan, String> {
    let plan = plan(workload, seed)?;
    for &i in &plan.warmup {
        let unit = &plan.units[i];
        run_unit(&plan, unit, &mut policy_for(unit))?;
    }
    Ok(plan)
}

/// End-to-end run: whole passes over the unit list until `seconds` of
/// measuring, with set-up repeated between passes.
pub fn measure(workload: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let mut clock = HostClock::new();
    let mut setup = SetupClock::new(seconds);
    let plan = match setup.time(&mut clock, || set_up(workload, seed)) {
        Ok(p) => p,
        Err(e) => return report.fail(format!("set-up failed: {e}")),
    };
    let mut verifier = Verifier::new(workload.name(), &seed.to_string());
    let mut spans: Vec<Vec<Span>> = vec![Vec::new(); plan.units.len()];
    let mut peaks = vec![f64::INFINITY; plan.units.len()];
    let mut measured = 0.0;
    let mut passes = 0;
    while passes == 0 || measured < seconds {
        let start = Instant::now();
        for (pos, unit) in plan.units.iter().enumerate() {
            clock.tick();
            let mut policy = policy_for(unit);
            heap::reset_peak();
            let (result, span) = clock.span(|| run_unit(&plan, unit, &mut policy));
            peaks[pos] = peaks[pos].min(heap::peak_mb());
            report.attempted += 1;
            match result {
                Ok(m) if verify(&mut verifier, pos, unit, &m) => spans[pos].push(span),
                Ok(_) => report.failed += 1,
                Err(e) => {
                    report.failed += 1;
                    verifier.note(e);
                }
            }
        }
        measured += start.elapsed().as_secs_f64();
        passes += 1;
        while setup.due(measured) || (measured >= seconds && setup.remaining() > 0) {
            if let Err(e) = setup.time(&mut clock, || set_up(workload, seed)) {
                return report.fail(format!("set-up failed: {e}"));
            }
        }
    }
    clock.sample();
    report.note(format!(
        "measured {passes} passes of {} units in {measured:.2} s",
        plan.units.len()
    ));
    report.reference(&verifier);
    report.note(clock.describe());
    // Each unit's time is the median of its scaled passes.
    let mut unit_ms = Vec::new();
    let mut raw_ms = Vec::new();
    let mut simulated = 0.0;
    for (unit, s) in plan.units.iter().zip(&spans) {
        if !s.is_empty() {
            let scaled: Vec<f64> = s.iter().map(|&span| clock.scaled_ms(span)).collect();
            let raw: Vec<f64> = s.iter().map(|&span| span.raw_ms()).collect();
            unit_ms.push(median(&scaled));
            raw_ms.push(median(&raw));
            simulated += unit.horizon.as_secs_f64();
        }
    }
    let tail = tail_percentile(workload.tail_percentile(), unit_ms.len());
    report.note(format!(
        "each unit's time is the median of its {passes} passes; run_ms_tail is p{tail} over \
         {} units; sim_s_per_s is their simulated total over their time total",
        unit_ms.len()
    ));
    report.end_to_end(
        [setup.median(&clock), setup.raw_median()],
        [&unit_ms, &raw_ms],
        simulated,
        tail,
        quantile(&peaks, tail / 100.0),
    );
}

/// Traced-pass totals of one policy, for the per-policy share lines.
#[derive(Default)]
struct PolicyShare {
    run: Duration,
    decide: Duration,
    units: u64,
}

/// Traced run: per unit, an undecorated run (the reference output and
/// the overhead baseline), a decorated timing run, and a recording run
/// whose contexts are replayed and discarded.
pub fn trace(workload: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let t = Instant::now();
    let plan = match plan(workload, seed) {
        Ok(p) => p,
        Err(e) => return report.fail(format!("set-up failed: {e}")),
    };
    let build_time = t.elapsed();
    let mut verifier = Verifier::new(workload.name(), &seed.to_string());
    let mut layers = Layers::default();
    let mut clock = HostClock::new();
    let mut split = ReplaySplit::default();
    let mut untraced = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut generate = Duration::ZERO;
    let mut arrivals = 0u64;
    let mut shares: BTreeMap<&str, PolicyShare> = BTreeMap::new();
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for (pos, unit) in plan.units.iter().enumerate() {
            clock.tick();
            report.attempted += 1;
            match trace_unit(&plan, unit, pos, &mut verifier) {
                Ok(u) => {
                    untraced += u.untraced;
                    traced += u.traced;
                    layers.decide.merge(&u.stats);
                    split.merge(&u.split);
                    let share = shares.entry(unit.policy).or_default();
                    share.run += u.traced;
                    share.decide += u.stats.decide;
                    share.units += 1;
                }
                Err(e) => {
                    report.failed += 1;
                    verifier.note(e);
                }
            }
            let input = &plan.inputs[unit.input];
            let t = Instant::now();
            let mut rng = SmallRng::seed_from_u64(unit.run_seed);
            for p in &input.patterns {
                arrivals += p.generate(unit.horizon, &mut rng).len() as u64;
            }
            generate += t.elapsed();
        }
        passes += 1;
    }
    report.reference(&verifier);
    let n = (plan.units.len() as u64 * passes) as f64;
    for (policy, s) in &shares {
        let run = s.run.as_secs_f64();
        report.note(format!(
            "policy {policy}: run_ms {:.4} decide_ms {:.4} decide share {:.3} engine self share {:.3}",
            run * 1e3 / s.units as f64,
            s.decide.as_secs_f64() * 1e3 / s.units as f64,
            s.decide.as_secs_f64() / run,
            1.0 - s.decide.as_secs_f64() / run,
        ));
    }
    report.note(clock.describe());
    layers.units = n;
    layers.scale = clock.run_scale();
    layers.run = traced;
    layers.self_time = traced.saturating_sub(layers.decide.decide + layers.decide.bookkeeping);
    layers.split = split;
    layers.workload_build = build_time.mul_f64(passes as f64);
    layers.workload_generate = generate;
    layers.arrivals = arrivals;
    layers.covered = layers.self_time + layers.decide.decide;
    layers.program_wall = untraced;
    layers.traced_wall = traced;
    report.note(format!(
        "traced {passes} passes of {} units",
        plan.units.len()
    ));
    report.per_layer(&layers);
}

struct TracedUnit {
    untraced: Duration,
    traced: Duration,
    stats: crate::trace::DecideStats,
    split: ReplaySplit,
}

fn trace_unit(
    plan: &Plan,
    unit: &Unit,
    pos: usize,
    verifier: &mut Verifier,
) -> Result<TracedUnit, String> {
    let mut policy = policy_for(unit);
    let t = Instant::now();
    let plain = run_unit(plan, unit, &mut policy)?;
    let untraced = t.elapsed();
    if !verify(verifier, pos, unit, &plain) {
        return Err(format!("{}: untraced output rejected", unit.label));
    }
    let want = metrics_digest(&plain);

    let mut timed = TimingPolicy::new(policy_for(unit), false);
    let t = Instant::now();
    let m = run_unit(plan, unit, &mut timed)?;
    let traced = t.elapsed();
    if metrics_digest(&m) != want {
        return Err(format!("{}: decorated run changed the metrics", unit.label));
    }

    let mut recording = TimingPolicy::new(policy_for(unit), true);
    let m = run_unit(plan, unit, &mut recording)?;
    if metrics_digest(&m) != want {
        return Err(format!("{}: recording run changed the metrics", unit.label));
    }
    let input = &plan.inputs[unit.input];
    let split = replay(
        unit.policy,
        &input.tasks,
        &input.platform,
        &recording.contexts,
        &recording.decisions,
    )
    .map_err(|e| format!("{}: replay diverged: {e}", unit.label))?;
    Ok(TracedUnit {
        untraced,
        traced,
        stats: timed.stats,
        split,
    })
}

/// Emits the reference line for `seed`: one digest per unit, in order.
pub fn reference_line(workload: Workload, seed: u64) -> Result<String, String> {
    let plan = plan(workload, seed)?;
    let mut digests = Vec::new();
    for unit in &plan.units {
        let m = run_unit(&plan, unit, &mut policy_for(unit))?;
        if !sane(&m) {
            return Err(format!("{}: metrics violate basic invariants", unit.label));
        }
        digests.push(metrics_digest(&m));
    }
    Ok(crate::digest::reference_line(&seed.to_string(), &digests))
}
