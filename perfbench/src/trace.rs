//! The outside-in trace: a transparent timing decorator around any
//! [`SchedulerPolicy`], and the replay of recorded `decide()` inputs
//! through a fresh policy, [`LookAheadDvs::analyze`] and
//! [`ScheduleBuilder::rebuild`].

use std::time::{Duration, Instant};

use eua_core::{make_policy, Candidate, InsertionMode, LookAheadDvs, ScheduleBuilder};
use eua_platform::{Frequency, SimTime};
use eua_sim::{
    Decision, DecisionExplanation, JobId, JobView, Platform, SchedContext, SchedEvent,
    SchedulerPolicy, TaskSet,
};

use crate::stats::Histogram;

/// What the decorator observed over one or more runs.
#[derive(Debug, Clone)]
pub struct DecideStats {
    pub calls: u64,
    pub decide: Duration,
    /// Time the decorator spent on its own bookkeeping, excluded from
    /// the engine's self time.
    pub bookkeeping: Duration,
    pub decide_ns: Histogram,
    pub gap_ns: Histogram,
    pub pending_sum: u64,
    pub pending_max: u64,
    pub aborts: u64,
    pub freq_changes: u64,
}

impl DecideStats {
    pub fn new() -> Self {
        DecideStats {
            calls: 0,
            decide: Duration::ZERO,
            bookkeeping: Duration::ZERO,
            decide_ns: Histogram::new(),
            gap_ns: Histogram::new(),
            pending_sum: 0,
            pending_max: 0,
            aborts: 0,
            freq_changes: 0,
        }
    }

    pub fn merge(&mut self, o: &DecideStats) {
        self.calls += o.calls;
        self.decide += o.decide;
        self.bookkeeping += o.bookkeeping;
        self.decide_ns.merge(&o.decide_ns);
        self.gap_ns.merge(&o.gap_ns);
        self.pending_sum += o.pending_sum;
        self.pending_max = self.pending_max.max(o.pending_max);
        self.aborts += o.aborts;
        self.freq_changes += o.freq_changes;
    }
}

/// One recorded `decide()` input, owned so it outlives the run.
pub struct RecordedCtx {
    now: SimTime,
    event: SchedEvent,
    jobs: Vec<JobView>,
    running: Option<JobId>,
    energy_used: f64,
}

impl RecordedCtx {
    fn view<'a>(&'a self, tasks: &'a TaskSet, platform: &'a Platform) -> SchedContext<'a> {
        SchedContext {
            now: self.now,
            event: self.event,
            jobs: &self.jobs,
            tasks,
            platform,
            running: self.running,
            energy_used: self.energy_used,
        }
    }
}

/// Times every `decide()` of the wrapped policy and forwards every
/// trait method unchanged, so a decorated run must produce the same
/// metrics and certificate as an undecorated one. With `record` set it
/// also keeps each context and decision for [`replay`].
pub struct TimingPolicy<P> {
    inner: P,
    pub stats: DecideStats,
    last_exit: Option<Instant>,
    last_frequency: Option<Frequency>,
    record: bool,
    pub contexts: Vec<RecordedCtx>,
    pub decisions: Vec<Decision>,
}

impl<P: SchedulerPolicy> TimingPolicy<P> {
    pub fn new(inner: P, record: bool) -> Self {
        TimingPolicy {
            inner,
            stats: DecideStats::new(),
            last_exit: None,
            last_frequency: None,
            record,
            contexts: Vec::new(),
            decisions: Vec::new(),
        }
    }
}

impl<P: SchedulerPolicy> SchedulerPolicy for TimingPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let enter = Instant::now();
        let decision = self.inner.decide(ctx);
        let exit = Instant::now();
        let s = &mut self.stats;
        let took = exit - enter;
        s.calls += 1;
        s.decide += took;
        s.decide_ns.record(took.as_nanos() as u64);
        if let Some(prev) = self.last_exit {
            s.gap_ns.record((enter - prev).as_nanos() as u64);
        }
        let pending = ctx.jobs.len() as u64;
        s.pending_sum += pending;
        s.pending_max = s.pending_max.max(pending);
        s.aborts += decision.abort.len() as u64;
        if self.last_frequency.is_some_and(|f| f != decision.frequency) {
            s.freq_changes += 1;
        }
        self.last_frequency = Some(decision.frequency);
        if self.record {
            self.contexts.push(RecordedCtx {
                now: ctx.now,
                event: ctx.event,
                jobs: ctx.jobs.to_vec(),
                running: ctx.running,
                energy_used: ctx.energy_used,
            });
            self.decisions.push(decision.clone());
        }
        let done = Instant::now();
        s.bookkeeping += done - exit;
        self.last_exit = Some(done);
        decision
    }

    fn reset(&mut self) {
        self.last_exit = None;
        self.last_frequency = None;
        self.inner.reset();
    }

    fn certify(&mut self, on: bool) {
        self.inner.certify(on);
    }

    fn explain(&self) -> Option<DecisionExplanation> {
        self.inner.explain()
    }
}

/// The policy layers a replay separates.
#[derive(Debug, Clone, Default)]
pub struct ReplaySplit {
    pub replay: Duration,
    pub dvs: Duration,
    pub build: Duration,
    pub build_candidates: u64,
    pub build_accepted: u64,
}

impl ReplaySplit {
    pub fn merge(&mut self, o: &ReplaySplit) {
        self.replay += o.replay;
        self.dvs += o.dvs;
        self.build += o.build;
        self.build_candidates += o.build_candidates;
        self.build_accepted += o.build_accepted;
    }

    /// Scoring: what the fresh policy spent outside DVS and building.
    pub fn score(&self) -> Duration {
        self.replay.saturating_sub(self.dvs + self.build)
    }
}

/// How a policy keys its greedy schedule, for the policies the
/// workloads replay that build one.
#[derive(Clone, Copy)]
enum Keying {
    /// EUA\*: utility per unit energy at `f_m`; stops at the first
    /// infeasible insertion.
    Uer,
    /// DASA: utility per remaining cycle; skips infeasible insertions.
    Density,
}

fn keying(policy: &str) -> Option<Keying> {
    match policy {
        "eua" => Some(Keying::Uer),
        "dasa" => Some(Keying::Density),
        _ => None,
    }
}

fn uses_look_ahead(policy: &str) -> bool {
    matches!(policy, "eua" | "laedf")
}

/// The candidate set the policy hands its builder, recomputed from
/// public inputs: jobs that can still finish by their termination time
/// at `f_m`, keyed as the policy keys them.
fn candidates(ctx: &SchedContext<'_>, keying: Keying, out: &mut Vec<Candidate>) {
    out.clear();
    let f_m = ctx.platform.f_max();
    let per_cycle = ctx.platform.energy().energy_per_cycle(f_m);
    for j in ctx.jobs {
        let predicted = ctx.now.saturating_add(f_m.execution_time(j.remaining));
        if predicted > j.termination {
            continue;
        }
        let utility = ctx
            .tasks
            .task(j.task)
            .tuf()
            .utility(predicted.saturating_since(j.arrival));
        let key = match keying {
            Keying::Uer => utility / (per_cycle * j.remaining.as_f64()),
            Keying::Density => utility / j.remaining.as_f64(),
        };
        out.push(Candidate::from_view(j, key));
    }
}

/// Replays recorded contexts, in order, through a fresh instance of
/// `policy` (every decision must equal the recorded one), then through
/// a fresh [`LookAheadDvs`] and a fresh [`ScheduleBuilder`] for the
/// policies that use them (the built schedule's head must be the job
/// the recorded decision ran).
///
/// # Errors
///
/// The first divergence from the recorded run.
pub fn replay(
    policy: &str,
    tasks: &TaskSet,
    platform: &Platform,
    contexts: &[RecordedCtx],
    decisions: &[Decision],
) -> Result<ReplaySplit, String> {
    let mut split = ReplaySplit::default();
    let mut fresh = make_policy(policy).ok_or_else(|| format!("unknown policy {policy}"))?;
    fresh.reset();
    fresh.certify(false);
    for (i, (rec, want)) in contexts.iter().zip(decisions).enumerate() {
        let ctx = rec.view(tasks, platform);
        let t = Instant::now();
        let got = fresh.decide(&ctx);
        split.replay += t.elapsed();
        if &got != want {
            return Err(format!(
                "{policy}: replayed decision {i} at {} us is {got:?}, recorded {want:?}",
                rec.now.as_micros()
            ));
        }
    }
    if uses_look_ahead(policy) {
        let mut dvs = LookAheadDvs::new();
        for rec in contexts {
            let ctx = rec.view(tasks, platform);
            let t = Instant::now();
            let analysis = dvs.analyze(&ctx);
            split.dvs += t.elapsed();
            std::hint::black_box(analysis);
        }
    }
    if let Some(keying) = keying(policy) {
        let mode = match keying {
            Keying::Uer => InsertionMode::BreakOnInfeasible,
            Keying::Density => InsertionMode::SkipInfeasible,
        };
        let mut builder = ScheduleBuilder::new();
        let mut buf = Vec::new();
        for (i, (rec, want)) in contexts.iter().zip(decisions).enumerate() {
            let ctx = rec.view(tasks, platform);
            candidates(&ctx, keying, &mut buf);
            split.build_candidates += buf.iter().filter(|c| c.key > 0.0).count() as u64;
            let t = Instant::now();
            let schedule = builder.rebuild(ctx.now, &mut buf, platform.f_max(), mode);
            split.build += t.elapsed();
            split.build_accepted += schedule.len() as u64;
            let head = schedule.first().map(|c| c.id);
            if head != want.run {
                return Err(format!(
                    "{policy}: replayed schedule {i} starts with {head:?}, recorded run {:?}",
                    want.run
                ));
            }
        }
    }
    Ok(split)
}
