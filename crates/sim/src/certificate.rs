//! Decision certificates: a self-contained, serializable record of every
//! scheduling decision (and every energy charge) an engine run made,
//! sufficient for an *offline* checker to re-derive the paper's
//! Algorithm-1/Algorithm-2 invariants without re-running the engine.
//!
//! Enable recording with [`crate::SimConfig::with_certificate`]; the run's
//! [`RunCertificate`] then appears on [`crate::Outcome::certificate`]. The
//! certificate embeds the full declarative context — frequency tables
//! (both the true table and the possibly fault-degraded view the policy
//! planned against), the Martin energy setting, every task's TUF and UAM
//! declaration, and the certified arrival stream — so `eua-audit` (the
//! independent checker in `crates/audit`) needs nothing but the file.
//!
//! [`RunCertificate::render`] streams through `json::Writer`,
//! the layout writer `Json::render` also uses, and `parse` reads the
//! borrowing [`crate::json`] tree, so text round-trips byte for byte.

use eua_platform::{Cycles, Frequency, SimTime, TimeDelta};
use eua_tuf::Tuf;

use crate::context::{JobView, SchedEvent};
use crate::ids::{JobId, TaskId};
use crate::json::{parse as json_parse, Json, Writer};
use crate::task::Task;

/// The format tag pinned into every certificate this module writes.
pub const CERT_FORMAT: &str = "eua-certificate/1";

/// A declarative snapshot of one task, sufficient to re-evaluate its TUF,
/// UAM bound, and Chebyshev allocation offline.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDecl {
    /// The task's name.
    pub name: String,
    /// Its time/utility function.
    pub tuf: TufDecl,
    /// UAM arrival bound `a` (max arrivals per window).
    pub max_arrivals: u32,
    /// UAM sliding window `P`.
    pub window: TimeDelta,
    /// The Chebyshev cycle allocation `c_i` policies plan with.
    pub allocation: Cycles,
    /// Critical-time offset `D_i` from arrival.
    pub critical_offset: TimeDelta,
    /// Termination-time offset from arrival.
    pub termination_offset: TimeDelta,
}

impl TaskDecl {
    /// Captures a task's declarative surface.
    #[must_use]
    pub fn from_task(task: &Task) -> Self {
        TaskDecl {
            name: task.name().to_string(),
            tuf: TufDecl::from_tuf(task.tuf()),
            max_arrivals: task.uam().max_arrivals(),
            window: task.uam().window(),
            allocation: task.allocation(),
            critical_offset: task.critical_offset(),
            termination_offset: task.termination_offset(),
        }
    }
}

/// A serializable TUF shape (mirrors the constructors of [`Tuf`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TufDecl {
    /// Constant `umax` until `step_at`, zero afterwards, schedulable until
    /// `termination`.
    Step {
        /// Utility before the step.
        umax: f64,
        /// The step (deadline) offset.
        step_at: TimeDelta,
        /// Termination offset.
        termination: TimeDelta,
    },
    /// Linear decay from `umax` to zero at `termination`.
    Linear {
        /// Utility at release.
        umax: f64,
        /// The x-intercept offset.
        termination: TimeDelta,
    },
    /// Exponential decay `umax·e^(−t/τ)` truncated at `termination`.
    Exponential {
        /// Utility at release.
        umax: f64,
        /// Decay constant τ.
        tau: TimeDelta,
        /// Termination offset.
        termination: TimeDelta,
    },
    /// Piecewise-linear over `(offset, utility)` breakpoints.
    Piecewise {
        /// Breakpoints in declaration order.
        points: Vec<(TimeDelta, f64)>,
    },
}

impl TufDecl {
    /// Lowers a validated [`Tuf`] into its declarative form.
    #[must_use]
    pub fn from_tuf(tuf: &Tuf) -> Self {
        match tuf {
            Tuf::Step(s) => TufDecl::Step {
                umax: s.height(),
                step_at: s.step_at(),
                termination: tuf.termination(),
            },
            Tuf::Linear(l) => TufDecl::Linear {
                umax: l.umax(),
                termination: tuf.termination(),
            },
            Tuf::Exponential(e) => TufDecl::Exponential {
                umax: tuf.max_utility(),
                tau: e.tau(),
                termination: tuf.termination(),
            },
            Tuf::Piecewise(p) => TufDecl::Piecewise {
                points: p.breakpoints().to_vec(),
            },
            // `Tuf` is non-exhaustive upstream; unknown future shapes
            // degrade to their linear envelope.
            _ => TufDecl::Linear {
                umax: tuf.max_utility(),
                termination: tuf.termination(),
            },
        }
    }

    /// The shape's display name.
    #[must_use]
    pub fn shape_name(&self) -> &'static str {
        match self {
            TufDecl::Step { .. } => "step",
            TufDecl::Linear { .. } => "linear",
            TufDecl::Exponential { .. } => "exponential",
            TufDecl::Piecewise { .. } => "piecewise",
        }
    }

    /// Raises the declaration back into an evaluable [`Tuf`].
    ///
    /// # Errors
    ///
    /// A human-readable message when the declared parameters violate the
    /// shape's constructor contract.
    pub fn to_tuf(&self) -> Result<Tuf, String> {
        match self {
            TufDecl::Step {
                umax,
                step_at,
                termination,
            } => eua_tuf::StepTuf::with_termination(*umax, *step_at, *termination)
                .map(Tuf::from)
                .map_err(|e| format!("step tuf: {e}")),
            TufDecl::Linear { umax, termination } => {
                Tuf::linear(*umax, *termination).map_err(|e| format!("linear tuf: {e}"))
            }
            TufDecl::Exponential {
                umax,
                tau,
                termination,
            } => Tuf::exponential(*umax, *tau, *termination)
                .map_err(|e| format!("exponential tuf: {e}")),
            TufDecl::Piecewise { points } => {
                Tuf::piecewise(points.iter().copied()).map_err(|e| format!("piecewise tuf: {e}"))
            }
        }
    }
}

/// A live job as the policy saw it at a decision instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSnapshot {
    /// The job's id.
    pub job: JobId,
    /// The owning task (index into the certificate's task table).
    pub task: TaskId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Absolute critical time.
    pub critical: SimTime,
    /// Absolute termination time.
    pub termination: SimTime,
    /// Believed remaining cycles.
    pub remaining: Cycles,
}

impl JobSnapshot {
    /// Snapshots a [`JobView`].
    #[must_use]
    pub fn from_view(view: &JobView) -> Self {
        JobSnapshot {
            job: view.id,
            task: view.task,
            arrival: view.arrival,
            critical: view.critical_time,
            termination: view.termination,
            remaining: view.remaining,
        }
    }
}

/// One job's computed utility-and-energy ratio (UER) at a decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UerEntry {
    /// The job.
    pub job: JobId,
    /// Its UER: predicted utility per unit of energy at `f_m`.
    pub uer: f64,
}

/// One entry of the tentative schedule, with the back-to-back predicted
/// finish time at `f_m` that justified its feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The scheduled job.
    pub job: JobId,
    /// Predicted completion instant when the schedule runs back-to-back
    /// at the maximum (policy-view) frequency.
    pub predicted_finish: SimTime,
}

/// The infeasibility witness justifying one policy abort: even at `f_m`,
/// the job cannot finish before its termination time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortWitness {
    /// The aborted job.
    pub job: JobId,
    /// Its believed remaining cycles at the decision instant.
    pub remaining: Cycles,
    /// Its absolute termination time.
    pub termination: SimTime,
    /// `now + exec_time(remaining, f_m)` — past `termination`.
    pub predicted_finish: SimTime,
}

/// The stochastic look-ahead quantities (Algorithm 2) that justified the
/// chosen frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsExplanation {
    /// The required processor speed (cycles/µs) from the look-ahead.
    pub required_speed: f64,
    /// Total cycles that must run before the earliest critical time.
    pub must_run_cycles: f64,
    /// The earliest critical time driving the look-ahead horizon.
    pub earliest_critical: Option<SimTime>,
    /// The UER-optimal frequency clamp applied to the head job's task,
    /// when the clamp option was active.
    pub clamp: Option<Frequency>,
}

/// Everything the policy asserts about one decision, for offline
/// re-derivation. Policies that cannot explain themselves return `None`
/// from [`crate::SchedulerPolicy::explain`] and the auditor degrades to
/// engine-level checks for their events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionExplanation {
    /// Computed UERs for every feasible ready job.
    pub uer: Vec<UerEntry>,
    /// The tentative schedule, critical-time ordered, with predicted
    /// finish times.
    pub schedule: Vec<ScheduleEntry>,
    /// Witnesses for every abort the decision requested.
    pub aborts: Vec<AbortWitness>,
    /// The DVS look-ahead, when frequency scaling was active.
    pub dvs: Option<DvsExplanation>,
    /// `true` when the insertion mode skips infeasible candidates rather
    /// than stopping at the first one.
    pub skip_infeasible: bool,
}

/// One scheduling event: what the policy saw and what it decided.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// The decision instant.
    pub at: SimTime,
    /// What woke the scheduler.
    pub trigger: SchedEvent,
    /// The ready-job set, in arrival (= id) order.
    pub ready: Vec<JobSnapshot>,
    /// The job chosen to run (`None` = idle).
    pub run: Option<JobId>,
    /// The chosen frequency, as the policy requested it (before any
    /// fault-injected remap).
    pub frequency: Frequency,
    /// Jobs the decision aborted.
    pub aborts: Vec<JobId>,
    /// The policy's self-explanation, when it provides one.
    pub explanation: Option<DecisionExplanation>,
}

/// What kind of work a [`ChargeRecord`] billed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// Job execution cycles.
    Execute,
    /// Context/frequency switch overhead (billed as cycles at the target
    /// frequency).
    Switch,
    /// A fault-injected costly abort handler.
    AbortCost,
    /// Idle draw (`idle_power` per microsecond).
    Idle,
}

impl ChargeKind {
    /// The kind's serialized tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ChargeKind::Execute => "execute",
            ChargeKind::Switch => "switch",
            ChargeKind::AbortCost => "abort-cost",
            ChargeKind::Idle => "idle",
        }
    }
}

/// One energy charge the engine billed, mirroring every
/// `metrics.energy +=` site so cumulative energy is auditable per charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeRecord {
    /// When the charged interval started.
    pub at: SimTime,
    /// What was billed.
    pub kind: ChargeKind,
    /// The executing frequency in MHz (0 for idle charges).
    pub frequency_mhz: u64,
    /// Cycles billed (zero for idle charges).
    pub cycles: Cycles,
    /// Wall time covered, in µs.
    pub micros: u64,
    /// The energy charged.
    pub energy: f64,
}

/// The complete certificate of one engine run.
///
/// Produced by the engine when [`crate::SimConfig::with_certificate`] is
/// set; consumed by `eua-audit`, which re-derives every invariant from
/// this record alone.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCertificate {
    /// The policy's name.
    pub policy: String,
    /// The run's seed.
    pub seed: u64,
    /// The simulated horizon.
    pub horizon: TimeDelta,
    /// The true platform frequency table, in MHz, ascending.
    pub frequencies_mhz: Vec<u64>,
    /// The table the *policy* planned against — identical to
    /// `frequencies_mhz` unless a degraded-frequency fault restricted it.
    pub policy_frequencies_mhz: Vec<u64>,
    /// The Martin energy setting's name.
    pub energy_name: String,
    /// The setting's relative coefficients `(S3, S2, S1/f_m², S0/f_m³)`,
    /// bound to a table's `f_m` at audit time.
    pub energy_rel: (f64, f64, f64, f64),
    /// Idle power draw per microsecond.
    pub idle_power: f64,
    /// Declarative task table, indexed by [`TaskId`].
    pub tasks: Vec<TaskDecl>,
    /// The certified arrival stream `(instant, task index)`, time-ordered.
    pub arrivals: Vec<(SimTime, usize)>,
    /// Every scheduling decision, in order.
    pub events: Vec<EventRecord>,
    /// Every energy charge, in order.
    pub charges: Vec<ChargeRecord>,
    /// The run's final cumulative energy.
    pub final_energy: f64,
}

// ---------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------

impl RunCertificate {
    /// Renders the certificate as deterministic pretty-printed JSON,
    /// written field by field into one pre-sized buffer (no tree).
    #[must_use]
    pub fn render(&self) -> String {
        // A little more than the pretty layout spends per row: an event's
        // own fields, a ready job, and its UER and schedule entries.
        let rows: usize = self
            .events
            .iter()
            .map(|e| 1 + e.ready.len() * (1 + 2 * usize::from(e.explanation.is_some())))
            .sum();
        let mut out = String::with_capacity(256 * (rows + self.charges.len()));
        let mut w = Writer::pretty(&mut out);
        w.begin_obj();
        w.key("format").str(CERT_FORMAT);
        w.key("policy").str(&self.policy);
        w.key("seed").uint(self.seed);
        w.key("horizon_us").uint(self.horizon.as_micros());
        uint_arr(w.key("frequencies_mhz"), &self.frequencies_mhz);
        uint_arr(
            w.key("policy_frequencies_mhz"),
            &self.policy_frequencies_mhz,
        );
        let (s3, s2, s1_rel, s0_rel) = self.energy_rel;
        w.key("energy").begin_obj();
        w.key("name").str(&self.energy_name);
        w.key("s3").num(s3);
        w.key("s2").num(s2);
        w.key("s1_rel").num(s1_rel);
        w.key("s0_rel").num(s0_rel);
        w.end_obj();
        w.key("idle_power").num(self.idle_power);
        w.key("tasks").begin_arr();
        for t in &self.tasks {
            w.begin_obj().key("name").str(&t.name);
            w.key("tuf").begin_obj();
            w.key("shape").str(t.tuf.shape_name());
            match &t.tuf {
                TufDecl::Step { umax, step_at, .. } => {
                    w.key("umax").num(*umax);
                    w.key("step_at_us").uint(step_at.as_micros());
                }
                TufDecl::Linear { umax, .. } => {
                    w.key("umax").num(*umax);
                }
                TufDecl::Exponential { umax, tau, .. } => {
                    w.key("umax").num(*umax);
                    w.key("tau_us").uint(tau.as_micros());
                }
                TufDecl::Piecewise { points } => {
                    w.key("points").begin_arr();
                    for &(t, u) in points {
                        w.begin_arr().uint(t.as_micros()).num(u).end_arr();
                    }
                    w.end_arr();
                }
            }
            match &t.tuf {
                TufDecl::Step { termination, .. }
                | TufDecl::Linear { termination, .. }
                | TufDecl::Exponential { termination, .. } => {
                    w.key("termination_us").uint(termination.as_micros());
                }
                TufDecl::Piecewise { .. } => {}
            }
            w.end_obj();
            w.key("max_arrivals").uint(u64::from(t.max_arrivals));
            w.key("window_us").uint(t.window.as_micros());
            w.key("allocation_cycles").uint(t.allocation.get());
            w.key("critical_offset_us")
                .uint(t.critical_offset.as_micros());
            w.key("termination_offset_us")
                .uint(t.termination_offset.as_micros());
            w.end_obj();
        }
        w.end_arr();
        w.key("arrivals").begin_arr();
        for &(t, task) in &self.arrivals {
            w.begin_obj().key("at_us").uint(t.as_micros());
            w.key("task").uint(task as u64).end_obj();
        }
        w.end_arr();
        w.key("events").begin_arr();
        for e in &self.events {
            write_event(&mut w, e);
        }
        w.end_arr();
        w.key("charges").begin_arr();
        for c in &self.charges {
            w.begin_obj().key("at_us").uint(c.at.as_micros());
            w.key("kind").str(c.kind.as_str());
            w.key("frequency_mhz").uint(c.frequency_mhz);
            w.key("cycles").uint(c.cycles.get());
            w.key("micros").uint(c.micros);
            w.key("energy").num(c.energy).end_obj();
        }
        w.end_arr();
        w.key("final_energy").num(self.final_energy);
        w.end_obj();
        out.push('\n');
        out
    }

    /// Parses a rendered certificate.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first malformed field; the
    /// auditor maps any such failure to `aud-malformed-certificate`.
    pub fn parse(text: &str) -> Result<RunCertificate, String> {
        let doc = json_parse(text)?;
        let format = str_field(&doc, "format")?;
        if format != CERT_FORMAT {
            return Err(format!("unknown certificate format {format:?}"));
        }
        let energy = doc.get("energy").ok_or("missing energy object")?;
        Ok(RunCertificate {
            policy: str_field(&doc, "policy")?,
            seed: u64_field(&doc, "seed")?,
            horizon: delta_field(&doc, "horizon_us")?,
            frequencies_mhz: u64_arr(&doc, "frequencies_mhz")?,
            policy_frequencies_mhz: u64_arr(&doc, "policy_frequencies_mhz")?,
            energy_name: str_field(energy, "name")?,
            energy_rel: (
                f64_field(energy, "s3")?,
                f64_field(energy, "s2")?,
                f64_field(energy, "s1_rel")?,
                f64_field(energy, "s0_rel")?,
            ),
            idle_power: f64_field(&doc, "idle_power")?,
            tasks: list(&doc, "tasks", parse_task)?,
            arrivals: list(&doc, "arrivals", |a| {
                Ok((time_field(a, "at_us")?, u64_field(a, "task")? as usize))
            })?,
            events: list(&doc, "events", parse_event)?,
            charges: list(&doc, "charges", parse_charge)?,
            final_energy: f64_field(&doc, "final_energy")?,
        })
    }
}

fn uint_arr<'v>(w: &mut Writer<'_>, items: impl IntoIterator<Item = &'v u64>) {
    w.begin_arr();
    for &v in items {
        w.uint(v);
    }
    w.end_arr();
}

fn opt_uint(w: &mut Writer<'_>, v: Option<u64>) {
    match v {
        Some(v) => w.uint(v),
        None => w.null(),
    };
}

fn write_event(w: &mut Writer<'_>, e: &EventRecord) {
    w.begin_obj();
    w.key("at_us").uint(e.at.as_micros());
    let (kind, job) = match e.trigger {
        SchedEvent::Start => ("start", None),
        SchedEvent::Arrival => ("arrival", None),
        SchedEvent::Completion(j) => ("completion", Some(j)),
        SchedEvent::Abort(j) => ("abort", Some(j)),
    };
    w.key("trigger").begin_obj().key("kind").str(kind);
    if let Some(j) = job {
        w.key("job").uint(j.0);
    }
    w.end_obj();
    w.key("ready").begin_arr();
    for j in &e.ready {
        w.begin_obj().key("job").uint(j.job.0);
        w.key("task").uint(j.task.0 as u64);
        w.key("arrival_us").uint(j.arrival.as_micros());
        w.key("critical_us").uint(j.critical.as_micros());
        w.key("termination_us").uint(j.termination.as_micros());
        w.key("remaining_cycles").uint(j.remaining.get()).end_obj();
    }
    w.end_arr();
    opt_uint(w.key("run"), e.run.map(|j| j.0));
    w.key("frequency_mhz").uint(e.frequency.as_mhz());
    uint_arr(w.key("aborts"), e.aborts.iter().map(|j| &j.0));
    w.key("explanation");
    let Some(x) = &e.explanation else {
        w.null().end_obj();
        return;
    };
    w.begin_obj().key("uer").begin_arr();
    for u in &x.uer {
        w.begin_obj().key("job").uint(u.job.0);
        w.key("uer").num(u.uer).end_obj();
    }
    w.end_arr().key("schedule").begin_arr();
    for s in &x.schedule {
        w.begin_obj().key("job").uint(s.job.0);
        w.key("finish_us")
            .uint(s.predicted_finish.as_micros())
            .end_obj();
    }
    w.end_arr().key("aborts").begin_arr();
    for a in &x.aborts {
        w.begin_obj().key("job").uint(a.job.0);
        w.key("remaining_cycles").uint(a.remaining.get());
        w.key("termination_us").uint(a.termination.as_micros());
        w.key("predicted_finish_us")
            .uint(a.predicted_finish.as_micros());
        w.end_obj();
    }
    w.end_arr().key("dvs");
    match &x.dvs {
        None => {
            w.null();
        }
        Some(d) => {
            w.begin_obj().key("required_speed").num(d.required_speed);
            w.key("must_run_cycles").num(d.must_run_cycles);
            opt_uint(
                w.key("earliest_critical_us"),
                d.earliest_critical.map(SimTime::as_micros),
            );
            opt_uint(w.key("clamp_mhz"), d.clamp.map(Frequency::as_mhz));
            w.end_obj();
        }
    }
    w.key("skip_infeasible").bool(x.skip_infeasible);
    w.end_obj().end_obj();
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

fn str_field(v: &Json<'_>, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(String::from)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

/// The number under `key`; `what` names its type in the error.
fn num_field<T: std::str::FromStr>(v: &Json<'_>, key: &str, what: &str) -> Result<T, String> {
    match v.get(key) {
        Some(Json::Num(n)) => n
            .parse()
            .map_err(|_| format!("`{key}` is not {what}: {n:?}")),
        _ => Err(format!("missing or non-numeric `{key}`")),
    }
}

fn u64_field(v: &Json<'_>, key: &str) -> Result<u64, String> {
    num_field(v, key, "an unsigned integer")
}

fn f64_field(v: &Json<'_>, key: &str) -> Result<f64, String> {
    num_field(v, key, "a number")
}

fn time_field(v: &Json<'_>, key: &str) -> Result<SimTime, String> {
    u64_field(v, key).map(SimTime::from_micros)
}

fn delta_field(v: &Json<'_>, key: &str) -> Result<TimeDelta, String> {
    u64_field(v, key).map(TimeDelta::from_micros)
}

fn opt_u64_field(v: &Json<'_>, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        Some(Json::Null) | None => Ok(None),
        Some(Json::Num(_)) => u64_field(v, key).map(Some),
        _ => Err(format!("non-numeric `{key}`")),
    }
}

/// Parses every item of the array under `key`.
fn list<T>(
    v: &Json<'_>,
    key: &str,
    item: impl FnMut(&Json<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array `{key}`"))?
        .iter()
        .map(item)
        .collect()
}

fn u64_arr(v: &Json<'_>, key: &str) -> Result<Vec<u64>, String> {
    list(v, key, |e| match e {
        Json::Num(n) => n
            .parse::<u64>()
            .map_err(|_| format!("`{key}` entry is not an unsigned integer: {n:?}")),
        _ => Err(format!("non-numeric `{key}` entry")),
    })
}

fn parse_task(v: &Json<'_>) -> Result<TaskDecl, String> {
    Ok(TaskDecl {
        name: str_field(v, "name")?,
        tuf: parse_tuf(v.get("tuf").ok_or("missing task tuf")?)?,
        max_arrivals: u32::try_from(u64_field(v, "max_arrivals")?)
            .map_err(|_| "max_arrivals out of range".to_string())?,
        window: delta_field(v, "window_us")?,
        allocation: Cycles::new(u64_field(v, "allocation_cycles")?),
        critical_offset: delta_field(v, "critical_offset_us")?,
        termination_offset: delta_field(v, "termination_offset_us")?,
    })
}

fn parse_tuf(v: &Json<'_>) -> Result<TufDecl, String> {
    match str_field(v, "shape")?.as_str() {
        "step" => Ok(TufDecl::Step {
            umax: f64_field(v, "umax")?,
            step_at: delta_field(v, "step_at_us")?,
            termination: delta_field(v, "termination_us")?,
        }),
        "linear" => Ok(TufDecl::Linear {
            umax: f64_field(v, "umax")?,
            termination: delta_field(v, "termination_us")?,
        }),
        "exponential" => Ok(TufDecl::Exponential {
            umax: f64_field(v, "umax")?,
            tau: delta_field(v, "tau_us")?,
            termination: delta_field(v, "termination_us")?,
        }),
        "piecewise" => Ok(TufDecl::Piecewise {
            points: list(v, "points", |p| {
                let Some([t, u]) = p.as_arr() else {
                    return Err("piecewise point is not a pair".to_string());
                };
                let Json::Num(t) = t else {
                    return Err("piecewise offset is not a number".to_string());
                };
                let Json::Num(u) = u else {
                    return Err("piecewise utility is not a number".to_string());
                };
                Ok((
                    TimeDelta::from_micros(t.parse().map_err(|_| "bad piecewise offset")?),
                    u.parse().map_err(|_| "bad piecewise utility")?,
                ))
            })?,
        }),
        other => Err(format!("unknown tuf shape {other:?}")),
    }
}

fn parse_trigger(v: &Json<'_>) -> Result<SchedEvent, String> {
    match str_field(v, "kind")?.as_str() {
        "start" => Ok(SchedEvent::Start),
        "arrival" => Ok(SchedEvent::Arrival),
        "completion" => Ok(SchedEvent::Completion(JobId(u64_field(v, "job")?))),
        "abort" => Ok(SchedEvent::Abort(JobId(u64_field(v, "job")?))),
        other => Err(format!("unknown trigger kind {other:?}")),
    }
}

fn parse_event(v: &Json<'_>) -> Result<EventRecord, String> {
    let frequency_mhz = u64_field(v, "frequency_mhz")?;
    if frequency_mhz == 0 {
        return Err("event frequency_mhz must be positive".into());
    }
    Ok(EventRecord {
        at: time_field(v, "at_us")?,
        trigger: parse_trigger(v.get("trigger").ok_or("missing event trigger")?)?,
        ready: list(v, "ready", |j| {
            Ok(JobSnapshot {
                job: JobId(u64_field(j, "job")?),
                task: TaskId(u64_field(j, "task")? as usize),
                arrival: time_field(j, "arrival_us")?,
                critical: time_field(j, "critical_us")?,
                termination: time_field(j, "termination_us")?,
                remaining: Cycles::new(u64_field(j, "remaining_cycles")?),
            })
        })?,
        run: opt_u64_field(v, "run")?.map(JobId),
        frequency: Frequency::from_mhz(frequency_mhz),
        aborts: list(v, "aborts", |j| match j {
            Json::Num(n) => n
                .parse()
                .map(JobId)
                .map_err(|_| format!("bad abort id {n:?}")),
            _ => Err("non-numeric abort id".into()),
        })?,
        explanation: match v.get("explanation") {
            Some(Json::Null) | None => None,
            Some(x) => Some(parse_explanation(x)?),
        },
    })
}

fn parse_explanation(v: &Json<'_>) -> Result<DecisionExplanation, String> {
    Ok(DecisionExplanation {
        uer: list(v, "uer", |u| {
            Ok(UerEntry {
                job: JobId(u64_field(u, "job")?),
                uer: f64_field(u, "uer")?,
            })
        })?,
        schedule: list(v, "schedule", |s| {
            Ok(ScheduleEntry {
                job: JobId(u64_field(s, "job")?),
                predicted_finish: time_field(s, "finish_us")?,
            })
        })?,
        aborts: list(v, "aborts", |a| {
            Ok(AbortWitness {
                job: JobId(u64_field(a, "job")?),
                remaining: Cycles::new(u64_field(a, "remaining_cycles")?),
                termination: time_field(a, "termination_us")?,
                predicted_finish: time_field(a, "predicted_finish_us")?,
            })
        })?,
        dvs: match v.get("dvs") {
            Some(Json::Null) | None => None,
            Some(d) => Some(DvsExplanation {
                required_speed: f64_field(d, "required_speed")?,
                must_run_cycles: f64_field(d, "must_run_cycles")?,
                earliest_critical: opt_u64_field(d, "earliest_critical_us")?
                    .map(SimTime::from_micros),
                clamp: match opt_u64_field(d, "clamp_mhz")? {
                    Some(0) => return Err("clamp_mhz must be positive".into()),
                    Some(m) => Some(Frequency::from_mhz(m)),
                    None => None,
                },
            }),
        },
        skip_infeasible: match v.get("skip_infeasible") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing or non-boolean `skip_infeasible`".into()),
        },
    })
}

fn parse_charge(v: &Json<'_>) -> Result<ChargeRecord, String> {
    let kind = match str_field(v, "kind")?.as_str() {
        "execute" => ChargeKind::Execute,
        "switch" => ChargeKind::Switch,
        "abort-cost" => ChargeKind::AbortCost,
        "idle" => ChargeKind::Idle,
        other => return Err(format!("unknown charge kind {other:?}")),
    };
    Ok(ChargeRecord {
        at: time_field(v, "at_us")?,
        kind,
        frequency_mhz: u64_field(v, "frequency_mhz")?,
        cycles: Cycles::new(u64_field(v, "cycles")?),
        micros: u64_field(v, "micros")?,
        energy: f64_field(v, "energy")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunCertificate {
        RunCertificate {
            policy: "eua".into(),
            seed: 42,
            horizon: TimeDelta::from_millis(100),
            frequencies_mhz: vec![36, 55, 100],
            policy_frequencies_mhz: vec![36, 100],
            energy_name: "E2".into(),
            energy_rel: (1.0, 0.0, 0.1, 0.1),
            idle_power: 0.5,
            tasks: vec![TaskDecl {
                name: "control".into(),
                tuf: TufDecl::Step {
                    umax: 10.0,
                    step_at: TimeDelta::from_millis(10),
                    termination: TimeDelta::from_millis(10),
                },
                max_arrivals: 2,
                window: TimeDelta::from_millis(10),
                allocation: Cycles::new(150_000),
                critical_offset: TimeDelta::from_millis(10),
                termination_offset: TimeDelta::from_millis(10),
            }],
            arrivals: vec![(SimTime::ZERO, 0), (SimTime::from_micros(5_000), 0)],
            events: vec![EventRecord {
                at: SimTime::ZERO,
                trigger: SchedEvent::Arrival,
                ready: vec![JobSnapshot {
                    job: JobId(0),
                    task: TaskId(0),
                    arrival: SimTime::ZERO,
                    critical: SimTime::from_micros(10_000),
                    termination: SimTime::from_micros(10_000),
                    remaining: Cycles::new(150_000),
                }],
                run: Some(JobId(0)),
                frequency: Frequency::from_mhz(36),
                aborts: vec![],
                explanation: Some(DecisionExplanation {
                    uer: vec![UerEntry {
                        job: JobId(0),
                        uer: 6.6e-9,
                    }],
                    schedule: vec![ScheduleEntry {
                        job: JobId(0),
                        predicted_finish: SimTime::from_micros(1_500),
                    }],
                    aborts: vec![AbortWitness {
                        job: JobId(7),
                        remaining: Cycles::new(99),
                        termination: SimTime::from_micros(800),
                        predicted_finish: SimTime::from_micros(900),
                    }],
                    dvs: Some(DvsExplanation {
                        required_speed: 15.0,
                        must_run_cycles: 150_000.0,
                        earliest_critical: Some(SimTime::from_micros(10_000)),
                        clamp: Some(Frequency::from_mhz(36)),
                    }),
                    skip_infeasible: false,
                }),
            }],
            charges: vec![ChargeRecord {
                at: SimTime::ZERO,
                kind: ChargeKind::Execute,
                frequency_mhz: 36,
                cycles: Cycles::new(150_000),
                micros: 4_167,
                energy: 150_000.0 * (36.0 * 36.0 + 0.1 * 100.0 * 100.0 + 0.1 * 1e6 / 36.0),
            }],
            final_energy: 1.25e8,
        }
    }

    #[test]
    fn certificate_round_trips_value_and_bytes() {
        let cert = sample();
        let text = cert.render();
        let back = RunCertificate::parse(&text).expect("must parse");
        assert_eq!(back, cert, "value round-trip");
        assert_eq!(back.render(), text, "byte round-trip");
    }

    #[test]
    fn malformed_certificates_are_rejected() {
        let cert = sample();
        let good = cert.render();
        for bad in [
            "not json".to_string(),
            "{}".to_string(),
            good.replace("eua-certificate/1", "eua-certificate/999"),
            good.replace("\"kind\": \"execute\"", "\"kind\": \"teleport\""),
            good.replace("\"shape\": \"step\"", "\"shape\": \"cubist\""),
        ] {
            assert!(RunCertificate::parse(&bad).is_err(), "{bad:.60} accepted");
        }
    }

    #[test]
    fn tuf_decl_round_trips_through_real_tufs() {
        let ms = TimeDelta::from_millis;
        let tufs = [
            Tuf::step(10.0, ms(10)).unwrap(),
            Tuf::linear(5.0, ms(20)).unwrap(),
            Tuf::exponential(8.0, ms(3), ms(30)).unwrap(),
            Tuf::piecewise([(ms(0), 9.0), (ms(5), 4.0), (ms(10), 0.0)]).unwrap(),
        ];
        for tuf in tufs {
            let decl = TufDecl::from_tuf(&tuf);
            let back = decl.to_tuf().expect("declared tuf must re-validate");
            assert_eq!(back, tuf);
        }
    }

    #[test]
    fn idle_and_start_triggers_round_trip() {
        let mut cert = sample();
        cert.events[0].trigger = SchedEvent::Completion(JobId(3));
        cert.events[0].run = None;
        cert.events[0].explanation = None;
        cert.charges[0].kind = ChargeKind::Idle;
        cert.charges[0].frequency_mhz = 0;
        let text = cert.render();
        let back = RunCertificate::parse(&text).unwrap();
        assert_eq!(back, cert);
    }
}
