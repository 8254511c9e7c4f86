#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Every shape a certificate can take, pinned as text: the golden
//! fixtures recorded from real runs carry only step TUFs, `execute`
//! charges and `arrival`/`completion` triggers, so this hand-built
//! certificate covers the rest — every `TufDecl` shape, every charge
//! kind and trigger kind, each `null` the format allows (`run`,
//! `explanation`, `dvs`, `clamp_mhz`, `earliest_critical_us`), a degraded
//! policy frequency table, and a task name that needs escaping.
//!
//! The writer must reproduce `fixtures/all-shapes.json` byte for byte
//! and the parser must return the same value. Regenerate with:
//!
//! ```text
//! EUA_REGEN_GOLDEN=1 cargo test -p eua-sim --test certificate_shapes
//! ```

use eua_platform::{Cycles, Frequency, SimTime, TimeDelta};
use eua_sim::{
    AbortWitness, ChargeKind, ChargeRecord, DecisionExplanation, DvsExplanation, EventRecord,
    JobId, JobSnapshot, RunCertificate, SchedEvent, ScheduleEntry, TaskDecl, TaskId, TufDecl,
    UerEntry,
};

fn us(v: u64) -> SimTime {
    SimTime::from_micros(v)
}

fn d(v: u64) -> TimeDelta {
    TimeDelta::from_micros(v)
}

fn task(name: &str, tuf: TufDecl) -> TaskDecl {
    TaskDecl {
        name: name.into(),
        tuf,
        max_arrivals: 3,
        window: d(20_000),
        allocation: Cycles::new(123_457),
        critical_offset: d(15_000),
        termination_offset: d(20_000),
    }
}

fn snapshot(job: u64, task: usize, arrival: u64) -> JobSnapshot {
    JobSnapshot {
        job: JobId(job),
        task: TaskId(task),
        arrival: us(arrival),
        critical: us(arrival + 15_000),
        termination: us(arrival + 20_000),
        remaining: Cycles::new(100_000 + job),
    }
}

fn charge(
    at: u64,
    kind: ChargeKind,
    mhz: u64,
    cycles: u64,
    micros: u64,
    energy: f64,
) -> ChargeRecord {
    ChargeRecord {
        at: us(at),
        kind,
        frequency_mhz: mhz,
        cycles: Cycles::new(cycles),
        micros,
        energy,
    }
}

fn all_shapes() -> RunCertificate {
    let explained = DecisionExplanation {
        uer: vec![
            UerEntry {
                job: JobId(0),
                uer: 6.6e-9,
            },
            UerEntry {
                job: JobId(1),
                uer: 1.0 / 3.0,
            },
        ],
        schedule: vec![
            ScheduleEntry {
                job: JobId(0),
                predicted_finish: us(1_500),
            },
            ScheduleEntry {
                job: JobId(1),
                predicted_finish: us(4_250),
            },
        ],
        aborts: vec![AbortWitness {
            job: JobId(2),
            remaining: Cycles::new(99),
            termination: us(800),
            predicted_finish: us(900),
        }],
        dvs: Some(DvsExplanation {
            required_speed: 15.0,
            must_run_cycles: 150_000.5,
            earliest_critical: Some(us(15_000)),
            clamp: Some(Frequency::from_mhz(64)),
        }),
        skip_infeasible: true,
    };
    RunCertificate {
        policy: "eua".into(),
        seed: u64::MAX,
        horizon: d(100_000),
        frequencies_mhz: vec![36, 55, 64, 73, 100],
        policy_frequencies_mhz: vec![36, 64, 100],
        energy_name: "E2".into(),
        energy_rel: (1.0, 0.0, 0.1, 1e-21),
        idle_power: 0.0,
        tasks: vec![
            task(
                "quote\" back\\slash ctrl\u{1}\t\r\n radar-\u{e9}\u{96f7}",
                TufDecl::Step {
                    umax: 10.0,
                    step_at: d(15_000),
                    termination: d(20_000),
                },
            ),
            task(
                "linear",
                TufDecl::Linear {
                    umax: 2.5e-7,
                    termination: d(20_000),
                },
            ),
            task(
                "exponential",
                TufDecl::Exponential {
                    umax: 8.0,
                    tau: d(3_000),
                    termination: d(20_000),
                },
            ),
            task(
                "piecewise",
                TufDecl::Piecewise {
                    points: vec![(d(0), 9.0), (d(5_000), 4.25), (d(20_000), 0.0)],
                },
            ),
        ],
        arrivals: vec![(us(0), 0), (us(0), 1), (us(1_000), 2), (us(2_000), 3)],
        events: vec![
            EventRecord {
                at: us(0),
                trigger: SchedEvent::Start,
                ready: vec![],
                run: None,
                frequency: Frequency::from_mhz(36),
                aborts: vec![],
                explanation: None,
            },
            EventRecord {
                at: us(0),
                trigger: SchedEvent::Arrival,
                ready: vec![snapshot(0, 0, 0), snapshot(1, 1, 0), snapshot(2, 2, 0)],
                run: Some(JobId(0)),
                frequency: Frequency::from_mhz(64),
                aborts: vec![JobId(2)],
                explanation: Some(explained),
            },
            EventRecord {
                at: us(1_500),
                trigger: SchedEvent::Completion(JobId(0)),
                ready: vec![snapshot(1, 1, 0)],
                run: Some(JobId(1)),
                frequency: Frequency::from_mhz(100),
                aborts: vec![],
                explanation: Some(DecisionExplanation {
                    dvs: Some(DvsExplanation {
                        required_speed: 0.0,
                        must_run_cycles: 0.0,
                        earliest_critical: None,
                        clamp: None,
                    }),
                    ..DecisionExplanation::default()
                }),
            },
            EventRecord {
                at: us(2_000),
                trigger: SchedEvent::Abort(JobId(1)),
                ready: vec![snapshot(3, 3, 2_000)],
                run: Some(JobId(3)),
                frequency: Frequency::from_mhz(100),
                aborts: vec![],
                explanation: Some(DecisionExplanation::default()),
            },
        ],
        charges: vec![
            charge(0, ChargeKind::Switch, 64, 2_000, 31, 2_000.0 * 4_096.0),
            charge(
                31,
                ChargeKind::Execute,
                64,
                96_000,
                1_469,
                3.9321600000000005e8,
            ),
            charge(1_500, ChargeKind::AbortCost, 100, 5_000, 50, 5.5e7),
            charge(1_550, ChargeKind::Idle, 0, 0, 450, 0.0),
        ],
        final_energy: 4.588e8,
    }
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/all-shapes.json")
}

#[test]
fn every_certificate_shape_renders_to_the_pinned_bytes_and_parses_back() {
    let cert = all_shapes();
    let rendered = cert.render();
    let path = fixture_path();
    if std::env::var("EUA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("fixture written");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("fixture present");
    assert_eq!(
        rendered, golden,
        "certificate text drifted; regenerate with EUA_REGEN_GOLDEN=1 if deliberate"
    );
    let back = RunCertificate::parse(&golden).expect("fixture parses");
    assert_eq!(back, cert, "value round-trip");
}
