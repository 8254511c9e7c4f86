#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Acceptance gates for the certificate auditor: every shipped example
//! audits clean under EUA\* and under an explanation-less policy pinned
//! to each table frequency; every explained schedule replays through
//! the reference construction, and certificates are byte-identical
//! across worker counts.

mod common;

use common::{bridge, run_certified, FixedFreq};
use eua_analyze::shipped_scenarios;
use eua_audit::audit;
use eua_core::{build_schedule_reference, Candidate, Eua, InsertionMode};
use eua_sim::{
    map_parallel, Decision, DecisionExplanation, SchedContext, ScheduleEntry, SchedulerPolicy,
};

/// Tentpole acceptance: `eua-audit` must pass certificates from every
/// shipped example under the real EUA\* policy (full Algorithm 1/2
/// explanations audited).
#[test]
fn shipped_examples_audit_clean_under_eua() {
    for spec in shipped_scenarios().expect("registry builds") {
        let (tasks, patterns, platform) = bridge(&spec);
        let cert = run_certified(&tasks, &patterns, &platform, &mut Eua::new(), 42);
        let report = audit(&cert);
        assert!(
            !report.has_errors(),
            "`{}` failed its audit:\n{}",
            spec.name,
            report.render_text()
        );
    }
}

/// Acceptance: certificates from every shipped example at every table
/// frequency audit clean (the policy carries no explanation, so this
/// exercises the engine-level checks and the full energy recompute at
/// each operating point).
#[test]
fn every_table_frequency_audits_clean() {
    for spec in shipped_scenarios().expect("registry builds") {
        let (tasks, patterns, platform) = bridge(&spec);
        let freqs: Vec<_> = platform.table().iter().collect();
        for freq in freqs {
            let cert = run_certified(&tasks, &patterns, &platform, &mut FixedFreq(freq), 7);
            let report = audit(&cert);
            assert!(
                !report.has_errors(),
                "`{}` at {} MHz failed its audit:\n{}",
                spec.name,
                freq.as_mhz(),
                report.render_text()
            );
        }
    }
}

/// Certificates round-trip byte-identically through the first-party
/// JSON module on real engine output, not just hand-built fixtures.
#[test]
fn real_certificates_round_trip_byte_identically() {
    let spec = &shipped_scenarios().expect("registry builds")[0];
    let (tasks, patterns, platform) = bridge(spec);
    let cert = run_certified(&tasks, &patterns, &platform, &mut Eua::new(), 3);
    let text = cert.render();
    let reparsed = eua_sim::RunCertificate::parse(&text).expect("round-trips");
    assert_eq!(reparsed.render(), text);
}

/// EUA\* that replays every decision through the naive
/// `build_schedule_reference` oracle: the candidates are the ready jobs
/// keyed by the explanation's UER table, and the oracle's schedule must
/// equal the explained one entry for entry.
struct ReferenceReplay {
    inner: Eua,
    replayed: usize,
}

impl SchedulerPolicy for ReferenceReplay {
    fn name(&self) -> &str {
        self.inner.name()
    }

    // A test oracle that re-walks every schedule: never a production
    // hot path.
    // eua-lint: cold
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let decision = self.inner.decide(ctx);
        let expl = self.inner.explain().expect("certifying EUA* explains");
        let f_m = ctx.platform.f_max();
        let candidates = expl
            .uer
            .iter()
            .map(|e| Candidate::from_view(ctx.job(e.job).expect("UER job is ready"), e.uer))
            .collect();
        let mode = if expl.skip_infeasible {
            InsertionMode::SkipInfeasible
        } else {
            InsertionMode::BreakOnInfeasible
        };
        let mut t = ctx.now;
        let oracle: Vec<ScheduleEntry> = build_schedule_reference(ctx.now, candidates, f_m, mode)
            .iter()
            .map(|c| {
                t = t.saturating_add(f_m.execution_time(c.remaining));
                ScheduleEntry {
                    job: c.id,
                    predicted_finish: t,
                }
            })
            .collect();
        assert_eq!(
            oracle, expl.schedule,
            "builder and reference oracle diverge at {:?}",
            ctx.now
        );
        self.replayed += 1;
        decision
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn certify(&mut self, on: bool) {
        self.inner.certify(on);
    }

    fn explain(&self) -> Option<DecisionExplanation> {
        self.inner.explain()
    }
}

/// At every certified decision of every shipped example, the
/// incremental `ScheduleBuilder`'s schedule equals what the naive
/// `build_schedule_reference` oracle builds from the same UER table,
/// and the certificate audits clean.
#[test]
fn builder_and_reference_oracle_certify_identically() {
    for spec in shipped_scenarios().expect("registry builds") {
        let (tasks, patterns, platform) = bridge(&spec);
        let mut policy = ReferenceReplay {
            inner: Eua::new(),
            replayed: 0,
        };
        let cert = run_certified(&tasks, &patterns, &platform, &mut policy, 11);
        assert!(policy.replayed > 0, "`{}`: no decision replayed", spec.name);
        assert!(
            !audit(&cert).has_errors(),
            "`{}` failed its audit",
            spec.name
        );
    }
}

/// Satellite (d): certificates must not depend on worker count — a
/// parallel sweep over seeds with `--jobs 4` yields the same bytes as
/// the sequential sweep.
#[test]
fn certificates_are_identical_across_jobs() {
    let spec = &shipped_scenarios().expect("registry builds")[0];
    let (tasks, patterns, platform) = bridge(spec);
    let seeds: Vec<u64> = (1..=6).collect();
    let render = |_worker: usize, seed: u64| {
        run_certified(&tasks, &patterns, &platform, &mut Eua::new(), seed).render()
    };
    let sequential = map_parallel(1, seeds.clone(), render).expect("pool runs");
    let parallel = map_parallel(4, seeds, render).expect("pool runs");
    assert_eq!(sequential, parallel);
}
