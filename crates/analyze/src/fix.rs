//! Machine-applicable fixes for a subset of diagnostic codes.
//!
//! [`apply_fixes`] detects each fixable condition directly on the raw
//! [`ScenarioSpec`] (the same predicates the lint passes use) and
//! rewrites it in place, returning what it changed. The rewrite is
//! **idempotent**: re-running on the fixed spec applies nothing, and
//! re-analyzing it no longer raises the fixed codes.
//!
//! The fixable codes (tagged `machineApplicableFix` in SARIF output):
//!
//! | code | rewrite |
//! |------|---------|
//! | `freq-table-invalid` | drop zero entries, sort ascending, dedup |
//! | `assurance-nu-range` | clamp ν into `(0, 1]` (non-finite → 1.0) |
//! | `assurance-rho-range` | clamp ρ into `[0, 1)` (≥ 1 or non-finite → 0.96) |
//! | `tuf-unordered-breakpoints` | sort piecewise breakpoints by time, dedup |
//! | `tuf-increasing` | clamp each utility to the running minimum |
//! | `uam-arrival-bound` | round `a` to the nearest positive integer |
//! | `sem-chebyshev-allocation-mismatch` | rewrite `allocation` to `⌈c⌉` (or drop it) |
//!
//! Structural problems (no tasks, empty tables, undefined Chebyshev
//! bounds) have no mechanical rewrite and stay diagnostics-only.

use crate::diagnostic::DiagCode;
use crate::scenario::ScenarioSpec;
use eua_sim::TufDecl;

/// Relative tolerance for the declared-allocation cross-check (shared
/// with the Chebyshev pass).
pub const ALLOCATION_TOL: f64 = 1e-6;

/// One applied rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFix {
    /// The diagnostic code the rewrite discharges.
    pub code: DiagCode,
    /// The entity it touched (`task \`x\``, `frequency table`, …).
    pub entity: String,
    /// A human-readable description of the rewrite.
    pub action: String,
}

/// Whether [`apply_fixes`] has a rewrite for this code.
#[must_use]
pub fn is_fixable(code: DiagCode) -> bool {
    matches!(
        code,
        DiagCode::FreqTableInvalid
            | DiagCode::AssuranceNuRange
            | DiagCode::AssuranceRhoRange
            | DiagCode::TufUnorderedBreakpoints
            | DiagCode::TufIncreasing
            | DiagCode::UamArrivalBound
            | DiagCode::SemChebyshevAllocationMismatch
    )
}

/// Applies every available rewrite to `spec`, returning what changed
/// (empty when the spec was already clean of fixable conditions).
pub fn apply_fixes(spec: &mut ScenarioSpec) -> Vec<AppliedFix> {
    let mut applied = Vec::new();

    fix_frequency_table(spec, &mut applied);
    for i in 0..spec.tasks.len() {
        fix_assurances(spec, i, &mut applied);
        fix_piecewise_tuf(spec, i, &mut applied);
        fix_arrival_bound(spec, i, &mut applied);
        fix_declared_allocation(spec, i, &mut applied);
    }
    applied
}

fn fix_frequency_table(spec: &mut ScenarioSpec, applied: &mut Vec<AppliedFix>) {
    let f = &spec.frequencies_mhz;
    let sorted_strictly = f.windows(2).all(|w| w[0] < w[1]);
    let has_zero = f.contains(&0);
    if f.is_empty() || (sorted_strictly && !has_zero) {
        return;
    }
    let before = f.len();
    spec.frequencies_mhz.retain(|&m| m > 0);
    spec.frequencies_mhz.sort_unstable();
    spec.frequencies_mhz.dedup();
    applied.push(AppliedFix {
        code: DiagCode::FreqTableInvalid,
        entity: "frequency table".into(),
        action: format!(
            "dropped zero entries, sorted ascending, deduplicated ({before} → {} entries)",
            spec.frequencies_mhz.len()
        ),
    });
}

fn fix_assurances(spec: &mut ScenarioSpec, i: usize, applied: &mut Vec<AppliedFix>) {
    let task = &mut spec.tasks[i];
    let entity = format!("task `{}`", task.name);

    if !task.nu.is_finite() || task.nu <= 0.0 || task.nu > 1.0 {
        let old = task.nu;
        // Out-of-range ν has no meaningful nearest value below 1 to
        // clamp to (ν ≤ 0 demands nothing), so normalize to full
        // assurance.
        task.nu = 1.0;
        applied.push(AppliedFix {
            code: DiagCode::AssuranceNuRange,
            entity: entity.clone(),
            action: format!("clamped nu {old} → {}", task.nu),
        });
    }
    if !task.rho.is_finite() || !(0.0..1.0).contains(&task.rho) {
        let old = task.rho;
        task.rho = if task.rho.is_finite() && task.rho < 0.0 {
            0.0
        } else {
            0.96
        };
        applied.push(AppliedFix {
            code: DiagCode::AssuranceRhoRange,
            entity,
            action: format!("clamped rho {old} → {}", task.rho),
        });
    }
}

fn fix_piecewise_tuf(spec: &mut ScenarioSpec, i: usize, applied: &mut Vec<AppliedFix>) {
    let entity = format!("task `{}`", spec.tasks[i].name);
    let TufDecl::Piecewise { points } = &mut spec.tasks[i].tuf else {
        return;
    };
    if points.len() < 2 {
        return;
    }

    let ordered = points.windows(2).all(|w| w[0].0 < w[1].0);
    if !ordered {
        points.sort_by_key(|&(t, _)| t);
        points.dedup_by_key(|&mut (t, _)| t);
        applied.push(AppliedFix {
            code: DiagCode::TufUnorderedBreakpoints,
            entity: entity.clone(),
            action: "sorted piecewise breakpoints by time and removed duplicates".into(),
        });
    }

    let non_increasing = points
        .windows(2)
        .all(|w| !(w[0].1.is_finite() && w[1].1.is_finite()) || w[1].1 <= w[0].1);
    if !non_increasing {
        let mut floor = f64::INFINITY;
        for (_, u) in points.iter_mut() {
            if u.is_finite() {
                *u = u.min(floor);
                floor = *u;
            }
        }
        applied.push(AppliedFix {
            code: DiagCode::TufIncreasing,
            entity,
            action: "clamped increasing utilities to the running minimum".into(),
        });
    }
}

fn fix_arrival_bound(spec: &mut ScenarioSpec, i: usize, applied: &mut Vec<AppliedFix>) {
    let task = &mut spec.tasks[i];
    let a = task.max_arrivals;
    if a.is_finite() && a >= 1.0 && a.fract() == 0.0 && a <= f64::from(u32::MAX) {
        return;
    }
    let fixed = if a.is_finite() {
        a.round().clamp(1.0, f64::from(u32::MAX))
    } else {
        1.0
    };
    task.max_arrivals = fixed;
    applied.push(AppliedFix {
        code: DiagCode::UamArrivalBound,
        entity: format!("task `{}`", task.name),
        action: format!("rounded arrival bound {a} → {fixed}"),
    });
}

fn fix_declared_allocation(spec: &mut ScenarioSpec, i: usize, applied: &mut Vec<AppliedFix>) {
    let task = &mut spec.tasks[i];
    let Some(declared) = task.declared_allocation else {
        return;
    };
    let entity = format!("task `{}`", task.name);
    match task.chebyshev_allocation() {
        Some(c) => {
            let expected = c.ceil();
            if !declared.is_finite() || (declared - expected).abs() > 1.0 + ALLOCATION_TOL * c {
                task.declared_allocation = Some(expected);
                applied.push(AppliedFix {
                    code: DiagCode::SemChebyshevAllocationMismatch,
                    entity,
                    action: format!("rewrote allocation {declared} → {expected}"),
                });
            }
        }
        None => {
            // The Chebyshev bound is undefined: a declared allocation
            // can never be cross-checked, so remove it.
            task.declared_allocation = None;
            applied.push(AppliedFix {
                code: DiagCode::SemChebyshevAllocationMismatch,
                entity,
                action: format!("removed uncheckable allocation {declared}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::passes::analyze;
    use crate::scenario::{DemandSpec, EnergySpec, TaskSpec};
    use eua_platform::TimeDelta;

    fn us(micros: u64) -> TimeDelta {
        TimeDelta::from_micros(micros)
    }

    fn broken_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "fixture".into(),
            frequencies_mhz: vec![100, 0, 50, 50, 25],
            energy: EnergySpec::e1(),
            tasks: vec![TaskSpec {
                name: "t".into(),
                tuf: TufDecl::Piecewise {
                    points: vec![(us(20_000), 4.0), (us(0), 10.0), (us(10_000), 10.0)],
                },
                max_arrivals: 2.5,
                window_us: 20_000,
                demand: DemandSpec::Deterministic { cycles: 100_000.0 },
                nu: 1.5,
                rho: 1.2,
                declared_allocation: Some(1.0),
                arrival: None,
            }],
            faults: None,
        }
    }

    #[test]
    fn fixes_apply_for_all_advertised_codes() {
        let mut spec = broken_spec();
        let applied = apply_fixes(&mut spec);
        let codes: Vec<DiagCode> = applied.iter().map(|f| f.code).collect();
        for code in [
            DiagCode::FreqTableInvalid,
            DiagCode::AssuranceNuRange,
            DiagCode::AssuranceRhoRange,
            DiagCode::TufUnorderedBreakpoints,
            DiagCode::UamArrivalBound,
            DiagCode::SemChebyshevAllocationMismatch,
        ] {
            assert!(codes.contains(&code), "missing {code:?} in {codes:?}");
            assert!(is_fixable(code));
        }
        assert_eq!(spec.frequencies_mhz, vec![25, 50, 100]);
        assert_eq!(spec.tasks[0].nu, 1.0);
        assert_eq!(spec.tasks[0].rho, 0.96);
        assert_eq!(spec.tasks[0].max_arrivals, 3.0);
        // Deterministic 100k demand with rho 0.96: c = 100000 exactly.
        assert_eq!(spec.tasks[0].declared_allocation, Some(100_000.0));
    }

    #[test]
    fn fixed_specs_reanalyze_clean_of_fixed_codes() {
        let mut spec = broken_spec();
        apply_fixes(&mut spec);
        let report = analyze(&spec);
        for code in [
            "freq-table-invalid",
            "assurance-nu-range",
            "assurance-rho-range",
            "tuf-unordered-breakpoints",
            "tuf-increasing",
            "uam-arrival-bound",
            "sem-chebyshev-allocation-mismatch",
        ] {
            assert!(
                !report.codes().contains(code),
                "{code} still present after --fix: {}",
                report.render_text()
            );
        }
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn apply_fixes_is_idempotent() {
        let mut spec = broken_spec();
        apply_fixes(&mut spec);
        let again = apply_fixes(&mut spec);
        assert!(again.is_empty(), "second pass must be a no-op: {again:?}");
    }

    #[test]
    fn increasing_piecewise_utilities_are_clamped() {
        let mut spec = broken_spec();
        spec.tasks[0].tuf = TufDecl::Piecewise {
            points: vec![(us(0), 5.0), (us(10_000), 8.0), (us(20_000), 3.0)],
        };
        let applied = apply_fixes(&mut spec);
        assert!(applied.iter().any(|f| f.code == DiagCode::TufIncreasing));
        let TufDecl::Piecewise { points } = &spec.tasks[0].tuf else {
            panic!("still piecewise");
        };
        assert_eq!(points[1].1, 5.0, "clamped to the running minimum");
    }

    #[test]
    fn clean_specs_are_untouched() {
        let mut spec = broken_spec();
        apply_fixes(&mut spec);
        let snapshot = spec.clone();
        assert!(apply_fixes(&mut spec).is_empty());
        assert_eq!(spec, snapshot);
    }

    #[test]
    fn uncheckable_declared_allocations_are_removed() {
        let mut spec = broken_spec();
        apply_fixes(&mut spec);
        // A Pareto tail with alpha ≤ 2 has no finite Chebyshev bound.
        spec.tasks[0].demand = DemandSpec::Pareto {
            scale: 1000.0,
            alpha: 1.5,
        };
        spec.tasks[0].declared_allocation = Some(123.0);
        let applied = apply_fixes(&mut spec);
        assert!(applied
            .iter()
            .any(|f| f.code == DiagCode::SemChebyshevAllocationMismatch));
        assert_eq!(spec.tasks[0].declared_allocation, None);
    }
}
