//! Sweeps fault intensity × policy (EUA\*, DASA, EDF, LLF) through the
//! deterministic fault-injection layer and emits UER-vs-fault-intensity
//! degradation curves for the four fault families of DESIGN.md §10:
//! UAM burst violations, demand mis-estimation, degraded DVS, and
//! abort-cost/jitter timing faults.
//!
//! Usage: `cargo run -p eua-bench --bin robustness [--quick] [--jobs N]
//! [--load X] [--out PATH] [--audit] [--check]`
//!
//! Every `(family, intensity, policy, seed)` cell runs as a `.scn`
//! shrink case through the chaos campaign's executor. The report goes
//! to `results/robustness.json` (first-party JSON; the document is
//! byte-identical for any `--jobs` count). `--check` re-parses the
//! written file and fails unless rendering it reproduces the bytes on
//! disk exactly. `--audit` records an `eua-certificate/1` document per
//! cell and audits it in-process; each point reports its
//! `audit_failures` (audit errors the cell's fault plan does not
//! explain). A malformed flag value (`--load abc`) exits 2 naming the
//! flag.

use std::path::PathBuf;
use std::process::ExitCode;

use eua_bench::{flag_or_exit, jobs_from_args, run_robustness, RobustnessConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out: PathBuf =
        flag_or_exit(&args, "--out").unwrap_or_else(|| PathBuf::from("results/robustness.json"));

    let mut config = if quick {
        RobustnessConfig::quick()
    } else {
        RobustnessConfig::standard()
    }
    .with_jobs(jobs_from_args(&args));
    if let Some(load) = flag_or_exit(&args, "--load") {
        config.load = load;
    }
    config.audit = args.iter().any(|a| a == "--audit");

    eprintln!(
        "robustness sweep: load {}, {} intensities x {} policies x {} seeds, {} worker(s)",
        config.load,
        config.intensities.len(),
        config.policies.len(),
        config.seeds.len(),
        config.jobs,
    );
    let report = match run_robustness(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("robustness sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    for point in &report.points {
        if point.intensity == 0.0 || point.intensity == 1.0 {
            eprintln!(
                "  {:12} intensity {:4} {:6} uer {:>10.3e} (met {} / degraded {} / collapsed {})",
                point.family.key(),
                point.intensity,
                point.policy,
                point.uer,
                point.met,
                point.degraded,
                point.collapsed,
            );
        }
    }

    let text = report.to_json().render();
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out.display());

    if config.audit {
        let failures: usize = report.points.iter().map(|p| p.audit_failures).sum();
        eprintln!("audited every cell: {failures} audit failure(s)");
    }

    if check {
        let on_disk = match std::fs::read_to_string(&out) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot re-read {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
        };
        let reparsed = match eua_bench::json::parse(&on_disk) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "round-trip check failed: {} does not parse: {e}",
                    out.display()
                );
                return ExitCode::FAILURE;
            }
        };
        if reparsed.render() != on_disk {
            eprintln!(
                "round-trip check failed: re-rendering {} changed its bytes",
                out.display()
            );
            return ExitCode::FAILURE;
        }
        eprintln!("round-trip check passed");
    }
    ExitCode::SUCCESS
}
