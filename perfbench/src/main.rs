//! The repository benchmark: end-to-end and per-layer timings of the
//! EUA* reproduction on four workloads. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --emit-reference
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; earlier lines start with `#`.

mod calib;
mod chaos;
mod digest;
mod engine;
mod heap;
mod host;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;
use calib::{HostClock, Span};
use report::Report;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPEATS: usize = 5;
/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// A seed kept back for confirming a claimed gain on inputs the change
/// was not tuned on.
const HELD_OUT_SEED: u64 = 7919;

/// Set-up timings of one run: the first before measuring, the others
/// spread evenly over the measuring time, so that a slow spell of a
/// shared host weighs on one sample and not on all of them.
pub struct SetupClock {
    spans: Vec<Span>,
    seconds: f64,
}

impl SetupClock {
    pub fn new(seconds: f64) -> Self {
        SetupClock {
            spans: Vec::new(),
            seconds,
        }
    }

    /// Times one set-up, with a calibration sample right before and
    /// right after it.
    pub fn time<T>(
        &mut self,
        clock: &mut HostClock,
        set_up: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        clock.sample();
        let (result, span) = clock.span(set_up);
        clock.sample();
        self.spans.push(span);
        result
    }

    /// Whether the next repeat is due after `measured` seconds.
    pub fn due(&self, measured: f64) -> bool {
        self.remaining() > 0
            && measured >= self.seconds * self.spans.len() as f64 / SETUP_REPEATS as f64
    }

    pub fn remaining(&self) -> usize {
        SETUP_REPEATS.saturating_sub(self.spans.len())
    }

    /// The median set-up time in seconds at the reference speed.
    pub fn median(&self, clock: &HostClock) -> f64 {
        let scaled: Vec<f64> = self.spans.iter().map(|&s| clock.scaled_ms(s) / 1e3).collect();
        stats::median(&scaled)
    }

    /// The median set-up time in host seconds, unscaled.
    pub fn raw_median(&self) -> f64 {
        let raw: Vec<f64> = self.spans.iter().map(|&s| s.raw_ms() / 1e3).collect();
        stats::median(&raw)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig2Sweep,
    OverloadBacklog,
    ChaosAudited,
    ChaosPlain,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Fig2Sweep,
        Workload::OverloadBacklog,
        Workload::ChaosAudited,
        Workload::ChaosPlain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Sweep => "fig2-sweep",
            Workload::OverloadBacklog => "overload-backlog",
            Workload::ChaosAudited => "chaos-audited",
            Workload::ChaosPlain => "chaos-plain",
        }
    }

    /// The percentile `run_ms_tail` and `peak_heap_mb` report, fixed per
    /// workload so that every run reports the same statistic: p95 of
    /// 270 `fig2-sweep` units, p90 of 108 `overload-backlog` units, p95
    /// of 600 audited and p90 of 800 plain chaos cells (13, 11, 30 and
    /// 80 beyond it).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Fig2Sweep | Workload::ChaosAudited => 95.0,
            Workload::OverloadBacklog | Workload::ChaosPlain => 90.0,
        }
    }

    fn is_chaos(self) -> bool {
        matches!(self, Workload::ChaosAudited | Workload::ChaosPlain)
    }
}

/// SplitMix64 over `seed + salt`: derives independent sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").ok_or("missing --workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = match value("--seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s}"))?,
        None => DEFAULT_SEED,
    };
    let seconds = match value("--seconds") {
        Some(s) => s.parse().map_err(|_| format!("bad --seconds {s}"))?,
        None => 20.0,
    };
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        emit_reference: argv.iter().any(|a| a == "--emit-reference"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_reference {
        let line = if args.workload.is_chaos() {
            chaos::reference_line(args.workload)
        } else {
            engine::reference_line(args.workload, args.seed)
        };
        return match line {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut report = Report::new();
    report.note(host::header());
    report.note(format!(
        "workload {} seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    match (args.workload.is_chaos(), args.trace) {
        (false, false) => engine::measure(args.workload, args.seed, args.seconds, &mut report),
        (false, true) => engine::trace(args.workload, args.seed, args.seconds, &mut report),
        (true, false) => chaos::measure(args.workload, args.seed, args.seconds, &mut report),
        (true, true) => chaos::trace(args.workload, args.seed, args.seconds, &mut report),
    }
    if report.broken() {
        report.print_notes_to_stderr();
        return ExitCode::FAILURE;
    }
    report.print();
    ExitCode::SUCCESS
}
