//! The result of one benchmark invocation and its printed form.

use std::time::Duration;

use crate::digest::Verifier;
use crate::stats::{median, quantile, tail_percentile};
use crate::trace::{DecideStats, ReplaySplit};

/// Per-layer totals of a traced run; [`Report::per_layer`] turns them
/// into per-unit means.
pub struct Layers {
    /// Units traced (passes x units per pass).
    pub units: f64,
    /// Host-speed factor applied to every time row.
    pub scale: f64,
    pub run: Duration,
    pub self_time: Duration,
    pub decide: DecideStats,
    pub split: ReplaySplit,
    pub cert_record: Duration,
    pub cert_render: Duration,
    pub cert_parse: Duration,
    pub cert_bytes: u64,
    pub cert_events: u64,
    pub audit: Duration,
    pub unexpected_errors: u64,
    pub workload_build: Duration,
    pub workload_generate: Duration,
    pub arrivals: u64,
    pub scn_roundtrip: Duration,
    pub cell_ms: Vec<f64>,
    pub journal_bytes: u64,
    /// Time the layer rows account for.
    pub covered: Duration,
    /// Time of the program's own entry points on the same units.
    pub program_wall: Duration,
    /// Time of the traced version of the same units.
    pub traced_wall: Duration,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            units: 0.0,
            scale: 1.0,
            run: Duration::ZERO,
            self_time: Duration::ZERO,
            decide: DecideStats::new(),
            split: ReplaySplit::default(),
            cert_record: Duration::ZERO,
            cert_render: Duration::ZERO,
            cert_parse: Duration::ZERO,
            cert_bytes: 0,
            cert_events: 0,
            audit: Duration::ZERO,
            unexpected_errors: 0,
            workload_build: Duration::ZERO,
            workload_generate: Duration::ZERO,
            arrivals: 0,
            scn_roundtrip: Duration::ZERO,
            cell_ms: Vec::new(),
            journal_bytes: 0,
            covered: Duration::ZERO,
            program_wall: Duration::ZERO,
            traced_wall: Duration::ZERO,
        }
    }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    broken: bool,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            broken: false,
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A failure of the benchmark itself (set-up, I/O): no result.
    pub fn fail(&mut self, line: String) {
        self.broken = true;
        self.notes.push(format!("error: {line}"));
    }

    pub fn broken(&self) -> bool {
        self.broken
    }

    pub fn print_notes_to_stderr(&self) {
        for n in &self.notes {
            eprintln!("# {n}");
        }
    }

    pub fn reference(&mut self, v: &Verifier) {
        if v.has_reference() {
            self.note(format!(
                "reference: {} outputs compared with the stored digests",
                v.checked_against_reference
            ));
        } else {
            self.note(
                "reference: none stored for this seed; outputs checked for invariants \
                 and for repeating exactly across passes"
                    .into(),
            );
        }
        for m in &v.mismatches {
            self.note(format!("mismatch: {m}"));
        }
    }

    /// The end-to-end metrics from set-up times `[scaled, raw]` (s),
    /// per-unit times `[scaled, raw]` (ms), the simulated seconds those
    /// units cover, the tail percentile and the heap peak. The metrics
    /// use the scaled times; the raw ones are printed as a note.
    pub fn end_to_end(
        &mut self,
        setup_s: [f64; 2],
        unit_ms: [&[f64]; 2],
        simulated_s: f64,
        tail: f64,
        heap: f64,
    ) {
        let figures = |i: usize| {
            let busy = unit_ms[i].iter().sum::<f64>() / 1e3;
            (
                setup_s[i],
                if busy > 0.0 { simulated_s / busy } else { 0.0 },
                median(unit_ms[i]),
                quantile(unit_ms[i], tail / 100.0),
            )
        };
        let (setup, rate, p50, p_tail) = figures(0);
        self.metrics = vec![
            ("setup_s", setup, "s"),
            ("sim_s_per_s", rate, "sim-s/s"),
            ("run_ms_p50", p50, "ms"),
            ("run_ms_tail", p_tail, "ms"),
            ("peak_heap_mb", heap, "MB"),
        ];
        let (setup, rate, p50, p_tail) = figures(1);
        self.note(format!(
            "unscaled host times: setup_s {setup} sim_s_per_s {rate} run_ms_p50 {p50} \
             run_ms_tail {p_tail}"
        ));
        self.note(format!(
            "failed_frac = {} ratio ({} of {} units)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        ));
    }

    pub fn per_layer(&mut self, l: &Layers) {
        let n = l.units.max(1.0);
        let ms = |d: Duration| d.as_secs_f64() * 1e3 * l.scale / n;
        let ns = |v: f64| v * l.scale;
        let per = |c: u64| c as f64 / n;
        let d = &l.decide;
        let events = d.calls as f64;
        let self_ns = l.self_time.as_secs_f64() * 1e9;
        let tail = tail_percentile(99.9, l.cell_ms.len());
        let cell = |q: f64| {
            if l.cell_ms.is_empty() {
                0.0
            } else {
                quantile(&l.cell_ms, q) * l.scale
            }
        };
        let program = l.program_wall.as_secs_f64();
        self.metrics = vec![
            ("sim.run_ms", ms(l.run), "ms"),
            ("sim.self_ms", ms(l.self_time), "ms"),
            ("sim.events", per(d.calls), "count"),
            ("sim.self_ns_per_event", ns(ratio(self_ns, events)), "ns"),
            ("sim.gap_ns_p50", ns(d.gap_ns.quantile(0.5)), "ns"),
            ("sim.gap_ns_p99", ns(d.gap_ns.quantile(0.99)), "ns"),
            (
                "sim.pending_mean",
                ratio(d.pending_sum as f64, events),
                "count",
            ),
            ("sim.pending_max", d.pending_max as f64, "count"),
            ("core.decide_ms", ms(d.decide), "ms"),
            ("core.decide_ns_p50", ns(d.decide_ns.quantile(0.5)), "ns"),
            ("core.decide_ns_p99", ns(d.decide_ns.quantile(0.99)), "ns"),
            ("core.aborts", per(d.aborts), "count"),
            ("core.freq_changes", per(d.freq_changes), "count"),
            ("core.build_ms", ms(l.split.build), "ms"),
            (
                "core.build_candidates",
                per(l.split.build_candidates),
                "count",
            ),
            ("core.build_accepted", per(l.split.build_accepted), "count"),
            (
                "core.build_accept_ratio",
                ratio(
                    l.split.build_accepted as f64,
                    l.split.build_candidates as f64,
                ),
                "ratio",
            ),
            ("core.dvs_ms", ms(l.split.dvs), "ms"),
            ("core.score_ms", ms(l.split.score()), "ms"),
            ("core.replay_ms", ms(l.split.replay), "ms"),
            ("cert.record_ms", ms(l.cert_record), "ms"),
            ("cert.render_ms", ms(l.cert_render), "ms"),
            ("cert.parse_ms", ms(l.cert_parse), "ms"),
            ("cert.bytes", per(l.cert_bytes), "bytes"),
            (
                "cert.bytes_per_event",
                ratio(l.cert_bytes as f64, l.cert_events as f64),
                "bytes",
            ),
            ("audit.audit_ms", ms(l.audit), "ms"),
            ("audit.unexpected_errors", per(l.unexpected_errors), "count"),
            ("workload.build_ms", ms(l.workload_build), "ms"),
            ("workload.generate_ms", ms(l.workload_generate), "ms"),
            ("workload.arrivals", per(l.arrivals), "count"),
            ("analyze.scn_roundtrip_ms", ms(l.scn_roundtrip), "ms"),
            ("bench.cell_ms_p50", cell(0.5), "ms"),
            ("bench.cell_ms_tail", cell(tail / 100.0), "ms"),
            ("bench.journal_bytes", per(l.journal_bytes), "bytes"),
            (
                "bench.residual_ms",
                if l.cell_ms.is_empty() {
                    0.0
                } else {
                    (program - l.covered.as_secs_f64()) * 1e3 * l.scale / n
                },
                "ms",
            ),
            (
                "trace.coverage",
                ratio(l.covered.as_secs_f64(), program),
                "ratio",
            ),
            (
                "trace.overhead",
                ratio(l.traced_wall.as_secs_f64(), program) - 1.0,
                "ratio",
            ),
        ];
        if !l.cell_ms.is_empty() {
            self.note(format!(
                "bench.cell_ms_tail is p{tail} over {} cells (median {:.4} ms)",
                l.cell_ms.len(),
                median(&l.cell_ms) * l.scale
            ));
        }
    }

    /// Prints the notes, one line per metric, and the result object as
    /// the last line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# metric {name} = {value} {unit}");
        }
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let correct = !self.broken && finite && self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
