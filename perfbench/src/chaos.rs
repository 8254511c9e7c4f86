//! The two workloads whose unit is one chaos-campaign cell:
//! `chaos-audited` and `chaos-plain`.
//!
//! Each cell is a one-cell campaign run through
//! [`eua_bench::run_campaign`], so the journal is written exactly as a
//! real campaign writes it. Every cell of a campaign is a pure function
//! of the master seed. The benchmark's cells come in blocks of 20: for
//! each block it draws a stream of master seeds from a fixed pool stream
//! and keeps, in turn, the first whose cell has the next (universe
//! family, policy) pair of a fixed rotation, so every block covers all
//! five families under all four policies. Scenario cost is heavy-tailed
//! (an audited cell ranges from about 1 ms to about 2 s), so the pool is
//! the same for every seed; the seed shuffles the order of the blocks
//! and rotates the cells within each block.

use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eua_analyze::scenario::{EnergySpec, ScenarioSpec};
use eua_bench::{plan_cell, run_campaign, unexpected_audit_errors, ChaosConfig, Json};
use eua_core::make_policy;
use eua_platform::{EnergySetting, FrequencyTable, TimeDelta};
use eua_sim::{
    classify_degradation, Engine, Platform, RunCertificate, SimConfig, DEFAULT_COLLAPSE_FRACTION,
};
use eua_workload::UniverseFamily;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::digest::{Fnv, Verifier};
use crate::heap;
use crate::report::{Layers, Report};
use crate::stats::{median, quantile, tail_percentile};
use crate::trace::TimingPolicy;
use crate::calib::{HostClock, Span};
use crate::{mix, SetupClock, Workload};

const POLICIES: [&str; 4] = ["eua", "dasa", "edf", "llf"];
/// Cells per block, one full (family, policy) rotation. Time is checked
/// and outputs digested a block at a time.
const BLOCK: usize = 20;

struct Shape {
    audit: bool,
    horizon: TimeDelta,
    /// Cells measured per run. A run repeats them while time remains
    /// and each cell counts the median of its scaled runs; the first
    /// pass always completes, so a run's figures rest on the same cells
    /// however busy the host was.
    cells: usize,
    /// Cells per traced pass.
    traced: usize,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        // A 100 ms horizon: audited cell cost is heavy-tailed (at the
        // standard 2 s a cell averages about 120 ms and a `uam-boundary`
        // cell can take 2 s), so a run needs many cheap cells, each run
        // several times, before its figures stop depending on the seed
        // and on how busy the host was.
        Workload::ChaosAudited => Shape {
            audit: true,
            horizon: TimeDelta::from_millis(100),
            cells: 600,
            traced: 40,
        },
        _ => Shape {
            audit: false,
            horizon: TimeDelta::from_secs(2),
            cells: 800,
            traced: 320,
        },
    }
}

fn config(shape: &Shape, master_seed: u64) -> ChaosConfig {
    ChaosConfig {
        master_seed,
        cells: 1,
        horizon: shape.horizon,
        jobs: 1,
        policies: POLICIES.iter().map(|p| p.to_string()).collect(),
        audit: shape.audit,
    }
}

/// The master seeds of pool block `block` of `stream`: twenty cells, the
/// first whose cell has each (universe family, policy) pair, in rotation
/// order. Blocks are independent, so any block is planned without the
/// ones before it.
fn block_masters(shape: &Shape, stream: u64, block: usize) -> Vec<u64> {
    let mut masters = Vec::with_capacity(BLOCK);
    let mut candidate = 0u64;
    for j in 0..BLOCK {
        let family = UniverseFamily::ALL[j % UniverseFamily::ALL.len()];
        let policy = POLICIES[(j / UniverseFamily::ALL.len()) % POLICIES.len()];
        loop {
            let m = mix(stream ^ ((block as u64) << 32), 0x4348_4153 ^ (candidate << 20));
            candidate += 1;
            let plan = plan_cell(&config(shape, m), 0);
            if plan.family == family && plan.policy == policy {
                masters.push(m);
                break;
            }
        }
    }
    masters
}

/// The cells of a run: the workload's fixed pool, in an order drawn from
/// the run's seed.
struct Cells {
    /// The pool block at each block position of the run.
    order: Vec<usize>,
    /// Rotation of the cells within every block.
    shift: usize,
    planned: BTreeMap<usize, Vec<u64>>,
}

impl Cells {
    fn new(shape: &Shape, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(mix(seed, 0x4f52_4452));
        let mut order: Vec<usize> = (0..shape.cells / BLOCK).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Cells {
            order,
            shift: rng.gen_range(0..BLOCK),
            planned: BTreeMap::new(),
        }
    }

    /// The pool block, and the cell within it, of the run's cell `i`.
    fn slot(&self, i: usize) -> (usize, usize) {
        (self.order[i / BLOCK], (i % BLOCK + self.shift) % BLOCK)
    }

    /// The master seed of the run's cell `i`.
    fn master(&mut self, shape: &Shape, i: usize) -> u64 {
        let (block, k) = self.slot(i);
        let masters = self
            .planned
            .entry(block)
            .or_insert_with(|| block_masters(shape, POOL_STREAM, block));
        masters[k]
    }
}

/// The key of the chaos workloads' one reference line: their cells, and
/// so their outputs, are the same for every seed.
const POOL_KEY: &str = "pool";

/// The utility ratios of one pool block, digested in pool order
/// whatever order a run takes the cells in.
struct BlockRatios(Vec<String>);

impl BlockRatios {
    fn new() -> Self {
        BlockRatios(vec![String::new(); BLOCK])
    }

    fn digest(&self) -> u64 {
        let mut d = Fnv::new();
        for r in &self.0 {
            d.bytes(r.as_bytes());
        }
        d.finish()
    }
}

fn journal_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("journal-{}.jsonl", std::process::id()))
}

/// What the program's own journal says about a cell.
struct CellRecord {
    ratio: String,
    audit_errors: u64,
}

fn record_of(records: &[Json]) -> Result<CellRecord, String> {
    let r = records.first().ok_or("campaign journaled no record")?;
    if !matches!(r.get("panic"), Some(Json::Null)) {
        return Err(format!(
            "cell panicked: {}",
            r.get("panic").map_or(String::new(), Json::render_compact)
        ));
    }
    let ratio = r
        .get("utility_ratio")
        .map(Json::render_compact)
        .ok_or("record has no utility_ratio")?;
    let audit_errors = r
        .get("audit_errors")
        .map(Json::render_compact)
        .and_then(|t| t.parse().ok())
        .ok_or("record has no audit_errors")?;
    Ok(CellRecord {
        ratio,
        audit_errors,
    })
}

/// One cell through the program's entry point. The journal must not
/// exist: like a real campaign, each cell writes a new one.
fn run_cell(shape: &Shape, master: u64, journal: &Path) -> Result<CellRecord, String> {
    let config = config(shape, master);
    let out = catch_unwind(AssertUnwindSafe(|| {
        run_campaign(&config, journal, false, None)
    }))
    .map_err(|_| "run_campaign panicked".to_string())??;
    let record = record_of(&out.records)?;
    if record.audit_errors > 0 {
        return Err(format!("{} unexpected audit errors", record.audit_errors));
    }
    Ok(record)
}

/// Removes a cell's journal, outside the cell's timing. Truncating the
/// old journal instead makes ext4 write it to disk at once (its
/// replace-via-truncate heuristic), so every cell would wait for the
/// disk, and for whatever else the shared host was writing.
fn discard(journal: &Path) {
    // Best effort: a leftover journal lives in the ignored work dir.
    let _ = fs::remove_file(journal);
}

struct Ready {
    shape: Shape,
    cells: Cells,
    journal: PathBuf,
}

/// The stream the measured cells come from, whatever the run's seed.
/// With the cells drawn from the run's seed, which 600 audited cells a
/// run measured moved its figures by 10-20% between seeds (their heap
/// peak too, which does not depend on timing), against 2-4% between
/// runs of one seed: cell cost is heavy-tailed. So, as `fig2-sweep`
/// fixes its task sets, the cells are fixed and the seed orders them.
const POOL_STREAM: u64 = 0x504f_4f4c;
/// The stream of the warm-up cells, which are not measured.
const WARMUP_STREAM: u64 = 0;

/// Creates the journal directory, plans the first block, and runs one
/// warm-up cell per family.
fn set_up(workload: Workload, seed: u64) -> Result<Ready, String> {
    let shape = shape(workload);
    let journal = journal_path();
    if let Some(dir) = journal.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    let mut cells = Cells::new(&shape, seed);
    cells.master(&shape, 0);
    let warmup = block_masters(&shape, WARMUP_STREAM, 0);
    for &master in &warmup[..UniverseFamily::ALL.len()] {
        run_cell(&shape, master, &journal)?;
        discard(&journal);
    }
    Ok(Ready {
        shape,
        cells,
        journal,
    })
}

fn clean_up(journal: &Path) {
    discard(journal);
    if let Some(dir) = journal.parent() {
        let _ = fs::remove_dir(dir);
    }
}

pub fn measure(workload: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let mut clock = HostClock::new();
    let mut setup = SetupClock::new(seconds);
    let mut ready = match setup.time(&mut clock, || set_up(workload, seed)) {
        Ok(r) => r,
        Err(e) => {
            clean_up(&journal_path());
            return report.fail(format!("set-up failed: {e}"));
        }
    };
    let shape = &ready.shape;
    let mut verifier = Verifier::new(workload.name(), POOL_KEY);
    // Whole passes over the first `shape.cells` cells until the time is
    // spent; the first pass always completes, so every run measures the
    // same cells however slow the host is.
    let mut spans: Vec<Vec<Span>> = vec![Vec::new(); shape.cells];
    let mut peaks = vec![f64::INFINITY; shape.cells];
    let mut failed = vec![false; shape.cells];
    let mut measured = 0.0;
    let mut passes = 0;
    while passes == 0 || measured < seconds {
        for block in 0..shape.cells / BLOCK {
            let start = Instant::now();
            let mut ratios = BlockRatios::new();
            let mut block_ok = true;
            for k in 0..BLOCK {
                let index = block * BLOCK + k;
                let master = ready.cells.master(shape, index);
                let (_, slot) = ready.cells.slot(index);
                clock.tick();
                heap::reset_peak();
                let (result, span) = clock.span(|| run_cell(shape, master, &ready.journal));
                discard(&ready.journal);
                peaks[index] = peaks[index].min(heap::peak_mb());
                report.attempted += 1;
                match result {
                    Ok(record) => {
                        ratios.0[slot] = record.ratio;
                        spans[index].push(span);
                    }
                    Err(e) => {
                        block_ok = false;
                        failed[index] = true;
                        report.failed += 1;
                        verifier.note(format!("cell {index} (master seed {master}): {e}"));
                    }
                }
            }
            let (pool_block, _) = ready.cells.slot(block * BLOCK);
            if block_ok
                && !verifier.check(
                    pool_block,
                    ratios.digest(),
                    &format!("pool block {pool_block}"),
                )
            {
                report.failed += BLOCK as u64;
            }
            measured += start.elapsed().as_secs_f64();
            while setup.due(measured) {
                if let Err(e) = setup.time(&mut clock, || set_up(workload, seed)) {
                    clean_up(&ready.journal);
                    return report.fail(format!("set-up failed: {e}"));
                }
            }
            if passes > 0 && measured >= seconds {
                break;
            }
        }
        passes += 1;
    }
    while setup.remaining() > 0 {
        if let Err(e) = setup.time(&mut clock, || set_up(workload, seed)) {
            clean_up(&ready.journal);
            return report.fail(format!("set-up failed: {e}"));
        }
    }
    clock.sample();
    clean_up(&ready.journal);
    report.note(format!(
        "measured {} cells, {passes} passes, the last possibly partial ({} ms horizon, \
         audit {}) in {measured:.2} s",
        shape.cells,
        shape.horizon.as_micros() / 1000,
        shape.audit,
    ));
    report.reference(&verifier);
    report.note(clock.describe());
    // Each cell's time is the median of its scaled runs; a cell that
    // failed on any run is left out (and counted in `failed`).
    let mut cell_ms = Vec::new();
    let mut raw_ms = Vec::new();
    let mut cell_peaks = Vec::new();
    for ((s, &peak), &bad) in spans.iter().zip(&peaks).zip(&failed) {
        if !bad && !s.is_empty() {
            let scaled: Vec<f64> = s.iter().map(|&span| clock.scaled_ms(span)).collect();
            let raw: Vec<f64> = s.iter().map(|&span| span.raw_ms()).collect();
            cell_ms.push(median(&scaled));
            raw_ms.push(median(&raw));
            cell_peaks.push(peak);
        }
    }
    let tail = tail_percentile(workload.tail_percentile(), cell_ms.len());
    report.note(format!(
        "each cell's time is the median of its runs; run_ms_tail and peak_heap_mb are \
         p{tail} over {} cells",
        cell_ms.len(),
    ));
    report.end_to_end(
        [setup.median(&clock), setup.raw_median()],
        [&cell_ms, &raw_ms],
        cell_ms.len() as f64 * shape.horizon.as_secs_f64(),
        tail,
        quantile(&cell_peaks, tail / 100.0),
    );
}

/// Emits the workload's reference line: the digests of the pool's
/// blocks, in pool order.
pub fn reference_line(workload: Workload) -> Result<String, String> {
    let ready = set_up(workload, 0)?;
    let shape = &ready.shape;
    let mut blocks = Vec::new();
    for block in 0..shape.cells / BLOCK {
        let mut ratios = BlockRatios::new();
        for (k, master) in block_masters(shape, POOL_STREAM, block).into_iter().enumerate() {
            let record = run_cell(shape, master, &ready.journal)
                .map_err(|e| format!("pool block {block} cell {k}: {e}"))?;
            discard(&ready.journal);
            ratios.0[k] = record.ratio;
        }
        blocks.push(ratios.digest());
    }
    clean_up(&ready.journal);
    Ok(crate::digest::reference_line(POOL_KEY, &blocks))
}

/// The per-stage times of one mirrored cell.
#[derive(Default)]
struct Mirror {
    bench: Duration,
    build: Duration,
    scn: Duration,
    generate: Duration,
    arrivals: u64,
    engine: Duration,
    plain: Duration,
    record: Duration,
    render: Duration,
    parse: Duration,
    audit: Duration,
    cert_bytes: u64,
    cert_events: u64,
    unexpected: u64,
    ratio: String,
}

/// Repeats `execute_cell` one public call at a time, timing each.
fn mirror_cell(
    shape: &Shape,
    master: u64,
    stats: &mut crate::trace::DecideStats,
) -> Result<Mirror, String> {
    let mut m = Mirror::default();
    let config = config(shape, master);
    let platform = Platform::powernow(EnergySetting::e1());

    let t = Instant::now();
    let plan = plan_cell(&config, 0);
    m.bench += t.elapsed();

    let t = Instant::now();
    let scenario = plan
        .family
        .generate(plan.universe_cell, master, platform.f_max())
        .map_err(|e| format!("universe generation failed: {e}"))?;
    m.build = t.elapsed();

    let t = Instant::now();
    let table = FrequencyTable::powernow_k6();
    let spec =
        ScenarioSpec::from_workload(&scenario.name, &scenario.workload, &table, EnergySpec::e1())?;
    let rendered = spec.render();
    let reparsed = ScenarioSpec::parse(&rendered).map_err(|e| e.to_string())?;
    if reparsed != spec || reparsed.render() != rendered {
        return Err("scenario text is not a parse/render fixpoint".into());
    }
    let workload = reparsed.to_workload()?;
    m.scn = t.elapsed();

    let t = Instant::now();
    let mut rng = SmallRng::seed_from_u64(plan.run_seed);
    for p in &workload.patterns {
        m.arrivals += p.generate(shape.horizon, &mut rng).len() as u64;
    }
    m.generate = t.elapsed();

    let policy = || make_policy(&plan.policy).ok_or(format!("unknown policy {}", plan.policy));
    let mut timed = TimingPolicy::new(policy()?, false);
    let t = Instant::now();
    let plain = Engine::run_with_faults(
        &workload.tasks,
        &workload.patterns,
        &platform,
        &mut timed,
        &SimConfig::new(shape.horizon),
        plan.run_seed,
        &plan.faults,
    )
    .map_err(|e| format!("simulation failed: {e}"))?;
    m.plain = t.elapsed();
    stats.merge(&timed.stats);
    m.engine = m.plain;
    let mut outcome = plain;

    if shape.audit {
        let mut timed = TimingPolicy::new(policy()?, false);
        let t = Instant::now();
        let certified = Engine::run_with_faults(
            &workload.tasks,
            &workload.patterns,
            &platform,
            &mut timed,
            &SimConfig::new(shape.horizon).with_certificate(),
            plan.run_seed,
            &plan.faults,
        )
        .map_err(|e| format!("simulation failed: {e}"))?;
        m.engine = t.elapsed();
        m.record = m.engine.saturating_sub(m.plain);
        if certified.metrics != outcome.metrics {
            return Err("recording a certificate changed the metrics".into());
        }
        let cert = certified
            .certificate
            .as_ref()
            .ok_or("no certificate recorded")?;

        let t = Instant::now();
        let text = cert.render();
        m.render = t.elapsed();
        m.cert_bytes = text.len() as u64;
        m.cert_events = cert.events.len() as u64;

        let t = Instant::now();
        let parsed = RunCertificate::parse(&text)?;
        m.parse = t.elapsed();
        // Freeing is part of each stage's cost in the program too.
        let t = Instant::now();
        drop(text);
        m.render += t.elapsed();

        let t = Instant::now();
        let report = eua_audit::audit(&parsed);
        m.unexpected = unexpected_audit_errors(&report, &plan.faults);
        drop(report);
        m.audit = t.elapsed();
        let t = Instant::now();
        drop(parsed);
        m.parse += t.elapsed();
        outcome = certified;
    }

    let t = Instant::now();
    let grade = classify_degradation(&outcome.metrics, &workload.tasks, DEFAULT_COLLAPSE_FRACTION);
    std::hint::black_box(grade.overall);
    m.ratio = Json::num(outcome.metrics.utility_ratio()).render_compact();
    m.bench += t.elapsed();
    let t = Instant::now();
    drop(outcome);
    let freed = t.elapsed();
    m.engine += freed;
    if shape.audit {
        m.record += freed;
    } else {
        m.plain += freed;
    }
    Ok(m)
}

/// Traced run: each cell of a fixed list goes through the program
/// (`run_campaign`) and through the mirror; their verdicts must agree.
pub fn trace(workload: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let mut ready = match set_up(workload, seed) {
        Ok(r) => r,
        Err(e) => {
            clean_up(&journal_path());
            return report.fail(format!("set-up failed: {e}"));
        }
    };
    let shape = &ready.shape;
    let mut verifier = Verifier::new(workload.name(), POOL_KEY);
    let mut l = Layers::default();
    let mut clock = HostClock::new();
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for block in 0..shape.traced / BLOCK {
            let mut ratios = BlockRatios::new();
            let mut block_ok = true;
            for k in 0..BLOCK {
                let index = block * BLOCK + k;
                let master = ready.cells.master(shape, index);
                let (_, slot) = ready.cells.slot(index);
                clock.tick();
                report.attempted += 1;
                let t = Instant::now();
                let program = run_cell(shape, master, &ready.journal);
                let wall = t.elapsed();
                let journal_bytes = fs::metadata(&ready.journal).map_or(0, |m| m.len());
                discard(&ready.journal);
                let t = Instant::now();
                let mirrored = mirror_cell(shape, master, &mut l.decide);
                let mirror_wall = t.elapsed();
                let verdict = match (program, mirrored) {
                    (Ok(p), Ok(m)) if p.ratio == m.ratio && m.unexpected == p.audit_errors => {
                        Ok((p, m))
                    }
                    (Ok(p), Ok(m)) => Err(format!(
                        "mirror disagrees with the program: utility_ratio {} vs {}, \
                         audit errors {} vs {}",
                        m.ratio, p.ratio, m.unexpected, p.audit_errors
                    )),
                    (Err(e), _) => Err(e),
                    (_, Err(e)) => Err(format!("mirror failed: {e}")),
                };
                match verdict {
                    Ok((p, m)) => {
                        ratios.0[slot] = p.ratio;
                        l.cell_ms.push(wall.as_secs_f64() * 1e3);
                        l.program_wall += wall;
                        l.traced_wall += mirror_wall.saturating_sub(if shape.audit {
                            m.plain
                        } else {
                            Duration::ZERO
                        });
                        l.journal_bytes += journal_bytes;
                        l.workload_build += m.build;
                        l.workload_generate += m.generate;
                        l.arrivals += m.arrivals;
                        l.scn_roundtrip += m.scn;
                        l.run += m.plain;
                        l.cert_record += m.record;
                        l.cert_render += m.render;
                        l.cert_parse += m.parse;
                        l.cert_bytes += m.cert_bytes;
                        l.cert_events += m.cert_events;
                        l.audit += m.audit;
                        l.unexpected_errors += m.unexpected;
                        l.covered +=
                            m.bench + m.build + m.scn + m.engine + m.render + m.parse + m.audit;
                    }
                    Err(e) => {
                        block_ok = false;
                        report.failed += 1;
                        verifier.note(format!("cell {index} (master seed {master}): {e}"));
                    }
                }
            }
            let (pool_block, _) = ready.cells.slot(block * BLOCK);
            if block_ok
                && !verifier.check(
                    pool_block,
                    ratios.digest(),
                    &format!("pool block {pool_block}"),
                )
            {
                report.failed += BLOCK as u64;
            }
        }
        passes += 1;
    }
    clean_up(&ready.journal);
    report.reference(&verifier);
    report.note(clock.describe());
    l.units = l.cell_ms.len() as f64;
    l.scale = clock.run_scale();
    // Engine self time excludes decide() and the decorator's own work.
    l.self_time = l.run.saturating_sub(l.decide.decide + l.decide.bookkeeping);
    l.covered = l.covered.saturating_sub(l.decide.bookkeeping);
    report.note(format!(
        "traced {passes} passes of {} cells; core.dvs/build/score/replay are not \
         replayed under faults and read 0",
        shape.traced
    ));
    report.per_layer(&l);
}
