#!/usr/bin/env bash
# Local CI gate. Run from the repository root:
#
#   ./ci.sh          # full gate
#   ./ci.sh --quick  # skip the release build
#
# Order: cheap static checks first, then the test suites, then the
# analyzer pre-flight over everything the repo ships.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "eua-lint workspace scan (interprocedural, all codes)"
# The full scan checks every lint code and fails the gate on any
# finding, so no `--only` step re-checks a subset of it. Among the codes:
# - time units: all time quantities are integer microseconds
#   (`SimTime`/`TimeDelta` in crates/platform/src/units.rs), and wall
#   clocks stay out of the simulation (lint-time-unit, lint-wall-clock);
# - threads: all first-party parallelism goes through the scoped-thread
#   pool in crates/sim/src/pool.rs (deterministic ordering, panic
#   containment, --jobs / EUA_JOBS resolution); the one sanctioned
#   raw-thread site carries an inline allow (lint-thread-spawn);
# - unsafe: every first-party crate carries the workspace forbid, and
#   the bare keyword stays out of code *and* comments so the forbid can
#   never be weakened quietly in a later diff (lint-unsafe-token).
# The token-aware lexer keeps string literals from false-positiving,
# exemptions are inline `// eua-lint: allow(...)` directives (audited
# when unused), and the walker skips vendor/, target/, and fixture
# corpora on its own.
#
# Beside those: the other lexical rules (hash-collection ordering, float
# sorts via partial_cmp, entropy-seeded RNGs, …) plus the call-graph
# pass — `// eua-lint: hot` propagation with rendered chains, time-unit
# flow at resolved call edges, pool-closure purity, and the
# unresolved-call ambiguity budget. The same gate also runs as a test
# (crates/lint/tests/dogfood.rs) in BOTH feature states via the two
# `cargo test` invocations below. The SARIF pass proves the renderer
# byte-round-trips even when the scan is clean.
#
# The scan is timed here in bash (date +%s%N): the lint binary cannot
# time itself without tripping its own lint-wall-clock rule, and the
# wall time of the whole-workspace interprocedural pass is the number
# that gates growing the analyzer further (BENCH_lint.json).
cargo build -q -p eua-lint
lint_start_ns="$(date +%s%N)"
lint_summary="$(./target/debug/eua-lint check)"
lint_end_ns="$(date +%s%N)"
echo "${lint_summary}"
./target/debug/eua-lint check --format sarif --check >/dev/null
lint_wall_ms="$(( (lint_end_ns - lint_start_ns) / 1000000 ))"
lint_files="$(awk '{print $2}' <<<"${lint_summary}")"

step "eua-lint workspace dataflow scan (CFG + worklist rules)"
# The three dataflow rule families alone (intraprocedural CFGs + the
# worklist fixpoint: loop-depth allocation, seed-provenance taint,
# saturating time arithmetic), timed separately so BENCH_lint.json
# tracks what the per-function fixpoint costs on top of the lexical and
# call-graph passes. The scoped SARIF --check proves the renderer
# byte-round-trips for the new codes even when the scan is clean; the
# byte-pinned fixture golden lives in crates/lint/tests/golden/
# dataflow.sarif (checked by the cli test suite).
dataflow_codes="lint-loop-alloc,lint-seed-taint,lint-unchecked-time-arith"
dataflow_start_ns="$(date +%s%N)"
./target/debug/eua-lint check --only "${dataflow_codes}"
dataflow_end_ns="$(date +%s%N)"
./target/debug/eua-lint check --only "${dataflow_codes}" \
  --format sarif --check >/dev/null
dataflow_wall_ms="$(( (dataflow_end_ns - dataflow_start_ns) / 1000000 ))"
cat > BENCH_lint.json <<EOF
{
  "description": "Wall time of the full eua-lint workspace scan (lexical rules plus the interprocedural call-graph pass: hot propagation, unit flow, pool-closure purity, ambiguity budget) over every first-party .rs file, as measured by ci.sh with bash date +%s%N around one debug-build invocation. dataflow_scan_wall_ms times the three dataflow rule families alone (per-function CFG construction plus the worklist fixpoint for loop-alloc, seed-taint, and unchecked-time-arith). Indicative single-host numbers, not a statistical benchmark.",
  "command": "target/debug/eua-lint check",
  "files_scanned": ${lint_files},
  "scan_wall_ms": ${lint_wall_ms},
  "dataflow_scan_wall_ms": ${dataflow_wall_ms}
}
EOF
echo "eua-lint full scan: ${lint_files} files in ${lint_wall_ms} ms," \
  "dataflow pass alone in ${dataflow_wall_ms} ms (BENCH_lint.json)"

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo test"
cargo test --workspace -q

step "schedule differential suite (invariant checks off)"
cargo test -q -p eua-core --test schedule_differential

step "cargo test --features invariant-checks"
cargo test --features invariant-checks -q

step "schedule differential suite (invariant checks on)"
cargo test -q -p eua-core --features eua-sim/invariant-checks \
  --test schedule_differential

step "engine differential suite (both feature states)"
# The production event loop (calendar queue, arena job state,
# incremental score cache — DESIGN.md §14) vs the preserved
# pre-overhaul reference loop: byte-identical certificates and equal
# outcomes across policies, fault plans, and seeds.
EUA_ENGINE_DIFF_CASES=8 cargo test -q -p eua-core --test engine_differential
EUA_ENGINE_DIFF_CASES=8 cargo test -q -p eua-core \
  --features eua-sim/invariant-checks --test engine_differential

step "fault-plan fuzz suite (reduced cases, both feature states)"
EUA_FUZZ_CASES=12 cargo test -q --test fault_fuzz
EUA_FUZZ_CASES=12 cargo test -q --features invariant-checks --test fault_fuzz

step "analyzer soundness gate (reduced cases, both feature states)"
# Semantic verdicts (Feasible / Infeasible / witness windows) checked
# against fault-free simulation through eua-sim's pool.
EUA_SOUNDNESS_CASES=8 cargo test -q --test analyzer_soundness
EUA_SOUNDNESS_CASES=8 cargo test -q --features invariant-checks --test analyzer_soundness

step "certificate audit gate (reduced cases, both feature states)"
# The offline translation validator: golden certificates must audit
# clean, and the proptest gate (faulted runs only ever trip the
# aud-* codes their FaultPlan predicts) must hold with and without the
# engine's runtime invariant checks compiled in.
cargo run -q -p eua-audit -- check crates/audit/tests/fixtures/*.json >/dev/null
EUA_AUDIT_CASES=6 cargo test -q -p eua-audit --test fault_gate
EUA_AUDIT_CASES=6 cargo test -q -p eua-audit \
  --features eua-sim/invariant-checks --test fault_gate

step "diagnostic-code registry lint"
# Every diagnostic code any binary can emit must be registered in the
# shared eua-analyze registry — exactly once — so `codes` listings and
# SARIF rule metadata stay a single source of truth across all three
# binaries (renderer coverage for every code is pinned by unit tests in
# crates/analyze/src/diagnostic.rs).
analyze_codes="$(cargo run -q -p eua-analyze -- codes)"
dupes="$(awk '{print $1}' <<<"${analyze_codes}" | sort | uniq -d)"
if [[ -n "${dupes}" ]]; then
  echo "error: duplicate codes in the eua-analyze registry: ${dupes}" >&2
  exit 1
fi
for tool in eua-audit eua-lint; do
  cargo run -q -p "${tool}" -- codes | while read -r code _; do
    if ! grep -q "^${code} " <<<"${analyze_codes}"; then
      echo "error: ${code} is emitted by ${tool} but absent from the" \
        "eua-analyze code registry" >&2
      exit 1
    fi
  done
done
# And no gaps in the other direction: every registered lint-* code must
# be one eua-lint actually lists (a renamed rule cannot strand its code).
lint_codes="$(cargo run -q -p eua-lint -- codes)"
grep '^lint-' <<<"${analyze_codes}" | while read -r code _; do
  if ! grep -q "^${code} " <<<"${lint_codes}"; then
    echo "error: ${code} is registered but not listed by eua-lint codes" >&2
    exit 1
  fi
done
# The dataflow family must stay wired end to end: each of the three
# codes registered, listed, and accepted by --only, which must narrow
# the code's own fixture to exactly one finding of that code (a renamed
# rule would otherwise silently drop out of the ci dataflow step above).
for code in lint-loop-alloc lint-seed-taint lint-unchecked-time-arith; do
  if ! grep -q "^${code} " <<<"${analyze_codes}"; then
    echo "error: ${code} is absent from the eua-analyze code registry" >&2
    exit 1
  fi
  if ! grep -q "^${code} " <<<"${lint_codes}"; then
    echo "error: ${code} is not listed by eua-lint codes" >&2
    exit 1
  fi
  name="${code#lint-}"
  fixture="crates/lint/tests/fixtures/${name//-/_}.rs"
  only_status=0
  only_out="$(./target/debug/eua-lint check --only "${code}" "${fixture}")" \
    || only_status=$?
  if [[ "${only_status}" != 1 ]] \
    || [[ "$(grep -c "error\[${code}\]" <<<"${only_out}")" != 1 ]] \
    || ! grep -q ", 1 finding(s)$" <<<"${only_out}"; then
    echo "error: --only ${code} on ${fixture} must exit 1 with exactly" \
      "one ${code} finding:" >&2
    echo "${only_out}" >&2
    exit 1
  fi
done

step "miri smoke (worker pool)"
# Opt-in: EUA_MIRI=1 runs the eua-sim pool tests under miri for UB
# detection in the scoped-thread machinery. Skipped by default (and
# when the toolchain lacks the miri component, as this container's
# does) because miri multiplies test runtime ~30x.
if [[ "${EUA_MIRI:-0}" == 1 ]]; then
  if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p eua-sim pool
  else
    echo "skipped: EUA_MIRI=1 but the miri component is not installed" \
      "(rustup component add miri)" >&2
  fi
else
  echo "skipped (set EUA_MIRI=1 to enable)"
fi

step "figure results gate (--jobs 2, cmp against results/)"
# Reruns the figure binaries at their standard configs and byte-compares
# every CSV and SVG with the committed results/, so a change that moves
# a Figure 2/3 series (or an ablation/budget table) fails here until
# results/ is regenerated with it (EXPERIMENTS.md has the commands).
# The outputs do not depend on --jobs or on the build profile.
rm -rf target/ci-results
cargo run -q -p eua-bench --bin fig2 -- \
  --energy e1 --energy e2 --energy e3 --csv-dir target/ci-results --jobs 2 >/dev/null
for bin in fig3 ablation budget; do
  cargo run -q -p eua-bench --bin "${bin}" -- \
    --csv-dir target/ci-results --jobs 2 >/dev/null
done
for produced in target/ci-results/*; do
  cmp "${produced}" "results/$(basename "${produced}")"
done
for committed in results/*.csv results/*.svg; do
  if [[ ! -e "target/ci-results/$(basename "${committed}")" ]]; then
    echo "error: ${committed} is committed but no figure binary writes it" >&2
    exit 1
  fi
done

step "simulator_throughput bench smoke"
# Reduced samples, no 256-job level: proves the end-to-end and backlog
# throughput benches (the BENCH_engine.json harness) build and run.
EUA_BENCH_SMOKE=1 cargo bench -q -p eua-bench \
  --bench simulator_throughput >/dev/null

step "overload fallback bench guard (ignored timing test, scaling shape)"
# Pins the schedule builder's O(n²) overload fallback to at-worst
# quadratic-ish scaling from 64 to 256 candidates (generous 4x headroom
# for noise). The position-indexed O(n log n) upgrade sketched at the
# slow-path comment in crates/core/src/candidates.rs (a Fenwick prefix
# sum for finish times plus a lazy range-add/range-min segment tree for
# slack, not two Fenwick trees) should beat this baseline.
cargo test -q -p eua-bench --test overload_guard -- --ignored

step "robustness sweep smoke (--jobs 2, byte round-trip, audited)"
# --check re-parses the emitted JSON and fails unless re-rendering it
# reproduces the on-disk bytes exactly (first-party parser/renderer).
# --audit records and audits one eua-certificate/1 document per sweep
# cell in-process (all 48 quick cells, faulted ones included); the step
# fails if any point reports a nonzero audit_failures count.
cargo run -q -p eua-bench --bin robustness -- \
  --quick --jobs 2 --out target/ci-robustness.json \
  --audit --check 2>&1 | tail -3
if grep -Eq '"audit_failures": [1-9]' target/ci-robustness.json; then
  echo "robustness sweep: audited cells failed audit" >&2
  exit 1
fi

step "chaos campaign smoke (halt + resume == uninterrupted, --jobs 2)"
# A fixed-seed 32-cell campaign run twice: once uninterrupted, once
# killed after 10 cells (--halt-after, the deterministic stand-in for a
# mid-flight kill) and resumed. Journal and report must be
# byte-identical — every cell is a pure function of (seed, index), so
# resume replays nothing and appends exactly the missing cells.
rm -rf target/ci-chaos
cargo run -q -p eua-bench --bin eua-chaos -- \
  --quick --seed 7 --cells 32 --jobs 2 \
  --journal target/ci-chaos/full.jsonl --out target/ci-chaos/full.json \
  2>/dev/null
cargo run -q -p eua-bench --bin eua-chaos -- \
  --quick --seed 7 --cells 32 --jobs 2 --halt-after 10 \
  --journal target/ci-chaos/twophase.jsonl --out target/ci-chaos/twophase.json \
  2>/dev/null
cargo run -q -p eua-bench --bin eua-chaos -- \
  --quick --seed 7 --cells 32 --jobs 2 --resume \
  --journal target/ci-chaos/twophase.jsonl --out target/ci-chaos/twophase.json \
  2>/dev/null
cmp target/ci-chaos/full.jsonl target/ci-chaos/twophase.jsonl
cmp target/ci-chaos/full.json target/ci-chaos/twophase.json

step "regression corpus replay (both feature states)"
# The shrunk chaos repros in tests/regression_corpus/ must still
# reproduce their recorded failure (graded + audited), with and without
# the engine's runtime invariant checks compiled in. The default-state
# run is also part of `cargo test --workspace` above; this pins the
# invariant-checks state explicitly.
cargo test -q --test regression_corpus
cargo test -q --features invariant-checks --test regression_corpus

if [[ "$QUICK" == 0 ]]; then
  step "cargo build --release"
  cargo build --release -q
fi

step "analyzer pre-flight (all shipped examples)"
cargo run -q -p eua-analyze -- check --all-examples

step "analyzer rejects a broken scenario"
if cargo run -q -p eua-analyze -- check crates/analyze/scenarios/invalid.scn \
    >/dev/null 2>&1; then
  echo "error: eua-analyze accepted scenarios/invalid.scn" >&2
  exit 1
fi

step "analyzer SARIF round-trip (--format sarif --check)"
# --check fails (exit 2) unless the SARIF output byte-round-trips through
# the first-party JSON tree and validates against the pinned 2.1.0 subset.
cargo run -q -p eua-analyze -- check --format sarif --check \
  crates/analyze/scenarios/valid.scn >/dev/null

printf '\nCI gate passed.\n'
