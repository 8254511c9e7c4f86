#!/usr/bin/env bash
# Rewrites perfbench/reference/<workload>.txt. Run from the repository
# root, only after a change that alters program outputs on purpose.
# Engine workloads get one line per stored seed; the chaos workloads,
# whose cells do not depend on the seed, get one `pool` line.
# Usage: perfbench/regen_reference.sh [workload...]
set -euo pipefail
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(fig2-sweep overload-backlog chaos-audited chaos-plain)
fi
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
for w in "${workloads[@]}"; do
  case "$w" in
    chaos-*) seeds="0" ;;
    *) seeds="$(seq 0 20) 7919" ;;
  esac
  out="perfbench/reference/$w.txt"
  {
    echo "# $w reference digests: seed (or pool), then digests in unit or block order"
    for s in $seeds; do
      "$bin" --workload "$w" --seed "$s" --emit-reference
    done
  } > "$out.tmp"
  mv "$out.tmp" "$out"
done
