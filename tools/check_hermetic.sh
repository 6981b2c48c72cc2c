#!/usr/bin/env bash
# Tier-1 gate: the workspace must build and test fully OFFLINE, with an
# empty cargo registry, and no manifest may name an external (crates.io)
# dependency. Run from anywhere; operates on the repo containing this
# script.
#
# Usage: tools/check_hermetic.sh
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

# Crate names that must never reappear in a manifest. Extend this list
# when rejecting a new dependency (see DESIGN.md "Hermetic build policy").
forbidden='rand|proptest|criterion|crossbeam|parking_lot|serde|tokio|rayon|libc'

echo "== hermetic check: manifests =="
# The scan globs for manifests rather than naming them, so any newly
# added workspace member is covered automatically. Guard the two ways a
# new crate could dodge it: the root workspace must keep the `crates/*`
# member glob, and every crates/* directory must actually carry a
# manifest the find below will pick up.
if ! grep -Eq '^\s*members\s*=\s*\["crates/\*"\]' "$repo/Cargo.toml"; then
    echo "FAIL: root Cargo.toml no longer globs members as [\"crates/*\"];" >&2
    echo "      a hand-listed member set can silently omit new crates" >&2
    exit 1
fi
for dir in "$repo"/crates/*/; do
    if [ ! -f "$dir/Cargo.toml" ]; then
        echo "FAIL: $dir has no Cargo.toml (stray directory under crates/)" >&2
        exit 1
    fi
done
manifests=$(find "$repo" -name Cargo.toml -not -path '*/target/*')
echo "scanning $(echo "$manifests" | wc -l) manifests (root + $(ls -d "$repo"/crates/*/ | wc -l) members)"
if grep -En "^[[:space:]]*($forbidden)[[:space:]]*=" $manifests; then
    echo "FAIL: external dependency named in a manifest (see above)" >&2
    exit 1
fi
# Belt and braces: inside any *dependencies* section, every entry must be
# an intra-workspace reference (path = / workspace = true) — a bare
# version requirement means a crates.io lookup.
bad=$(awk '
    /^\[/ { in_deps = ($0 ~ /dependencies/) }
    in_deps && /=/ && !/path[[:space:]]*=/ && !/workspace[[:space:]]*=[[:space:]]*true/ {
        print FILENAME ":" FNR ": " $0
    }
' $manifests)
if [ -n "$bad" ]; then
    echo "$bad"
    echo "FAIL: version-requirement dependency found (crates.io lookup)" >&2
    exit 1
fi
echo "ok: no external dependencies declared"

echo "== hermetic check: offline release build (all targets) =="
cargo build --release --offline --workspace --all-targets

echo "== hermetic check: clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== hermetic check: docs (rustdoc warnings are errors) =="
# A dangling intra-doc link, e.g. one left behind when an item is
# deleted, fails here instead of rotting in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== hermetic check: the benchmark package still compiles =="
# rtsim-benchmark is a package of its own (not a workspace member), so
# the workspace build above never compiles it. It uses the public API of
# the facade; an API change that breaks it must fail here, not only when
# the benchmark is next run.
cargo check --offline --all-targets --manifest-path rtsim-benchmark/Cargo.toml

echo "== hermetic check: offline test suite =="
cargo test -q --offline --workspace

echo "== hermetic check: regression farm goldens (smoke subset, both exec modes) =="
# The release build above already produced the farm binary; sweep the
# smoke matrix (which includes the dual-core smp_partitioned/smp_global
# cells and two fault-injection cells, so the fault lanes are pinned in
# both exec modes on every CI run) against tests/goldens/farm.jsonl so
# behavioural drift is caught here too. Re-pin intentional changes with
# `rtsim-farm --bless`. The sweep runs once per kernel execution mode:
# the thread-backed and the run-to-completion (segment) kernels must
# both reproduce the same pinned goldens — the cheap CI face of the
# 224-cell equivalence oracle in crates/farm/tests/exec_mode_equiv.rs.
for exec_mode in thread segment; do
    echo "-- exec mode: $exec_mode --"
    RTSIM_BENCH_SMOKE=1 RTSIM_EXEC_MODE="$exec_mode" \
        "$repo/target/release/rtsim-farm" --check
done

echo "== hermetic check: regression farm goldens (full matrix, segment mode) =="
# The whole 224-cell matrix in the run-to-completion kernel (about a
# second): every golden line is re-derived by the one-pass fingerprint
# on every CI run, not only the smoke subset's.
RTSIM_EXEC_MODE=segment "$repo/target/release/rtsim-farm" --check

echo "== hermetic check: grid cache round-trip (smoke subset) =="
# Cold sweep into a scratch cache, then a warm sweep at a different
# shard count: must be 100 % hits with byte-identical merged results.
grid_cache="$(mktemp -d)"
trap 'rm -rf "$grid_cache"' EXIT
RTSIM_BENCH_SMOKE=1 RTSIM_GRID_CACHE="$grid_cache" \
    "$repo/target/release/rtsim-farm" --check-cache

echo "== hermetic check: segment-kernel speedup gate =="
# ab_speed_table measures the thread-backed and the run-to-completion
# kernels in the same process, so the ratio is machine independent:
# both sides share whatever noise the host has. The segment kernel must
# keep a >= 25x median speedup; a slowdown of the segment kernel alone
# trips it well before it reaches 10x. The switch counts of every row
# are pinned exactly by tests/regressions.rs::ab_stress_pins, which the
# test suite above already ran. A slowdown confined to the thread
# handoff moves both sides and no same-process ratio sees it; the
# farm_thread workload of rtsim-benchmark (BENCHMARK.json) bounds it.
RTSIM_BENCH_SMOKE=1 "$repo/target/release/ab_speed_table" --assert-speedup 25

echo "== hermetic check: schedule explorer =="
# Exhaustively explore every registered scenario at the default budget
# (about a second): each healthy scenario must hold every oracle on
# every explored schedule, and each seeded mutant must be flagged with
# its counterexample replay verified, or rtsim-check exits nonzero. The
# exact run/state/trace counts are pinned by the tier-1 test
# crates/check/tests/coverage_baseline.rs, which the test suite above
# already ran.
"$repo/target/release/rtsim-check"

echo "hermetic check PASSED"
