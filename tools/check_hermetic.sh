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

echo "== hermetic check: rustfmt (the tree is formatted) =="
# One style for every line: a change formats its own lines with
# `cargo fmt --all` instead of leaving them, or reformatting others'.
cargo fmt --all --check

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

echo "== hermetic check: the benchmark package's own tests =="
# Its oracles decode every golden line with `farm::parse_line` and its
# probe times `Measure::response_times`; only its own tests execute
# them, so a change to either must pass here too.
cargo test --release --offline --manifest-path rtsim-benchmark/Cargo.toml

echo "== hermetic check: offline test suite =="
cargo test -q --offline --workspace

echo "== hermetic check: regression farm goldens (full matrix, both exec modes) =="
# The release build above already produced the farm binary; sweep the
# whole 196-cell matrix (single- and multi-core cells, fault-injection
# cells) against tests/goldens/farm.jsonl so behavioural drift is caught
# here too. Re-pin intentional changes with `rtsim-farm --bless`. The
# sweep runs once per kernel execution mode: the thread-backed kernel
# (its release build, with the kernel handed from process thread to
# process thread) and the run-to-completion (segment) kernel must both
# reproduce every pinned golden. Each sweep takes about a second.
for exec_mode in thread segment; do
    echo "-- exec mode: $exec_mode --"
    RTSIM_EXEC_MODE="$exec_mode" "$repo/target/release/rtsim-farm" --check
done

echo "== hermetic check: grid cache round-trip (smoke subset) =="
# Cold sweep into a scratch cache, then a warm sweep at a different
# shard count: must be 100 % hits with byte-identical merged results.
grid_cache="$(mktemp -d)"
trap 'rm -rf "$grid_cache"' EXIT
RTSIM_BENCH_SMOKE=1 RTSIM_GRID_CACHE="$grid_cache" \
    "$repo/target/release/rtsim-farm" --check-cache

echo "== hermetic check: same-process speed gates (segment kernel, §4 claim) =="
# ab_speed_table measures approach A, approach B on the thread-backed
# kernel and approach B on the run-to-completion kernel in the same
# process, so its ratios are machine independent: every side shares
# whatever noise the host has. It runs in full mode (5 samples per case,
# about 6 s): the thread-backed walls vary too much for one sample.
# Each gate takes the median over the cases of the per-case ratio of
# median walls.
# - The segment kernel must keep a >= 5x median speedup over the
#   thread-backed one (it reads about 20x), so a slowdown of the
#   segment kernel alone trips it at about 4x.
# - Approach B must keep a >= 1.1x median speedup over approach A on
#   the thread-backed kernel: the paper's own §4 claim, a floor fixed
#   in the binary (it reads about 1.5x; single cases dip below 1x,
#   hence the median).
# The switch counts of every row are pinned exactly by
# tests/regressions.rs::ab_stress_pins, which the test suite above
# already ran. The thread handoff's own cost moves every thread-backed
# wall alike; the farm_thread workload of rtsim-benchmark
# (BENCHMARK.json) bounds it.
"$repo/target/release/ab_speed_table" --assert-speedup 5

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
