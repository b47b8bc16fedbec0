#!/usr/bin/env bash
# CI gate: tier-1 verify plus lint. Run from the repo root.
#
#   scripts/ci.sh   # fmt + build + test + clippy + rustdoc + airbench tests + forbid.sh
#
# Tier-1 (`cargo test`) is the only correctness gate: the fault-injection
# campaign sweeps, the fuzz-farm smoke and soak rows, and the airlint
# binary over the golden corpus and the examples all run there. The
# workspace is offline-first: everything here works with no network and
# no registry deps. Throughput is measured by airbench (BENCHMARK.json),
# not here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format: cargo fmt --check (workspace and airbench) =="
cargo fmt --check
# airbench is its own package, so the workspace check does not reach it.
cargo fmt --check --manifest-path crates/bench/src/bin/airbench/Cargo.toml

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== lint: clippy (all targets, warnings are errors) =="
cargo clippy --all-targets -- -D warnings

echo "== docs: rustdoc (warnings, stale intra-doc links among them, are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== airbench: tests and clippy against the current crates =="
# airbench is a package of its own, compiled against the crates by path;
# checking it here makes a core API change that breaks it fail CI.
airbench=crates/bench/src/bin/airbench/Cargo.toml
cargo test -q --manifest-path "$airbench"
cargo clippy --all-targets --manifest-path "$airbench" -- -D warnings

echo "== lint: no panicking constructs in kernel-grade crates =="
scripts/forbid.sh

echo "CI OK"
