#!/usr/bin/env bash
# CI gate: tier-1 verify plus lint. Run from the repo root.
#
#   scripts/ci.sh          # build + test + clippy + rustdoc
#   scripts/ci.sh --bench  # additionally run the campaign matrix and the
#                          # fuzz soak
#
# The workspace is offline-first: everything here works with no network
# and no registry deps. Throughput is measured by airbench
# (BENCHMARK.json), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

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

# The release build above already produced the airlint binary; invoking
# it directly spares one cargo workspace check per corpus case (~30 of
# them) per CI run.
airlint=target/release/airlint
[[ -x "$airlint" ]] || { echo "missing $airlint after release build" >&2; exit 1; }

echo "== lint: airlint over the example configurations =="
"$airlint" examples/*.air

echo "== lint: timing certification over the example configurations =="
# One invocation per file: --timing treats its input files as one member
# set, and the examples are independent systems. constellation_hub.air
# carries the deadlined command flow; flow-free examples certify nothing
# but must still exit clean.
for example in examples/*.air; do
    "$airlint" --timing "$example" > /dev/null \
        || { echo "timing certification failed for $example" >&2; exit 1; }
done
"$airlint" --timing examples/constellation_hub.air

echo "== lint: airlint cluster cross-check over the node pair =="
"$airlint" --cluster examples/cluster_degraded_a.air examples/cluster_degraded_b.air

echo "== lint: airlint mesh cross-check over the five-node example =="
"$airlint" --cluster examples/mesh_n0.air examples/mesh_n1.air \
    examples/mesh_n2.air examples/mesh_n3.air examples/mesh_n4.air

echo "== lint: bounded mode/HM exploration of the examples (depth 3) =="
"$airlint" --explore --depth 3 examples/full_system.air
"$airlint" --explore --depth 3 examples/constellation_hub.air
"$airlint" --explore --depth 3 \
    examples/cluster_degraded_a.air examples/cluster_degraded_b.air

echo "== lint: airlint golden corpus (JSON diff) =="
corpus_out=$(mktemp)
trap 'rm -f "$corpus_out"' EXIT
for case in tests/lint_corpus/*.air; do
    case "$case" in *_pair_a.air|*_pair_b.air|*_mesh_[a-z].air) continue ;; esac
    # A first-line '#!explore depth=N [max_states=M]' marker runs the
    # case through the bounded exploration under those settings, matching
    # the corpus test harness.
    args=(--json)
    marker=$(head -n 1 "$case")
    if [[ "$marker" == '#!explore '* ]]; then
        args+=(--explore)
        for token in ${marker#'#!explore'}; do
            case "$token" in
                depth=*)      args+=(--depth "${token#depth=}") ;;
                max_states=*) args+=(--max-states "${token#max_states=}") ;;
                *) echo "unrecognised #!explore token '$token' in $case" >&2
                   exit 1 ;;
            esac
        done
    fi
    # airlint exits 1 on Error-level findings -- expected for the corpus.
    "$airlint" "${args[@]}" "$case" > "$corpus_out" || true
    diff -u "${case%.air}.expected" "$corpus_out" \
        || { echo "golden drift in $case" >&2; exit 1; }
done
for pair_a in tests/lint_corpus/*_pair_a.air; do
    base="${pair_a%_a.air}"
    "$airlint" --json --cluster "$pair_a" "${base}_b.air" > "$corpus_out" || true
    diff -u "${base}.expected" "$corpus_out" \
        || { echo "golden drift in ${base}" >&2; exit 1; }
done
for mesh_a in tests/lint_corpus/*_mesh_a.air; do
    base="${mesh_a%_a.air}"
    members=()
    for member in "${base}"_[a-z].air; do
        [[ -e "$member" ]] && members+=("$member")
    done
    "$airlint" --json --cluster "${members[@]}" > "$corpus_out" || true
    diff -u "${base}.expected" "$corpus_out" \
        || { echo "golden drift in ${base}" >&2; exit 1; }
done

echo "== smoke fuzz farm (64 generated configs, explore -> replay, 0 divergences) =="
cargo run --release -q -p bench --bin fuzz -- --smoke-fuzz

if [[ "${1:-}" == "--bench" ]]; then
    echo "== full fault-injection campaign matrix =="
    cargo run --release -p bench --bin campaign
    echo "== fuzz soak sweep (256 generated configs, depth 4) =="
    cargo run --release -p bench --bin fuzz
fi

echo "CI OK"
