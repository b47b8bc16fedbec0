#!/usr/bin/env bash
# Forbid panicking constructs in the kernel-grade crates.
#
# The PMK and the hardware model are the layers the paper trusts to
# contain everyone else's faults; a panic there takes the whole module
# down with no health-monitor mediation. This gate scans their non-test
# sources for `unwrap()`, `expect(`, `panic!`, `unreachable!`,
# `unimplemented!` and `todo!` and fails on any hit that is not
# explicitly allowlisted with a trailing `// lint: allow(panic)` comment
# (reserved for cases proven unreachable or equivalent to a hardware
# halt).
#
# The lint crate is held to the same bar: `SystemBuilder::build()` runs
# it on every construction, so a panic in an analysis pass would turn a
# diagnosable configuration error into a crash. That includes the timing
# certification stage (`crates/lint/src/timing.rs`) — a panic while
# composing a worst-case bound would crash the very gate that certifies
# deadlines. The model crate's exploration engine (transition system +
# parallel search) sits on that same path via `airlint --explore`, so it
# is scanned too. The mesh router
# (`crates/ports/src/routing.rs`) picks every hop a mesh packet takes, so
# that file joins the list. The tools crate (`crates/tools/src`) is scanned
# because the lint gate calls it: the configuration parser turns every
# text into the model, and the schedulability analysis runs on every
# lint.
# The partition OS (`crates/pos/src`) and the ARQ transport
# (`crates/ports/src/transport.rs`) are scanned because the PMK calls both
# on every tick: the POS announcement and heir selection, and the ARQ
# retransmission poll at each partition boundary. Every frame a mesh node
# receives is decoded by the wire format (`crates/ports/src/wire.rs`),
# the space-packet layer (`spacepacket.rs`) and the PUS services
# (`pus.rs`), so a panic there would let one corrupt frame crash a node:
# those three files are scanned too. The rest of the ports crate joins
# them, so the whole of `crates/ports/src` is scanned: `PortRegistry`
# (`channel.rs`) routes every channel and delivers every incoming frame
# on each tick, through the sampling and queuing ports.
# The PAL (`crates/pal/src`) runs the deadline check of every partition
# dispatch on the sorted deadline list, the health monitor
# (`crates/hm/src`) classifies every error the other layers report, and
# the APEX (`crates/apex/src`) is the service layer every process calls
# into: a panic in any of them would crash the module on the path that is
# meant to contain a fault, so all three are scanned.
# `AirSystem` (`crates/core/src/system.rs`) is scanned because AIR's clock
# interrupt handler runs `AirSystem::step` on every tick: a panic there
# is a panic in the ISR itself. The same holds for what that step calls
# inside the crate: the trace recorder (`crates/core/src/trace.rs`:
# `Trace::record` and `record_occupancy` run in the ISR, and its log
# encoder renders every fleet machine), the process bodies
# (`crates/core/src/workload.rs`, run inside `run_active_process`) and the
# digit writer both of them spell numbers with (`crates/core/src/text.rs`).
# The mesh simulator (`crates/core/src/mesh.rs`) is scanned because every
# mesh tick forwards every packet through it, on the router's next hops:
# a panic there stops every node of the mesh at once. Its one hit, the
# fabric built from a built-in topology, is allowlisted: the topology's
# edge list is in range, normalised and duplicate-free by construction.
#
#   scripts/forbid.sh            # scan the default directories below
#   scripts/forbid.sh <dirs...>  # scan specific directories
set -euo pipefail
cd "$(dirname "$0")/.."

dirs=("$@")
if [[ ${#dirs[@]} -eq 0 ]]; then
    dirs=(crates/pmk/src crates/hw/src crates/lint/src crates/model/src/explore crates/ports/src crates/pos/src crates/tools/src crates/pal/src crates/hm/src crates/apex/src crates/core/src/system.rs crates/core/src/trace.rs crates/core/src/workload.rs crates/core/src/text.rs crates/core/src/mesh.rs)
fi

fail=0
for dir in "${dirs[@]}"; do
    while IFS= read -r file; do
        hits=$(awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ { intest = 1 }
            intest { next }  # nothing after the test module marker counts
            /^[[:space:]]*\/\// { next }               # comment lines
            /lint: allow\(panic\)/ { next }            # explicit allowlist
            /\.unwrap\(\)|\.expect\(|panic!|unreachable!|unimplemented!|todo!/ {
                printf "%s:%d: %s\n", FILENAME, FNR, $0
            }
        ' "$file")
        if [[ -n "$hits" ]]; then
            echo "$hits"
            fail=1
        fi
    done < <(find "$dir" -name '*.rs' | sort)
done

if [[ $fail -ne 0 ]]; then
    echo "forbid.sh: panicking constructs found in kernel-grade code." >&2
    echo "Remove them or annotate the line with '// lint: allow(panic)' and a justification." >&2
    exit 1
fi
echo "forbid.sh: clean"
