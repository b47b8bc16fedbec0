//! # air-fleet — streaming fleet execution of emulated AIR systems
//!
//! Every crate below this one reasons about *one* emulated AIR system at
//! a time. This crate turns the repo into a traffic-serving engine: a
//! *fleet* of thousands of independent emulated systems — each a full
//! machine + PMK + partitions stack under its own seeded fault plan — is
//! streamed through `std::thread` workers. Each worker claims the next
//! machine from a shared cursor, builds it, runs it to its horizon,
//! digests its trace and drops it, so a fleet holds at most one machine
//! per worker.
//!
//! The load-bearing property is **strict per-machine determinism**: a
//! machine's rendered trace log is a pure function of its fault plan.
//! Machines own all of their state (no globals anywhere in the stack —
//! see [`air_hw::machine::MachineConfig::compact`]), so neither the
//! worker count nor the order in which workers claim machines can leak
//! into a trace. `tests/fleet_determinism_prop.rs` holds this property
//! over 50 seeds × {1, 4, 16} workers against the sequential baseline.
//!
//! ## Quickstart
//!
//! ```
//! use air_core::campaign::{standard_plan, CampaignSim};
//! use air_fleet::{run_fleet, FleetConfig, ScenarioFleet};
//!
//! // 16 campaign machines, 4 workers, 3 MTFs each.
//! let fleet = ScenarioFleet::<CampaignSim, _>::new(42, |seed, _| standard_plan(seed, 1))
//!     .with_horizon_cap(180);
//! let outcome = run_fleet(&fleet, &FleetConfig::new(16, 4));
//! assert_eq!(outcome.outcomes.len(), 16);
//! println!("fleet digest {:#x}", outcome.fleet_digest());
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod workloads;

pub use executor::{
    run_fleet, run_sequential, Capture, FleetConfig, FleetOutcome, FleetWorkload, MachineOutcome,
};
pub use workloads::{machine_seed, ScenarioFleet};

/// FNV-1a over `bytes`: the fleet's trace-digest function. Stable across
/// platforms and runs — digests are comparable between a CI log and a
/// local reproduction.
pub fn trace_digest(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_digest_matches_fnv1a_vectors() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(trace_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(trace_digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(trace_digest(b"foobar"), 0x85944171f73967e8);
    }
}
