//! # air-fleet — sharded fleet execution of emulated AIR systems
//!
//! Every crate below this one reasons about *one* emulated AIR system at
//! a time. This crate turns the repo into a traffic-serving engine: a
//! *fleet* of thousands of independent emulated systems — each a full
//! machine + PMK + partitions stack under its own seeded fault plan — is
//! split into contiguous shards and advanced concurrently on
//! `std::thread` workers with batched tick delivery (each worker runs a
//! machine `batch_ticks` ticks between synchronization barriers).
//!
//! The load-bearing property is **strict per-machine determinism**: a
//! machine's rendered trace log is a pure function of its fault plan.
//! Machines own all of their state (no globals anywhere in the stack —
//! see [`air_hw::machine::MachineConfig::compact`]), so neither the
//! worker count, nor the shard assignment, nor the batch size can leak
//! into a trace. `tests/fleet_determinism_prop.rs` holds this property
//! over 50 seeds × {1, 4, 16} workers against the sequential baseline.
//!
//! ## Quickstart
//!
//! ```
//! use air_fleet::{run_fleet, FleetConfig};
//! use air_fleet::workloads::CampaignFleet;
//!
//! // 16 campaign machines, 4 workers, 3 MTFs each.
//! let fleet = CampaignFleet::new(42, 1).with_horizon(180);
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
pub use workloads::{machine_seed, CampaignFleet, LinkFleet};

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
