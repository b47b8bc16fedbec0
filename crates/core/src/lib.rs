//! # air-core — AIR system composition and simulation
//!
//! This crate assembles every layer of the AIR architecture (Fig. 1) into a
//! runnable system and drives it tick by tick, exactly as the clock ISR of
//! the paper's prototype would:
//!
//! 1. the machine advances one tick and raises the clock interrupt
//!    ([`air_hw::Machine::advance_tick`]);
//! 2. the **AIR Partition Scheduler** (Algorithm 1) checks for a partition
//!    preemption point and, with mode-based schedules, makes pending
//!    switches effective at MTF boundaries;
//! 3. on a preemption point, the **AIR Partition Dispatcher** (Algorithm 2)
//!    saves/restores contexts, computes the heir's elapsed ticks, and
//!    applies pending schedule-change actions at first dispatch;
//! 4. the heir partition's **PAL surrogate tick announcement**
//!    (Algorithm 3) announces the elapsed ticks to its POS and verifies
//!    process deadlines, reporting violations to **health monitoring**;
//! 5. inside the partition's window, the POS process scheduler picks the
//!    heir process (Eq. 14) and its application body executes, invoking
//!    **APEX** services;
//! 6. at partition boundaries the PMK routes **interpartition messages**
//!    (local copies and link frames).
//!
//! The [`builder::SystemBuilder`] is the integrator: it validates the
//! scheduling tables against the formal model (Eq. 21–23), loads spatial
//! configurations, wires ports and channels, and boots every partition
//! through its ARINC 653 initialisation (coldStart → create processes,
//! ports, error handler → normal).
//!
//! [`prototype`] reconstructs the paper's Sect. 6 demonstration system —
//! four satellite-function partitions over the Fig. 8 scheduling tables,
//! with the injectable faulty process on P1.
//!
//! ## Quickstart
//!
//! ```
//! use air_core::prototype::PrototypeHarness;
//!
//! let mut proto = PrototypeHarness::build();
//! proto.system.run_for(2 * 1300); // two major time frames
//! assert_eq!(proto.system.trace().deadline_misses().len(), 0);
//! proto.fault.activate();
//! proto.system.run_for(4 * 1300);
//! assert!(!proto.system.trace().deadline_misses().is_empty());
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod campaign;
pub mod cluster;
pub mod fuzz;
pub mod link_campaign;
pub mod mesh;
pub mod prototype;
pub mod replay;
pub mod scenario;
pub mod system;
mod text;
pub mod trace;
pub mod workload;

pub use builder::{PartitionConfig, ProcessConfig, SystemBuilder, DEFAULT_EXPLORATION_DEPTH};
pub use campaign::{
    default_horizon, standard_plan, CampaignOutcome, CampaignRunner, CampaignSim, EscalationTally,
    FaultRecord,
};
pub use cluster::{AirCluster, ClusterError, LinkHealth, Node};
pub use link_campaign::{link_plan, LinkCampaignOutcome, LinkCampaignRunner, LinkSim};
pub use replay::{observe_abstract_state, replay_witness, ReplayReport};
pub use scenario::Scenario;
pub use system::{AirSystem, KeyAction};
pub use trace::{RecoveryDisposition, Trace, TraceEvent};
pub use workload::{FaultSwitch, ProcessApi, ProcessBody};
