//! # air-model — formal system model of the AIR TSP architecture
//!
//! This crate is the Rust rendition of the formal system model defined in
//! Sect. 3–5 of *"Architecting Robustness and Timeliness in a New Generation
//! of Aerospace Systems"* (Rufino, Craveiro, Veríssimo). It captures, as
//! plain data types and pure functions:
//!
//! * **partitions** `P_m = ⟨τ_m, M_m(t)⟩` and their operating modes
//!   (Eq. 1–3, 16) — [`partition`];
//! * **processes** `τ_{m,q} = ⟨T, D, p, C, S(t)⟩`, their status and states
//!   (Eq. 10–13) — [`process`];
//! * the intra-partition **heir selection** rule of the preemptive
//!   priority-driven scheduler (Eq. 14–15) — [`ready`];
//! * **partition scheduling tables** `χ_i = ⟨MTF_i, Q_i, ω_i⟩` with their
//!   time windows and per-schedule partition requirements
//!   (Eq. 4–5 and the mode-based generalisation Eq. 17–20) — [`schedule`];
//! * the **verification conditions** an integrator-defined configuration
//!   must satisfy: window ordering/containment (Eq. 6/21), the MTF/lcm
//!   relation (Eq. 7/22) and the per-cycle duration requirement
//!   (Eq. 8–9/23) — [`verify`];
//! * the **deadline-violation set** `V(t)` (Eq. 24) — [`violation`];
//! * the **multicore** extension of future-work item (iv): per-core
//!   tables with a cross-core exclusivity condition — [`multicore`].
//!
//! The model is deliberately independent from any execution machinery: the
//! `air-pmk`, `air-pos` and `air-pal` crates *implement* the behaviour this
//! crate *specifies*, and the integration test-suite checks the
//! implementation against the model (e.g. the partition scheduler is checked
//! tick-by-tick against [`schedule::Schedule::partition_active_at`]).
//!
//! ## Quickstart
//!
//! Build the prototype scheduling tables of the paper's Sect. 6 (Fig. 8) and
//! verify them:
//!
//! ```
//! use air_model::prototype;
//! use air_model::verify::verify_schedule_set;
//!
//! let system = prototype::fig8_system();
//! let report = verify_schedule_set(&system.schedules, &system.partitions);
//! assert!(report.is_ok(), "{report:?}");
//! ```
//!
//! Time is expressed in abstract clock **ticks** ([`time::Ticks`]); the
//! paper's prototype uses an MTF of 1300 time units, which maps 1:1.

#![warn(missing_docs)]

pub mod explore;
pub mod ids;
pub mod multicore;
pub mod partition;
pub mod process;
pub mod prototype;
pub mod ready;
pub mod schedule;
pub mod testkit;
pub mod time;
pub mod verify;
pub mod violation;

mod error;

pub use error::ModelError;
pub use ids::{PartitionId, PortId, ProcessId, ScheduleId};
pub use partition::{OperatingMode, Partition, StartCondition};
pub use process::{Deadline, ProcessAttributes, ProcessState, ProcessStatus, Recurrence};
pub use schedule::{PartitionRequirement, Schedule, ScheduleChangeAction, ScheduleSet, TimeWindow};
pub use time::Ticks;
