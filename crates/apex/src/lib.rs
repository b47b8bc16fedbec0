//! # air-apex — the AIR APEX interface
//!
//! "The APEX interface provides to the applications a set of services,
//! defined in the ARINC 653 specification. AIR employs an innovative
//! implementation of APEX … the advanced notion of *Portable APEX*
//! intended to ensure portability between the different POSs supported by
//! AIR" (Sect. 2.3). Accordingly, every service here is written against
//! the one [`air_pos::PartitionOs`] process table and the PAL's private
//! deadline interfaces — the same APEX code serves the RTEMS-like RTOS
//! and the generic non-real-time kernel, which differ only in the
//! [`PosKind`](air_model::partition::PosKind) the table is built with.
//!
//! Service groups:
//!
//! * **partition management** — `GET_PARTITION_STATUS`,
//!   `SET_PARTITION_MODE` ([`partition::ApexPartition`]);
//! * **process management** — `CREATE_PROCESS`, `START`, `DELAYED_START`,
//!   `STOP`, `SUSPEND`, `RESUME`, `SET_PRIORITY`, `PERIODIC_WAIT`,
//!   `TIMED_WAIT`, `REPLENISH`, `GET_PROCESS_ID`, `GET_PROCESS_STATUS`,
//!   `LOCK_PREEMPTION`/`UNLOCK_PREEMPTION` — with the Fig. 6 deadline
//!   registration flow into the PAL;
//! * **interpartition communication** — sampling and queuing port
//!   services ([`ports_api`], impl on `ApexPartition`);
//! * **intrapartition communication** — buffers, blackboards, counting
//!   semaphores, events ([`intra`]);
//! * **health monitoring** — `CREATE_ERROR_HANDLER` and the process-level
//!   recovery actions of Sect. 5 ([`partition::ErrorHandlerTable`]);
//! * **module schedules** (ARINC 653 Part 2, Sect. 4.2) —
//!   `SET_MODULE_SCHEDULE`, `GET_MODULE_SCHEDULE_STATUS` ([`schedules`]).

#![warn(missing_docs)]

pub mod intra;
pub mod partition;
pub mod ports_api;
pub mod return_code;
pub mod schedules;

pub use intra::{IntraPartition, Outcome, Timeout};
pub use partition::{ApexPartition, ErrorHandlerTable, PartitionStatus, RecoveryEscalation};
pub use return_code::{ApexError, ApexResult, ReturnCode};
pub use schedules::{get_module_schedule_status, set_module_schedule};
