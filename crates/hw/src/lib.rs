//! # air-hw — emulated machine substrate for the AIR reproduction
//!
//! The original AIR prototype ran on an Intel IA-32 target under QEMU, with
//! the SPARC V8 LEON3 as the flight target (Sect. 6 and Sect. 2.1 of the
//! paper). This crate is the hosted substitute for that hardware: a small,
//! fully deterministic machine model providing exactly the facilities the
//! AIR Partition Management Kernel consumes —
//!
//! * a **system clock** producing the periodic tick interrupt the AIR
//!   Partition Scheduler runs on ([`clock`]);
//! * an **interrupt controller** with maskable lines, plus the
//!   paravirtualisation trap of Sect. 2.5: guests cannot really disable the
//!   clock interrupt, attempts are wrapped and reported ([`interrupt`]);
//! * **CPU contexts** with save/restore, cycle accounting and an MMU
//!   context register, for the Partition Dispatcher's context switch
//!   ([`cpu`]);
//! * **physical memory**, paged on demand like an emulator's guest RAM,
//!   and a LEON3-style **three-level page-table MMU**
//!   with per-context translation and access-permission faults, the
//!   mechanism the spatial-partitioning descriptors of Fig. 3 are mapped
//!   onto; every translation walks the tables, with no TLB in front
//!   ([`memory`], [`mmu`]);
//! * a **text console** device — the output target of the VITRAL window
//!   manager ([`console`]);
//! * an **inter-node link** carrying interpartition messages between
//!   physically separated platforms ([`link`]), duplicated into a
//!   **redundant pair** with deterministic failover and revertive
//!   switching ([`redundant`]);
//! * seeded **fault injection** — deterministic plans of hardware-level
//!   faults (spurious traps, link loss/corruption, clock interference)
//!   delivered through the same device surfaces the PMK already watches
//!   ([`inject`]).
//!
//! Everything is synchronous and driven by [`machine::Machine::advance_tick`];
//! determinism is what makes the paper's timing experiments (deadline
//! violation detection latency, schedule-switch latency) exactly
//! reproducible in CI.

#![warn(missing_docs)]

pub mod clock;
pub mod console;
pub mod cpu;
pub mod inject;
pub mod interrupt;
pub mod link;
pub mod machine;
pub mod memory;
pub mod mesh;
pub mod mmu;
pub mod redundant;

pub use clock::SystemClock;
pub use console::Console;
pub use cpu::{Cpu, CpuContext};
pub use inject::{FaultClass, FaultEvent, FaultPlan};
pub use interrupt::{InterruptController, InterruptLine};
pub use link::{InterNodeLink, LinkEndpoint};
pub use machine::Machine;
pub use memory::PhysicalMemory;
pub use mesh::{MeshFabric, MeshTopologyError};
pub use mmu::{AccessKind, AccessPermissions, Mmu, MmuContextId, MmuFault, PageFlags};
pub use redundant::{LinkRole, RedundantLink};
