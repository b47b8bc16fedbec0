//! # air-pal — AIR POS Adaptation Layer
//!
//! "The AIR PAL plays an important role in the AIR architecture, in the
//! sense it wraps each partition's operating system, hiding its
//! particularities from the AIR architecture components" (Sect. 2.2). Its
//! starring role in this paper is **process deadline violation monitoring**
//! (Sect. 5):
//!
//! * the PAL keeps, per partition, the process-deadline information
//!   "ordered by deadline", with O(1) retrieval of the earliest, in the
//!   paper's sorted **linked list** ([`deadline::LinkedListRegistry`]).
//!   The [`deadline::DeadlineRegistry`] trait also has the
//!   **self-balancing tree** the paper argues against for ISR-side work
//!   ([`deadline::BTreeRegistry`]); both are subjects of the B2 ablation
//!   bench;
//! * APEX primitives register/update/unregister deadlines through the
//!   private interfaces the PAL provides ([`Pal::register_deadline`],
//!   [`Pal::unregister_deadline`]) — Sect. 5.2 and Fig. 6;
//! * the **surrogate clock tick announcement** routine (Fig. 7,
//!   Algorithm 3) announces the elapsed ticks to the POS and then verifies
//!   the earliest deadline(s), reporting violations to health monitoring
//!   ([`Pal::announce_clock_ticks`]).

#![warn(missing_docs)]

pub mod announce;
pub mod deadline;
pub mod pal;

pub use announce::check_deadlines;
pub use deadline::{BTreeRegistry, DeadlineRegistry, LinkedListRegistry};
pub use pal::{Pal, PalStats};
