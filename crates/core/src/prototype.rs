//! The paper's Sect. 6 prototype, assembled and runnable.
//!
//! Four partitions execute "mockup applications representative of typical
//! functions present in a satellite system" over the Fig. 8 scheduling
//! tables, "configured with two PSTs, between which it is possible to
//! alternate through the mode-based schedules service". A faulty process
//! can be injected on P1 "so that a deadline miss occurs even though both
//! PSTs comply with P1's timing requirements".
//!
//! Workload layout (periods are multiples of the partition cycles, as the
//! paper requires):
//!
//! | Partition | Process | T | D | C | Role |
//! |---|---|---|---|---|---|
//! | P1 AOCS | `aocs-control` | 1300 | 1300 | 100 | attitude control; publishes the `att` sampling message |
//! | P1 AOCS | `aocs-faulty` | 1300 | 650 | 20 | the injectable faulty process |
//! | P2 OBDH | `obdh-telemetry` | 650 | 650 | 1 | queues telemetry frames to TTC |
//! | P2 OBDH | `obdh-housekeeping` | 1300 | 1300 | 30 | background computation |
//! | P3 TTC | `ttc-downlink` | 650 | 650 | 1 | drains the telemetry queue |
//! | P4 PAYLOAD-FDIR | `fdir` | 650 | 650 | 10 | fault-detection sweep |
//! | P4 PAYLOAD-FDIR | `payload-proc` | 1300 | 1300 | 1 | consumes AOCS attitude data |
//!
//! The faulty process has `D = 650 < η₁ = 1300` and P1 holds a single
//! window per MTF, so when the fault is active its deadline always expires
//! **while P1 is inactive**: the violation is "detected and reported every
//! time (except the first) that P1 is scheduled and dispatched to execute"
//! — at P1's dispatch, by the PAL's Algorithm 3 check over the elapsed
//! interval.

use air_apex::ErrorHandlerTable;
use air_hm::{ErrorId, ProcessRecoveryAction};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::prototype::{fig8_partitions, fig8_system, CHI_1, CHI_2, P1, P2, P3, P4};
use air_model::Ticks;
use air_ports::{ChannelConfig, Destination, PortAddr, QueuingPortConfig, SamplingPortConfig};

use crate::builder::{PartitionConfig, ProcessConfig, SystemBuilder};
use crate::system::{AirSystem, KeyAction};
use crate::workload::{
    FaultSwitch, FaultyPeriodic, PeriodicCompute, QueuingConsumer, QueuingProducer,
    SamplingConsumer, SamplingProducer,
};

/// The assembled prototype plus its control handles.
#[derive(Debug)]
pub struct PrototypeHarness {
    /// The running system.
    pub system: AirSystem,
    /// The faulty-process switch (the prototype's keyboard `f` command).
    pub fault: FaultSwitch,
}

impl PrototypeHarness {
    /// Builds the Sect. 6 system (no VITRAL screen).
    pub fn build() -> Self {
        Self::build_inner(false)
    }

    /// Builds the Sect. 6 system with the VITRAL screen enabled.
    pub fn build_with_vitral() -> Self {
        Self::build_inner(true)
    }

    fn build_inner(vitral: bool) -> Self {
        let fault = FaultSwitch::new();
        let model = fig8_system();
        let parts = fig8_partitions();

        let p1 = PartitionConfig::new(parts[0].clone())
            .with_sampling_port(SamplingPortConfig::source("att-out", 64))
            .with_error_handler(ErrorHandlerTable::new().with_action(
                ErrorId::DeadlineMissed,
                ProcessRecoveryAction::RestartProcess,
            ))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("aocs-control")
                    .with_recurrence(Recurrence::Periodic(Ticks(1300)))
                    .with_deadline(Deadline::relative(Ticks(1300)))
                    .with_base_priority(Priority(1))
                    .with_wcet(Ticks(100)),
                SamplingProducer::new("att-out", 100),
            ))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("aocs-faulty")
                    .with_recurrence(Recurrence::Periodic(Ticks(1300)))
                    .with_deadline(Deadline::relative(Ticks(650)))
                    .with_base_priority(Priority(5))
                    .with_wcet(Ticks(20)),
                FaultyPeriodic::new(20, fault.clone()),
            ));

        let p2 = PartitionConfig::new(parts[1].clone())
            .with_queuing_port(QueuingPortConfig::source("tm-tx", 64, 8))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("obdh-telemetry")
                    .with_recurrence(Recurrence::Periodic(Ticks(650)))
                    .with_deadline(Deadline::relative(Ticks(650)))
                    .with_base_priority(Priority(2))
                    .with_wcet(Ticks(1)),
                QueuingProducer::new("tm-tx"),
            ))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("obdh-housekeeping")
                    .with_recurrence(Recurrence::Periodic(Ticks(1300)))
                    .with_deadline(Deadline::relative(Ticks(1300)))
                    .with_base_priority(Priority(8))
                    .with_wcet(Ticks(30)),
                PeriodicCompute::new(30),
            ));

        let p3 = PartitionConfig::new(parts[2].clone())
            .with_queuing_port(QueuingPortConfig::destination("tm-rx", 64, 8))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("ttc-downlink")
                    .with_recurrence(Recurrence::Periodic(Ticks(650)))
                    .with_deadline(Deadline::relative(Ticks(650)))
                    .with_base_priority(Priority(2))
                    .with_wcet(Ticks(1)),
                QueuingConsumer::new("tm-rx"),
            ));

        let p4 = PartitionConfig::new(parts[3].clone())
            .with_sampling_port(SamplingPortConfig::destination("att-in", 64, Ticks(1300)))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("fdir")
                    .with_recurrence(Recurrence::Periodic(Ticks(650)))
                    .with_deadline(Deadline::relative(Ticks(650)))
                    .with_base_priority(Priority(1))
                    .with_wcet(Ticks(10)),
                PeriodicCompute::new(10),
            ))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("payload-proc")
                    .with_recurrence(Recurrence::Periodic(Ticks(1300)))
                    .with_deadline(Deadline::relative(Ticks(1300)))
                    .with_base_priority(Priority(3))
                    .with_wcet(Ticks(1)),
                SamplingConsumer::new("att-in"),
            ));

        let mut builder = SystemBuilder::new(model.schedules)
            .with_partition(p1)
            .with_partition(p2)
            .with_partition(p3)
            .with_partition(p4)
            .with_channel(ChannelConfig {
                id: 1,
                source: PortAddr::new(P1, "att-out"),
                destinations: vec![Destination::Local(PortAddr::new(P4, "att-in"))],
            })
            .with_channel(ChannelConfig {
                id: 2,
                source: PortAddr::new(P2, "tm-tx"),
                destinations: vec![Destination::Local(PortAddr::new(P3, "tm-rx"))],
            });
        if vitral {
            builder = builder.with_vitral();
        }
        let mut system = builder
            .build()
            .expect("the Fig. 8 prototype configuration is valid");

        // The prototype's keyboard interaction (Sect. 6): switch to a
        // given PST at the end of the present MTF, activate the fault.
        system.bind_key('1', KeyAction::SwitchSchedule(CHI_1));
        system.bind_key('2', KeyAction::SwitchSchedule(CHI_2));
        system.bind_key('f', KeyAction::ToggleFault(fault.clone()));

        Self { system, fault }
    }
}

/// Convenience: the partition ids of the prototype, re-exported.
pub mod ids {
    pub use air_model::prototype::{CHI_1, CHI_2, P1, P2, P3, P4};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use air_model::ids::GlobalProcessId;

    #[test]
    fn healthy_run_has_no_misses_and_full_schedule_conformance() {
        let mut proto = PrototypeHarness::build();
        let chi1 = air_model::prototype::fig8_chi1();
        for _ in 0..3 * 1300u64 {
            proto.system.step();
            // Conformance against the model oracle: the active partition
            // is exactly the one χ1 names for this instant.
            let t = proto.system.now();
            let phase = Ticks(t.as_u64() % 1300);
            assert_eq!(
                proto.system.active_partition(),
                chi1.partition_active_at(phase),
                "divergence at {t}"
            );
        }
        assert_eq!(proto.system.trace().deadline_miss_count(), 0);
    }

    #[test]
    fn fault_injection_detects_once_per_p1_dispatch_except_first() {
        let mut proto = PrototypeHarness::build();
        // Run two clean MTFs, then inject the fault.
        proto.system.run_for(2 * 1300);
        proto.fault.activate();
        // Run six more MTFs.
        proto.system.run_for(6 * 1300);
        let misses: Vec<&TraceEvent> = proto.system.trace().deadline_misses();
        // Fault active from t=2600. The activation released at 2600 runs
        // over; its deadline 3250 passes while P1 is inactive; the miss is
        // detected at P1's next dispatch (3900), then once per dispatch:
        // exactly the paper's "every time (except the first) that P1 is
        // scheduled and dispatched".
        let times: Vec<u64> = misses.iter().map(|e| e.at().as_u64()).collect();
        assert_eq!(times, vec![3900, 5200, 6500, 7800, 9100, 10400]);
        for e in &misses {
            let TraceEvent::DeadlineMiss { process, .. } = e else {
                panic!("filtered")
            };
            assert_eq!(
                *process,
                GlobalProcessId::new(
                    P1,
                    proto
                        .system
                        .partition(P1)
                        .process_id("aocs-faulty")
                        .unwrap()
                )
            );
        }
        // Detection happens exactly at P1 dispatch instants (MTF starts).
        assert!(times.iter().all(|t| t % 1300 == 0));
    }

    #[test]
    fn telemetry_flows_p2_to_p3() {
        let mut proto = PrototypeHarness::build();
        proto.system.run_for(3 * 1300);
        let console = proto.system.console_of(P3);
        assert!(console.contains("rx frame-0"), "{console}");
        assert!(console.contains("rx frame-1"), "{console}");
    }

    #[test]
    fn attitude_flows_p1_to_p4() {
        let mut proto = PrototypeHarness::build();
        proto.system.run_for(3 * 1300);
        let console = proto.system.console_of(P4);
        assert!(console.contains("read seq=0"), "{console}");
        assert!(console.contains("Valid"), "{console}");
    }

    #[test]
    fn keyboard_schedule_switch_honoured_at_mtf_end() {
        let mut proto = PrototypeHarness::build();
        proto.system.run_for(100);
        proto.system.push_key('2');
        proto.system.run_for(1); // the key is consumed on the next tick
        assert_eq!(proto.system.schedule_status().next, CHI_2);
        assert_eq!(proto.system.schedule_status().current, CHI_1);
        proto.system.run_until(Ticks(1300));
        assert_eq!(proto.system.schedule_status().current, CHI_2);
        assert_eq!(proto.system.schedule_status().last_switch, Ticks(1300));
        // χ2: P4 is active in [200, 300).
        proto.system.run_until(Ticks(1550));
        assert_eq!(proto.system.active_partition(), Some(P4));
    }

    #[test]
    fn schedule_switches_cause_no_extra_misses() {
        // Sect. 6: "successive requests to change schedule are correctly
        // handled at the end of the current MTF and do not introduce
        // deadline violations other than the one injected".
        let mut proto = PrototypeHarness::build();
        for k in 0..6u64 {
            // Alternate χ1/χ2 with requests at assorted offsets.
            let target = if k % 2 == 0 { CHI_2 } else { CHI_1 };
            proto.system.run_for(137 + 97 * k);
            proto.system.request_schedule(target).unwrap();
            let boundary = proto.system.now().round_up_to(Ticks(1300));
            proto.system.run_until(boundary);
        }
        proto.system.run_for(1300);
        assert_eq!(proto.system.trace().deadline_miss_count(), 0);
        assert!(proto.system.trace().schedule_switch_count() >= 5);
    }
}
