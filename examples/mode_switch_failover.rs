//! Mode-based schedules as a fault-tolerance mechanism.
//!
//! Sect. 4 motivates mode-based schedules with "the accommodation of
//! component failures (e.g., assigning a critical program running in a
//! failed processor to another one)". This example stages that scenario:
//!
//! * under the **nominal** schedule, the payload partition enjoys a large
//!   window and the spare partition has a token one;
//! * an FDIR process inside the (authorised) supervisor partition watches
//!   a health blackboard-like sampling port; when the payload stops
//!   publishing, FDIR invokes `SET_MODULE_SCHEDULE` to the **degraded**
//!   schedule, which reassigns the payload's window share to the spare;
//! * the switch takes effect exactly at the next MTF boundary, and the
//!   spare partition's `ScheduleChangeAction` (a cold restart) is applied
//!   at its first dispatch under the new schedule.
//!
//! ```text
//! cargo run --example mode_switch_failover
//! ```

use air_core::workload::{FaultSwitch, ProcessApi, ProcessBody};
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, ScheduleChangeAction, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};
use air_ports::{ChannelConfig, Destination, PortAddr, SamplingPortConfig};

const SUPERVISOR: PartitionId = PartitionId(0);
const PAYLOAD: PartitionId = PartitionId(1);
const SPARE: PartitionId = PartitionId(2);
const NOMINAL: ScheduleId = ScheduleId(0);
const DEGRADED: ScheduleId = ScheduleId(1);

/// Publishes a heartbeat unless its fault switch is active.
struct Heartbeat {
    switch: FaultSwitch,
}

impl ProcessBody for Heartbeat {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if !self.switch.is_active() {
            let _ = api.apex.write_sampling_message(
                api.ports,
                "hb-out",
                format!("alive t={}", api.now).into_bytes(),
                api.now,
            );
        }
        let _ = api.apex.periodic_wait(api.me, api.now);
    }
}

/// FDIR: when the heartbeat goes stale, request the degraded schedule.
struct FdirWatch {
    switched: bool,
}

impl ProcessBody for FdirWatch {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if !self.switched {
            match api.apex.read_sampling_message(api.ports, "hb-in", api.now) {
                Ok((_, validity)) if validity.is_valid() => {}
                _ if api.now > Ticks(200) => {
                    api.log(format!(
                        "[{}] heartbeat stale -> degraded schedule",
                        api.now
                    ));
                    api.set_module_schedule(DEGRADED)
                        .expect("supervisor holds schedule authority");
                    self.switched = true;
                }
                _ => {}
            }
        }
        let _ = api.apex.periodic_wait(api.me, api.now);
    }
}

/// The spare workload: counts its activations (visible budget change).
struct SpareWork;

impl ProcessBody for SpareWork {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        let _ = api.apex.periodic_wait(api.me, api.now);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mtf = Ticks(400);
    let nominal = Schedule::new(
        NOMINAL,
        "nominal",
        mtf,
        vec![
            PartitionRequirement::new(SUPERVISOR, Ticks(400), Ticks(80)),
            PartitionRequirement::new(PAYLOAD, Ticks(400), Ticks(240)),
            PartitionRequirement::new(SPARE, Ticks(400), Ticks(40)),
        ],
        vec![
            TimeWindow::new(SUPERVISOR, Ticks(0), Ticks(80)),
            TimeWindow::new(PAYLOAD, Ticks(80), Ticks(240)),
            TimeWindow::new(SPARE, Ticks(320), Ticks(40)),
        ],
    );
    let degraded = Schedule::new(
        DEGRADED,
        "degraded",
        mtf,
        vec![
            PartitionRequirement::new(SUPERVISOR, Ticks(400), Ticks(80)),
            PartitionRequirement::new(PAYLOAD, Ticks(400), Ticks(40)),
            PartitionRequirement::new(SPARE, Ticks(400), Ticks(240)),
        ],
        vec![
            TimeWindow::new(SUPERVISOR, Ticks(0), Ticks(80)),
            TimeWindow::new(PAYLOAD, Ticks(80), Ticks(40)),
            TimeWindow::new(SPARE, Ticks(120), Ticks(240)),
        ],
    )
    // The spare takes over critical work: cold-restart it into its
    // expanded role at its first dispatch under the new schedule.
    .with_change_action(SPARE, ScheduleChangeAction::ColdRestart);

    let payload_fault = FaultSwitch::new();

    let mut system = SystemBuilder::new(ScheduleSet::new(vec![nominal, degraded]))
        .with_partition(
            PartitionConfig::new(
                Partition::new(SUPERVISOR, "SUPERVISOR")
                    .system()
                    .with_schedule_authority(),
            )
            .with_sampling_port(SamplingPortConfig::destination("hb-in", 64, Ticks(150)))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("fdir-watch")
                    .with_recurrence(Recurrence::Periodic(Ticks(400)))
                    .with_deadline(Deadline::relative(Ticks(400)))
                    .with_base_priority(Priority(1)),
                FdirWatch { switched: false },
            )),
        )
        .with_partition(
            PartitionConfig::new(Partition::new(PAYLOAD, "PAYLOAD"))
                .with_sampling_port(SamplingPortConfig::source("hb-out", 64))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("payload-heartbeat")
                        .with_recurrence(Recurrence::Periodic(Ticks(100)))
                        .with_deadline(Deadline::NONE)
                        .with_base_priority(Priority(1)),
                    Heartbeat {
                        switch: payload_fault.clone(),
                    },
                )),
        )
        .with_partition(
            PartitionConfig::new(Partition::new(SPARE, "SPARE")).with_process(ProcessConfig::new(
                ProcessAttributes::new("spare-work")
                    .with_recurrence(Recurrence::Periodic(Ticks(400)))
                    .with_deadline(Deadline::NONE)
                    .with_base_priority(Priority(1)),
                SpareWork,
            )),
        )
        .with_channel(ChannelConfig {
            id: 1,
            source: PortAddr::new(PAYLOAD, "hb-out"),
            destinations: vec![Destination::Local(PortAddr::new(SUPERVISOR, "hb-in"))],
        })
        .build()?;

    println!("nominal operation...");
    system.run_for(3 * 400);
    assert_eq!(system.schedule_status().current, NOMINAL);

    println!("payload fails at t={}", system.now());
    payload_fault.activate();
    system.run_for(4 * 400);

    let status = system.schedule_status();
    println!(
        "schedule: current={} last_switch={}",
        status.current, status.last_switch
    );
    assert_eq!(status.current, DEGRADED, "FDIR must have switched");
    assert_eq!(
        status.last_switch.as_u64() % 400,
        0,
        "switches only at MTF boundaries"
    );

    let restarts: Vec<_> = system
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, air_core::TraceEvent::ScheduleChangeActionApplied { .. }))
        .collect();
    println!("schedule-change actions applied: {restarts:?}");
    assert!(!restarts.is_empty(), "spare's cold restart must be applied");

    println!("supervisor console:\n{}", system.console_of(SUPERVISOR));
    println!("mode_switch_failover OK");
    Ok(())
}
