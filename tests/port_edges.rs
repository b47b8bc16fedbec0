//! Port edge cases must reach health monitoring with the correct error
//! class instead of silently succeeding: a queuing overflow raises
//! `IllegalRequest`, a stale sampling read raises `ApplicationError`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use air_core::workload::ProcessApi;
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_hm::{ErrorId, ErrorSource};
use air_model::process::{Deadline, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};
use air_ports::{ChannelConfig, Destination, PortAddr, QueuingPortConfig, SamplingPortConfig};

const FRAME: u64 = 100;
const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);

fn two_window_schedule() -> ScheduleSet {
    ScheduleSet::new(vec![Schedule::new(
        ScheduleId(0),
        "duo",
        Ticks(FRAME),
        vec![
            PartitionRequirement::new(P0, Ticks(FRAME), Ticks(50)),
            PartitionRequirement::new(P1, Ticks(FRAME), Ticks(50)),
        ],
        vec![
            TimeWindow::new(P0, Ticks(0), Ticks(50)),
            TimeWindow::new(P1, Ticks(50), Ticks(50)),
        ],
    )])
}

fn periodic_attrs(name: &str) -> ProcessAttributes {
    ProcessAttributes::new(name)
        .with_recurrence(Recurrence::Periodic(Ticks(FRAME)))
        .with_deadline(Deadline::relative(Ticks(FRAME)))
}

#[test]
fn queuing_overflow_reports_illegal_request() {
    // The source queue holds 2 messages and drains once per frame; a
    // burst of 5 per activation overflows on sends 3..5. Every rejected
    // send must surface as an IllegalRequest attributed to the sender.
    let burst = 5usize;
    let depth = 2usize;
    let bursts = Arc::new(AtomicU64::new(0));
    let bursts_in_body = bursts.clone();
    let mut system = SystemBuilder::new(two_window_schedule())
        .with_partition(
            PartitionConfig::new(Partition::new(P0, "burster"))
                .with_queuing_port(QueuingPortConfig::source("tx", 64, depth))
                .with_process(ProcessConfig::new(
                    periodic_attrs("burst"),
                    move |api: &mut ProcessApi<'_>| {
                        bursts_in_body.fetch_add(1, Ordering::Relaxed);
                        for i in 0..burst {
                            let accepted =
                                api.send_queuing_reporting("tx", format!("m{i}").into_bytes());
                            assert_eq!(accepted, i < depth, "send {i}");
                        }
                        let _ = api.apex.periodic_wait(api.me, api.now);
                    },
                )),
        )
        .with_partition(
            PartitionConfig::new(Partition::new(P1, "sink"))
                .with_queuing_port(QueuingPortConfig::destination("rx", 64, 64)),
        )
        .with_channel(ChannelConfig {
            id: 1,
            source: PortAddr::new(P0, "tx"),
            destinations: vec![Destination::Local(PortAddr::new(P1, "rx"))],
        })
        .build()
        .unwrap();

    system.run_for(4 * FRAME);

    let activations = bursts.load(Ordering::Relaxed);
    assert!(
        activations >= 4,
        "the burster ran ({activations} activations)"
    );
    let overflows: Vec<_> = system
        .hm()
        .log()
        .entries_for(ErrorId::IllegalRequest)
        .collect();
    assert_eq!(
        overflows.len() as u64,
        (burst - depth) as u64 * activations,
        "every rejected send reports, every accepted one stays silent"
    );
    for entry in overflows {
        assert!(entry.detail.contains("queuing overflow on 'tx'"), "{entry}");
        assert_eq!(
            entry.source.partition(),
            Some(P0),
            "attributed to the sender"
        );
        assert!(matches!(entry.source, ErrorSource::Process(_)));
    }
    // The correct class, not a generic application error.
    assert_eq!(
        system
            .hm()
            .log()
            .entries_for(ErrorId::ApplicationError)
            .count(),
        0
    );
}

#[test]
fn stale_sampling_read_reports_application_error() {
    // The writer publishes exactly once; with a 120-tick refresh period the
    // reader's first read (age ~50) is fresh and every later one (ages
    // 150, 250, ...) is stale.
    let mut wrote = false;
    let reads = Arc::new(AtomicU64::new(0));
    let reads_in_body = reads.clone();
    let mut system = SystemBuilder::new(two_window_schedule())
        .with_partition(
            PartitionConfig::new(Partition::new(P0, "writer"))
                .with_sampling_port(SamplingPortConfig::source("cmd-tx", 64))
                .with_process(ProcessConfig::new(
                    periodic_attrs("announce"),
                    move |api: &mut ProcessApi<'_>| {
                        if !wrote {
                            wrote = true;
                            api.apex
                                .write_sampling_message(
                                    api.ports,
                                    "cmd-tx",
                                    b"attitude".to_vec(),
                                    api.now,
                                )
                                .unwrap();
                        }
                        let _ = api.apex.periodic_wait(api.me, api.now);
                    },
                )),
        )
        .with_partition(
            PartitionConfig::new(Partition::new(P1, "reader"))
                .with_sampling_port(SamplingPortConfig::destination("cmd-rx", 64, Ticks(120)))
                .with_process(ProcessConfig::new(
                    periodic_attrs("consume"),
                    move |api: &mut ProcessApi<'_>| {
                        if api.read_sampling_reporting("cmd-rx").is_some() {
                            reads_in_body.fetch_add(1, Ordering::Relaxed);
                        }
                        let _ = api.apex.periodic_wait(api.me, api.now);
                    },
                )),
        )
        .with_channel(ChannelConfig {
            id: 1,
            source: PortAddr::new(P0, "cmd-tx"),
            destinations: vec![Destination::Local(PortAddr::new(P1, "cmd-rx"))],
        })
        .build()
        .unwrap();

    // Frame 1: fresh read, no error.
    system.run_for(FRAME);
    assert_eq!(
        system.hm().log().len(),
        0,
        "a fresh read must not raise anything"
    );

    // Later frames: the message ages past the refresh period. Exactly one
    // read (the first) was fresh; every other successful read is stale.
    system.run_for(4 * FRAME);
    let successful_reads = reads.load(Ordering::Relaxed);
    assert!(successful_reads >= 2, "the reader kept reading");
    let stale: Vec<_> = system
        .hm()
        .log()
        .entries_for(ErrorId::ApplicationError)
        .collect();
    assert_eq!(
        stale.len() as u64,
        successful_reads - 1,
        "one stale report per read past the refresh period"
    );
    for entry in stale {
        assert!(
            entry.detail.contains("stale sampling message on 'cmd-rx'"),
            "{entry}"
        );
        assert_eq!(
            entry.source.partition(),
            Some(P1),
            "attributed to the reader"
        );
    }
    assert_eq!(
        system
            .hm()
            .log()
            .entries_for(ErrorId::IllegalRequest)
            .count(),
        0
    );
}
