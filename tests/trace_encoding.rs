//! The trace-log encoder's specification: one literal line per event
//! shape, covering all 27 `TraceEvent` variants and every value of each
//! unit enum a variant carries, with the extremes — `u64::MAX` ticks and
//! sequence numbers, a seven-digit sequence number past the six-digit pad,
//! `None` and `Some` ids, `warm` true and false, every
//! `RecoveryDisposition`.
//!
//! The lines are the bytes the log has carried since its digests were
//! pinned; they were written out by the derived-`Debug` renderer the
//! encoder replaced, so a change here moves every pinned trace digest.

use std::collections::HashSet;
use std::mem::discriminant;

use air_core::trace::{
    encode_event, encode_line, PacketDropReason, RecoveryDisposition, Trace, TraceEvent as E,
};
use air_hm::ErrorId;
use air_hw::inject::FaultClass;
use air_hw::redundant::LinkRole;
use air_model::ids::{GlobalProcessId, ProcessId};
use air_model::{PartitionId, ScheduleChangeAction, ScheduleId, Ticks};
use air_ports::pus::AckStage;

/// The expected line of each event of [`events`], in order.
const GOLDEN: &[&str] = &[
    "000000 t=0 PartitionSwitch { at: Ticks(0), from: None, to: Some(PartitionId(0)) }",
    "1000000 t=18446744073709551615 PartitionSwitch { at: Ticks(18446744073709551615), from: Some(PartitionId(4294967295)), to: None }",
    "999999 t=60 ScheduleSwitch { at: Ticks(60), to: ScheduleId(1) }",
    "000003 t=125 DeadlineMiss { at: Ticks(125), process: GlobalProcessId { partition: PartitionId(0), process: ProcessId(1) }, deadline: Ticks(120) }",
    "000004 t=130 PartitionRestart { at: Ticks(130), partition: PartitionId(0), warm: true }",
    "000005 t=131 PartitionRestart { at: Ticks(131), partition: PartitionId(2), warm: false }",
    "000006 t=132 PartitionStop { at: Ticks(132), partition: PartitionId(1) }",
    "000007 t=140 FrameRetransmitted { at: Ticks(140), seq: 18446744073709551615, retries: 4294967295 }",
    "000008 t=150 DegradedModeEntered { at: Ticks(150), schedule: ScheduleId(1) }",
    "000009 t=151 DegradedModeExited { at: Ticks(151), schedule: ScheduleId(0) }",
    "000010 t=160 PacketForwarded { at: Ticks(160), apid: 2046, dst: 65535, via: 3, ttl: 255 }",
    "000011 t=170 CommandAccepted { at: Ticks(170), apid: 100, seq: 0 }",
    "000012 t=171 CommandStarted { at: Ticks(171), apid: 100, seq: 65535 }",
    "000013 t=172 CommandCompleted { at: Ticks(172), apid: 0, seq: 7 }",
    "000014 t=180 TelemetryPublished { at: Ticks(180), apid: 200, seq: 1 }",
    "000015 t=181 TelemetryReceived { at: Ticks(181), apid: 200, seq: 1, src: 4 }",
    "000016 t=190 MeshEdgeDown { at: Ticks(190), a: 0, b: 1 }",
    "000017 t=191 MeshEdgeUp { at: Ticks(191), a: 1, b: 65535 }",
    "000018 t=200 PacketRerouted { at: Ticks(200), apid: 100, dst: 4, via: 2 }",
    "000019 t=201 PacketParked { at: Ticks(201), apid: 100, dst: 4 }",
    "000020 t=210 NodeFailover { at: Ticks(210), failed: 4, spare: 5 }",
    "000021 t=211 NodeFailback { at: Ticks(211), restored: 4 }",
    "000022 t=61 ScheduleChangeActionApplied { at: Ticks(61), partition: PartitionId(0), action: None }",
    "000022 t=61 ScheduleChangeActionApplied { at: Ticks(61), partition: PartitionId(1), action: WarmRestart }",
    "000022 t=61 ScheduleChangeActionApplied { at: Ticks(61), partition: PartitionId(2), action: ColdRestart }",
    "000022 t=61 ScheduleChangeActionApplied { at: Ticks(61), partition: PartitionId(3), action: Stop }",
    "000023 t=300 HmReport { at: Ticks(300), error: DeadlineMissed, partition: None }",
    "000023 t=300 HmReport { at: Ticks(300), error: ApplicationError, partition: Some(PartitionId(1)) }",
    "000023 t=300 HmReport { at: Ticks(300), error: NumericError, partition: None }",
    "000023 t=300 HmReport { at: Ticks(300), error: IllegalRequest, partition: Some(PartitionId(3)) }",
    "000023 t=300 HmReport { at: Ticks(300), error: StackOverflow, partition: None }",
    "000023 t=300 HmReport { at: Ticks(300), error: MemoryViolation, partition: Some(PartitionId(5)) }",
    "000023 t=300 HmReport { at: Ticks(300), error: HardwareFault, partition: None }",
    "000023 t=300 HmReport { at: Ticks(300), error: PowerFail, partition: Some(PartitionId(7)) }",
    "000023 t=300 HmReport { at: Ticks(300), error: ConfigError, partition: None }",
    "000023 t=300 HmReport { at: Ticks(300), error: LinkDegraded, partition: Some(PartitionId(9)) }",
    "000024 t=400 FaultInjected { at: Ticks(400), class: MmuTamper, partition: Some(PartitionId(0)) }",
    "000024 t=400 FaultInjected { at: Ticks(400), class: SpuriousTrap, partition: None }",
    "000024 t=400 FaultInjected { at: Ticks(400), class: LinkDrop, partition: Some(PartitionId(2)) }",
    "000024 t=400 FaultInjected { at: Ticks(400), class: LinkBitFlip, partition: None }",
    "000024 t=400 FaultInjected { at: Ticks(400), class: ClockInterference, partition: Some(PartitionId(4)) }",
    "000024 t=400 FaultInjected { at: Ticks(400), class: ProcessOverrun, partition: None }",
    "000024 t=400 FaultInjected { at: Ticks(400), class: LinkOutage, partition: Some(PartitionId(6)) }",
    "000024 t=400 FaultInjected { at: Ticks(400), class: AckLoss, partition: None }",
    "000025 t=500 RecoveryApplied { at: Ticks(500), error: DeadlineMissed, partition: Some(PartitionId(1)), disposition: HandlerContained }",
    "000025 t=500 RecoveryApplied { at: Ticks(500), error: DeadlineMissed, partition: Some(PartitionId(1)), disposition: Logged }",
    "000025 t=500 RecoveryApplied { at: Ticks(500), error: DeadlineMissed, partition: Some(PartitionId(1)), disposition: PartitionWarmRestart }",
    "000025 t=500 RecoveryApplied { at: Ticks(500), error: DeadlineMissed, partition: Some(PartitionId(1)), disposition: PartitionColdRestart }",
    "000025 t=500 RecoveryApplied { at: Ticks(500), error: DeadlineMissed, partition: Some(PartitionId(1)), disposition: PartitionStopped }",
    "000025 t=500 RecoveryApplied { at: Ticks(500), error: DeadlineMissed, partition: None, disposition: ModuleReset }",
    "000025 t=500 RecoveryApplied { at: Ticks(500), error: DeadlineMissed, partition: None, disposition: ModuleShutdown }",
    "000026 t=600 LinkFailover { at: Ticks(600), to: Primary }",
    "000026 t=600 LinkFailover { at: Ticks(600), to: Secondary }",
    "000027 t=700 PacketDropped { at: Ticks(700), apid: 100, dst: 9, reason: TtlExpired }",
    "000027 t=700 PacketDropped { at: Ticks(700), apid: 100, dst: 9, reason: NoRoute }",
    "000028 t=800 CommandAckReceived { at: Ticks(800), apid: 100, seq: 3, stage: Acceptance }",
    "000028 t=800 CommandAckReceived { at: Ticks(800), apid: 100, seq: 3, stage: Start }",
    "000028 t=800 CommandAckReceived { at: Ticks(800), apid: 100, seq: 3, stage: Completion }",
];

fn events() -> Vec<(u64, E)> {
    let p = |m| Some(PartitionId(m));
    let mut v = vec![
        (
            0,
            E::PartitionSwitch {
                at: Ticks(0),
                from: None,
                to: p(0),
            },
        ),
        (
            1_000_000,
            E::PartitionSwitch {
                at: Ticks(u64::MAX),
                from: p(u32::MAX),
                to: None,
            },
        ),
        (
            999_999,
            E::ScheduleSwitch {
                at: Ticks(60),
                to: ScheduleId(1),
            },
        ),
        (
            3,
            E::DeadlineMiss {
                at: Ticks(125),
                process: GlobalProcessId::new(PartitionId(0), ProcessId(1)),
                deadline: Ticks(120),
            },
        ),
        (
            4,
            E::PartitionRestart {
                at: Ticks(130),
                partition: PartitionId(0),
                warm: true,
            },
        ),
        (
            5,
            E::PartitionRestart {
                at: Ticks(131),
                partition: PartitionId(2),
                warm: false,
            },
        ),
        (
            6,
            E::PartitionStop {
                at: Ticks(132),
                partition: PartitionId(1),
            },
        ),
        (
            7,
            E::FrameRetransmitted {
                at: Ticks(140),
                seq: u64::MAX,
                retries: u32::MAX,
            },
        ),
        (
            8,
            E::DegradedModeEntered {
                at: Ticks(150),
                schedule: ScheduleId(1),
            },
        ),
        (
            9,
            E::DegradedModeExited {
                at: Ticks(151),
                schedule: ScheduleId(0),
            },
        ),
        (
            10,
            E::PacketForwarded {
                at: Ticks(160),
                apid: 2046,
                dst: u16::MAX,
                via: 3,
                ttl: u8::MAX,
            },
        ),
        (
            11,
            E::CommandAccepted {
                at: Ticks(170),
                apid: 100,
                seq: 0,
            },
        ),
        (
            12,
            E::CommandStarted {
                at: Ticks(171),
                apid: 100,
                seq: u16::MAX,
            },
        ),
        (
            13,
            E::CommandCompleted {
                at: Ticks(172),
                apid: 0,
                seq: 7,
            },
        ),
        (
            14,
            E::TelemetryPublished {
                at: Ticks(180),
                apid: 200,
                seq: 1,
            },
        ),
        (
            15,
            E::TelemetryReceived {
                at: Ticks(181),
                apid: 200,
                seq: 1,
                src: 4,
            },
        ),
        (
            16,
            E::MeshEdgeDown {
                at: Ticks(190),
                a: 0,
                b: 1,
            },
        ),
        (
            17,
            E::MeshEdgeUp {
                at: Ticks(191),
                a: 1,
                b: u16::MAX,
            },
        ),
        (
            18,
            E::PacketRerouted {
                at: Ticks(200),
                apid: 100,
                dst: 4,
                via: 2,
            },
        ),
        (
            19,
            E::PacketParked {
                at: Ticks(201),
                apid: 100,
                dst: 4,
            },
        ),
        (
            20,
            E::NodeFailover {
                at: Ticks(210),
                failed: 4,
                spare: 5,
            },
        ),
        (
            21,
            E::NodeFailback {
                at: Ticks(211),
                restored: 4,
            },
        ),
    ];
    let actions = [
        ScheduleChangeAction::None,
        ScheduleChangeAction::WarmRestart,
        ScheduleChangeAction::ColdRestart,
        ScheduleChangeAction::Stop,
    ];
    for (i, action) in actions.into_iter().enumerate() {
        v.push((
            22,
            E::ScheduleChangeActionApplied {
                at: Ticks(61),
                partition: PartitionId(i as u32),
                action,
            },
        ));
    }
    for (i, error) in ErrorId::ALL.into_iter().enumerate() {
        let partition = (i % 2 == 1).then_some(PartitionId(i as u32));
        v.push((
            23,
            E::HmReport {
                at: Ticks(300),
                error,
                partition,
            },
        ));
    }
    let classes = [
        FaultClass::MmuTamper,
        FaultClass::SpuriousTrap,
        FaultClass::LinkDrop,
        FaultClass::LinkBitFlip,
        FaultClass::ClockInterference,
        FaultClass::ProcessOverrun,
        FaultClass::LinkOutage,
        FaultClass::AckLoss,
    ];
    for (i, class) in classes.into_iter().enumerate() {
        let partition = (i % 2 == 0).then_some(PartitionId(i as u32));
        v.push((
            24,
            E::FaultInjected {
                at: Ticks(400),
                class,
                partition,
            },
        ));
    }
    let dispositions = [
        RecoveryDisposition::HandlerContained,
        RecoveryDisposition::Logged,
        RecoveryDisposition::PartitionWarmRestart,
        RecoveryDisposition::PartitionColdRestart,
        RecoveryDisposition::PartitionStopped,
        RecoveryDisposition::ModuleReset,
        RecoveryDisposition::ModuleShutdown,
    ];
    for (i, disposition) in dispositions.into_iter().enumerate() {
        let partition = (i < 5).then_some(PartitionId(1));
        v.push((
            25,
            E::RecoveryApplied {
                at: Ticks(500),
                error: ErrorId::DeadlineMissed,
                partition,
                disposition,
            },
        ));
    }
    for to in [LinkRole::Primary, LinkRole::Secondary] {
        v.push((26, E::LinkFailover { at: Ticks(600), to }));
    }
    for reason in [PacketDropReason::TtlExpired, PacketDropReason::NoRoute] {
        v.push((
            27,
            E::PacketDropped {
                at: Ticks(700),
                apid: 100,
                dst: 9,
                reason,
            },
        ));
    }
    for stage in [AckStage::Acceptance, AckStage::Start, AckStage::Completion] {
        v.push((
            28,
            E::CommandAckReceived {
                at: Ticks(800),
                apid: 100,
                seq: 3,
                stage,
            },
        ));
    }
    v
}

#[test]
fn every_event_encodes_to_its_golden_line() {
    let events = events();
    assert_eq!(events.len(), GOLDEN.len());
    for ((seq, event), golden) in events.iter().zip(GOLDEN) {
        let mut line = String::new();
        encode_line(&mut line, *seq, event);
        assert_eq!(line, format!("{golden}\n"));
        // The body after `seq t=at ` is `encode_event` alone.
        let mut body = String::new();
        encode_event(&mut body, event);
        assert_eq!(golden.splitn(3, ' ').nth(2), Some(body.as_str()));
    }
}

#[test]
fn the_golden_lines_cover_every_variant() {
    let variants: HashSet<_> = events().iter().map(|(_, e)| discriminant(e)).collect();
    assert_eq!(variants.len(), 27);
}

#[test]
fn render_log_numbers_the_encoded_lines_in_recording_order() {
    let mut trace = Trace::new();
    let mut expected = String::new();
    for (seq, (_, event)) in events().into_iter().enumerate() {
        encode_line(&mut expected, seq as u64, &event);
        trace.record(event);
    }
    assert_eq!(trace.render_log(), expected);
    assert!(expected.starts_with("000000 t=0 PartitionSwitch { at: Ticks(0), "));
    assert!(expected.contains("\n000001 t=18446744073709551615 PartitionSwitch {"));
}
