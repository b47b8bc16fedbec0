//! PUS-flavoured packet services: command verification and event
//! reporting.
//!
//! Two ECSS-E-70-41 service shapes, reduced to what the mesh campaigns
//! exercise:
//!
//! * **service 1 — request verification.** An executor node runs every
//!   accepted telecommand through a three-stage state machine —
//!   acceptance, start of execution, completion of execution — and emits
//!   one telemetry report per stage transition (subservice 1, 3 and 7,
//!   the "success" reports). The commander matches reports back to its
//!   outstanding requests by `(apid, seq)`.
//! * **service 5 — event reporting.** A node publishes an
//!   asynchronous event (an HM report, a transport exhaustion, a
//!   recovery) as a telemetry packet with a severity-graded subservice,
//!   addressed to the ground node.
//!
//! Both services are deterministic: stage timing is tick-derived, queues
//! are ordered maps, and sequence counters advance only on emission.

use std::collections::BTreeMap;

use crate::spacepacket::{PacketKind, SpacePacket, SpacePacketError};

/// PUS service 1: request verification.
pub const SERVICE_VERIFICATION: u8 = 1;
/// PUS service 5: event reporting.
pub const SERVICE_EVENT: u8 = 5;

/// Service 1 subservice: acceptance success.
pub const SUB_ACCEPTANCE: u8 = 1;
/// Service 1 subservice: start-of-execution success.
pub const SUB_START: u8 = 3;
/// Service 1 subservice: completion-of-execution success.
pub const SUB_COMPLETION: u8 = 7;

/// The three verification stages a telecommand passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AckStage {
    /// The command was received, parsed, and queued for execution.
    Acceptance,
    /// Execution began.
    Start,
    /// Execution finished.
    Completion,
}

impl AckStage {
    /// The service 1 subservice number of the stage's success report.
    pub fn subservice(self) -> u8 {
        match self {
            AckStage::Acceptance => SUB_ACCEPTANCE,
            AckStage::Start => SUB_START,
            AckStage::Completion => SUB_COMPLETION,
        }
    }

    /// The stage a service 1 subservice reports, if recognised.
    pub fn from_subservice(sub: u8) -> Option<Self> {
        match sub {
            SUB_ACCEPTANCE => Some(AckStage::Acceptance),
            SUB_START => Some(AckStage::Start),
            SUB_COMPLETION => Some(AckStage::Completion),
            _ => None,
        }
    }
}

impl std::fmt::Display for AckStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AckStage::Acceptance => write!(f, "acceptance"),
            AckStage::Start => write!(f, "start"),
            AckStage::Completion => write!(f, "completion"),
        }
    }
}

/// One verification state transition the executor must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationTransition {
    /// APID of the verified telecommand.
    pub apid: u16,
    /// Source sequence count of the verified telecommand.
    pub seq: u16,
    /// The stage just reached.
    pub stage: AckStage,
}

/// The per-command execution record the verifier tracks.
#[derive(Debug, Clone, Copy)]
struct RunningCommand {
    start_at: u64,
    complete_at: u64,
    started: bool,
}

/// The executor-side command-verification state machine.
///
/// [`CommandVerifier::accept`] admits a telecommand and yields its
/// acceptance transition immediately; [`CommandVerifier::tick`] then
/// yields the start transition on the next tick and the completion
/// transition `exec_ticks` later. Commands are keyed `(apid, seq)`; a
/// duplicate key while the original is still executing is rejected
/// (the transport below already deduplicates, so this is a backstop).
#[derive(Debug)]
pub struct CommandVerifier {
    exec_ticks: u64,
    running: BTreeMap<(u16, u16), RunningCommand>,
    accepted: u64,
    completed: u64,
}

impl CommandVerifier {
    /// A verifier whose commands execute in `exec_ticks` ticks (minimum
    /// 1) between start and completion.
    pub fn new(exec_ticks: u64) -> Self {
        Self {
            exec_ticks: exec_ticks.max(1),
            running: BTreeMap::new(),
            accepted: 0,
            completed: 0,
        }
    }

    /// Admits telecommand `(apid, seq)` at `now`. Returns the acceptance
    /// transition, or `None` for a duplicate still in flight.
    pub fn accept(&mut self, apid: u16, seq: u16, now: u64) -> Option<VerificationTransition> {
        if self.running.contains_key(&(apid, seq)) {
            return None;
        }
        self.running.insert(
            (apid, seq),
            RunningCommand {
                start_at: now + 1,
                complete_at: now + 1 + self.exec_ticks,
                started: false,
            },
        );
        self.accepted += 1;
        Some(VerificationTransition {
            apid,
            seq,
            stage: AckStage::Acceptance,
        })
    }

    /// Advances the state machine to `now`, returning every stage
    /// transition that became due, in `(apid, seq)` order with starts
    /// before completions.
    pub fn tick(&mut self, now: u64) -> Vec<VerificationTransition> {
        let mut out = Vec::new();
        for (&(apid, seq), cmd) in &mut self.running {
            if !cmd.started && cmd.start_at <= now {
                cmd.started = true;
                out.push(VerificationTransition {
                    apid,
                    seq,
                    stage: AckStage::Start,
                });
            }
        }
        let done: Vec<(u16, u16)> = self
            .running
            .iter()
            .filter(|(_, cmd)| cmd.started && cmd.complete_at <= now)
            .map(|(&key, _)| key)
            .collect();
        for key in done {
            self.running.remove(&key);
            self.completed += 1;
            out.push(VerificationTransition {
                apid: key.0,
                seq: key.1,
                stage: AckStage::Completion,
            });
        }
        out
    }

    /// The earliest tick at which [`CommandVerifier::tick`] has a stage
    /// transition to report: the first pending start or completion
    /// (`None`: nothing running).
    pub fn next_due(&self) -> Option<u64> {
        self.running
            .values()
            .map(|cmd| {
                if cmd.started {
                    cmd.complete_at
                } else {
                    cmd.start_at
                }
            })
            .min()
    }

    /// Commands currently between acceptance and completion.
    pub fn in_flight(&self) -> usize {
        self.running.len()
    }

    /// Total commands ever accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total commands ever completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// Builds the service 1 telemetry report for `transition`, addressed
/// from executor node `src` back to commander node `dst`. The report
/// reuses the verified command's APID (the request identifier travels in
/// the header) and carries the stage subservice; `seq` is the command's
/// sequence count so the commander can correlate without a payload
/// parse.
pub fn verification_report(
    transition: VerificationTransition,
    src: u16,
    dst: u16,
    ttl: u8,
) -> Result<SpacePacket, SpacePacketError> {
    SpacePacket::new(
        transition.apid,
        PacketKind::Tm,
        transition.seq,
        src,
        dst,
        ttl,
        SERVICE_VERIFICATION,
        transition.stage.subservice(),
        Vec::new(),
    )
}

/// Event severity, graded as the four service 5 report subservices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventSeverity {
    /// Informative report (subservice 1).
    Info,
    /// Low-severity anomaly (subservice 2).
    Low,
    /// Medium-severity anomaly (subservice 3).
    Medium,
    /// High-severity anomaly (subservice 4).
    High,
}

impl EventSeverity {
    /// The service 5 subservice number.
    pub fn subservice(self) -> u8 {
        match self {
            EventSeverity::Info => 1,
            EventSeverity::Low => 2,
            EventSeverity::Medium => 3,
            EventSeverity::High => 4,
        }
    }
}

/// A node's event-report publisher: owns the APID's telemetry sequence
/// counter and stamps each report toward the configured ground node.
#[derive(Debug)]
pub struct EventReporter {
    apid: u16,
    next_seq: u16,
    published: u64,
}

impl EventReporter {
    /// A reporter publishing on `apid`.
    pub fn new(apid: u16) -> Self {
        Self {
            apid,
            next_seq: 0,
            published: 0,
        }
    }

    /// The reporter's APID.
    pub fn apid(&self) -> u16 {
        self.apid
    }

    /// Builds the next event report from node `src` to ground node
    /// `dst`, advancing the sequence counter on success.
    pub fn report(
        &mut self,
        src: u16,
        dst: u16,
        ttl: u8,
        severity: EventSeverity,
        payload: Vec<u8>,
    ) -> Result<SpacePacket, SpacePacketError> {
        let packet = SpacePacket::new(
            self.apid,
            PacketKind::Tm,
            self.next_seq,
            src,
            dst,
            ttl,
            SERVICE_EVENT,
            severity.subservice(),
            payload,
        )?;
        self.next_seq = SpacePacket::next_seq(self.next_seq);
        self.published += 1;
        Ok(packet)
    }

    /// Total reports ever built.
    pub fn published(&self) -> u64 {
        self.published
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifier_walks_accept_start_complete() {
        let mut v = CommandVerifier::new(3);
        assert_eq!(v.next_due(), None);
        let acc = v.accept(100, 0, 10).expect("fresh command");
        assert_eq!(acc.stage, AckStage::Acceptance);
        assert_eq!(v.in_flight(), 1);
        assert_eq!(v.next_due(), Some(11));
        assert!(v.tick(10).is_empty(), "start is due next tick");
        let t11 = v.tick(11);
        assert_eq!(t11.len(), 1);
        assert_eq!(t11[0].stage, AckStage::Start);
        assert_eq!(v.next_due(), Some(14));
        assert!(v.tick(13).is_empty(), "still executing");
        let t14 = v.tick(14);
        assert_eq!(t14.len(), 1);
        assert_eq!(t14[0].stage, AckStage::Completion);
        assert_eq!(v.in_flight(), 0);
        assert_eq!(v.next_due(), None);
        assert_eq!(v.accepted(), 1);
        assert_eq!(v.completed(), 1);
    }

    #[test]
    fn verifier_rejects_inflight_duplicates_and_orders_batches() {
        let mut v = CommandVerifier::new(2);
        assert!(v.accept(100, 0, 0).is_some());
        assert!(v.accept(100, 0, 0).is_none(), "duplicate in flight");
        assert!(v.accept(100, 1, 0).is_some());
        // Jump far ahead: both commands start and complete in one tick;
        // starts come first, then completions, each in (apid, seq) order.
        let stages: Vec<(u16, AckStage)> =
            v.tick(50).into_iter().map(|t| (t.seq, t.stage)).collect();
        assert_eq!(
            stages,
            vec![
                (0, AckStage::Start),
                (1, AckStage::Start),
                (0, AckStage::Completion),
                (1, AckStage::Completion),
            ]
        );
        // The key is free again after completion.
        assert!(v.accept(100, 0, 60).is_some());
    }

    #[test]
    fn verification_report_round_trips_the_stage() {
        let t = VerificationTransition {
            apid: 100,
            seq: 5,
            stage: AckStage::Start,
        };
        let report = verification_report(t, 4, 0, 8).expect("valid");
        assert_eq!(report.kind, PacketKind::Tm);
        assert_eq!(report.service, SERVICE_VERIFICATION);
        assert_eq!(
            AckStage::from_subservice(report.subservice),
            Some(AckStage::Start)
        );
        assert_eq!((report.src, report.dst), (4, 0));
        let decoded = SpacePacket::decode(&report.encode()).expect("round trip");
        assert_eq!(decoded, report);
    }

    #[test]
    fn event_reporter_counts_its_sequence() {
        let mut r = EventReporter::new(200);
        let first = r
            .report(3, 0, 8, EventSeverity::Medium, b"link".to_vec())
            .expect("valid");
        let second = r
            .report(3, 0, 8, EventSeverity::Info, Vec::new())
            .expect("valid");
        assert_eq!(first.seq, 0);
        assert_eq!(second.seq, 1);
        assert_eq!(first.service, SERVICE_EVENT);
        assert_eq!(first.subservice, 3);
        assert_eq!(second.subservice, 1);
        assert_eq!(r.published(), 2);
    }

    #[test]
    fn stage_subservice_mapping_is_total_and_inverse() {
        for stage in [AckStage::Acceptance, AckStage::Start, AckStage::Completion] {
            assert_eq!(AckStage::from_subservice(stage.subservice()), Some(stage));
        }
        assert_eq!(AckStage::from_subservice(9), None);
    }
}
