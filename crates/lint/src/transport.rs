//! Reliable-transport and redundant-link analysis (AIR076–AIR078).
//!
//! The ARQ and failover machinery only upholds its guarantees when its
//! parameters fit the scheduling tables it runs under: a retransmission
//! timer longer than the major time frame stalls the in-order stream for
//! more than a whole frame after a single loss (AIR076), a secondary
//! adapter configured identically to the primary shares its common-mode
//! failures and the failover buys nothing (AIR077), and a channel that
//! crosses the link without the `arq` directive rides the raw datagram
//! substrate, where a dropped frame is simply gone (AIR078). A `link`
//! directive naming an undeclared degraded schedule leaves failover with
//! nowhere to go (AIR079).

use air_ports::Destination;
use air_tools::config::SpanKey;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

pub(crate) fn analyze(model: &SystemModel, report: &mut LintReport) {
    if let Some(arq) = &model.arq {
        let line = model.spans.get(&SpanKey::Arq);
        if arq.window == 0 {
            report.push(
                Diagnostic::new(
                    Code::ArqExceedsMtf,
                    "arq window of zero frames can never put a frame in flight",
                )
                .with_line(line),
            );
        }
        for s in &model.schedules {
            if arq.timeout_ticks > s.mtf().as_u64() {
                report.push(
                    Diagnostic::new(
                        Code::ArqExceedsMtf,
                        format!(
                            "arq head timeout ({} ticks) exceeds the major time \
                             frame of {} ({} ticks); a single loss stalls the \
                             in-order stream for more than a whole frame",
                            arq.timeout_ticks,
                            s.id(),
                            s.mtf().as_u64()
                        ),
                    )
                    .with_line(line),
                );
            }
        }
    }

    if let Some(link) = &model.link {
        if let Some(degraded) = link.degraded {
            if !model.schedules.iter().any(|s| s.id() == degraded) {
                report.push(
                    Diagnostic::new(
                        Code::UnknownDegradedSchedule,
                        format!(
                            "link names degraded schedule {degraded}, which is \
                             not declared; failover would have no schedule to \
                             switch to"
                        ),
                    )
                    .with_line(model.spans.get(&SpanKey::Link)),
                );
            }
        }
        if link.secondary_latency == Some(link.primary_latency) {
            report.push(
                Diagnostic::new(
                    Code::IdenticalRedundantLinks,
                    format!(
                        "both link adapters are configured with latency {}; \
                         identically-built adapters share common-mode faults \
                         and the redundancy gains little",
                        link.primary_latency
                    ),
                )
                .with_line(model.spans.get(&SpanKey::Link)),
            );
        }
    }

    if model.arq.is_none() {
        for channel in &model.channels {
            let remote = channel
                .destinations
                .iter()
                .any(|d| matches!(d, Destination::Remote { .. }));
            if remote {
                report.push(
                    Diagnostic::new(
                        Code::UnsequencedRemoteSender,
                        format!(
                            "channel {} sends frames to the remote node without \
                             an 'arq' directive; a loss on the link would go \
                             unrepaired and sequence gaps untracked",
                            channel.id
                        ),
                    )
                    .with_line(model.spans.get(&SpanKey::Channel(channel.id))),
                );
            }
        }
    }
}
