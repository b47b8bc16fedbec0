//! Port and channel analysis (AIR030–AIR041): every channel endpoint
//! must exist with the right direction, kind and capacity, mirroring the
//! registry's integration-time rules — but *before* anything is built.

use std::collections::{BTreeMap, BTreeSet};

use air_model::PartitionId;
use air_ports::sampling::Direction;
use air_ports::{ChannelConfig, Destination, PortAddr};
use air_tools::config::SpanKey;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortKind {
    Sampling,
    Queuing,
}

#[derive(Debug, Clone, Copy)]
struct PortInfo {
    kind: PortKind,
    direction: Direction,
    size: usize,
    line: Option<usize>,
}

/// A port by its partition and name, borrowed from the model.
type PortKey<'m> = (PartitionId, &'m str);

pub(crate) fn analyze(model: &SystemModel, report: &mut LintReport) {
    let mut ports: BTreeMap<PortKey<'_>, PortInfo> = BTreeMap::new();
    let mut declare = |pid: PartitionId, name, info: PortInfo, report: &mut LintReport| {
        if ports.insert((pid, name), info).is_some() {
            report.push(
                Diagnostic::new(
                    Code::DuplicatePortName,
                    format!("{pid} declares two ports named '{name}'"),
                )
                .with_line(info.line),
            );
        }
    };

    for (pid, cfg) in &model.sampling_ports {
        let line = model.spans.get(&SpanKey::Port(*pid, &cfg.name));
        declare(
            *pid,
            &cfg.name,
            PortInfo {
                kind: PortKind::Sampling,
                direction: cfg.direction,
                size: cfg.max_message_size,
                line,
            },
            report,
        );
        if !model.knows_partition(*pid) {
            report.push(
                Diagnostic::new(
                    Code::UnknownPartitionReference,
                    format!("sampling port '{}' belongs to undeclared {pid}", cfg.name),
                )
                .with_line(line),
            );
        }
    }
    for (pid, cfg) in &model.queuing_ports {
        let line = model.spans.get(&SpanKey::Port(*pid, &cfg.name));
        declare(
            *pid,
            &cfg.name,
            PortInfo {
                kind: PortKind::Queuing,
                direction: cfg.direction,
                size: cfg.max_message_size,
                line,
            },
            report,
        );
        if !model.knows_partition(*pid) {
            report.push(
                Diagnostic::new(
                    Code::UnknownPartitionReference,
                    format!("queuing port '{}' belongs to undeclared {pid}", cfg.name),
                )
                .with_line(line),
            );
        }
        if cfg.max_nb_messages == 0 {
            report.push(
                Diagnostic::new(
                    Code::ZeroQueueDepth,
                    format!(
                        "queuing port '{}' of {pid} holds zero messages; every \
                         send would fail",
                        cfg.name
                    ),
                )
                .with_line(line),
            );
        }
    }

    let mut connected: BTreeSet<PortKey<'_>> = BTreeSet::new();
    let mut channel_ids: BTreeSet<u32> = BTreeSet::new();
    for channel in &model.channels {
        check_channel(
            model,
            &ports,
            channel,
            &mut channel_ids,
            &mut connected,
            report,
        );
    }

    // Dangling ports, in declaration order.
    let sampling_names = model
        .sampling_ports
        .iter()
        .map(|(pid, cfg)| (*pid, cfg.name.as_str()));
    let queuing_names = model
        .queuing_ports
        .iter()
        .map(|(pid, cfg)| (*pid, cfg.name.as_str()));
    for (pid, name) in sampling_names.chain(queuing_names) {
        if !connected.contains(&(pid, name)) {
            report.push(
                Diagnostic::new(
                    Code::DanglingPort,
                    format!("port '{name}' of {pid} is not connected to any channel"),
                )
                .with_line(model.spans.get(&SpanKey::Port(pid, name))),
            );
        }
    }
}

fn check_channel<'m>(
    model: &SystemModel,
    ports: &BTreeMap<PortKey<'m>, PortInfo>,
    channel: &'m ChannelConfig,
    channel_ids: &mut BTreeSet<u32>,
    connected: &mut BTreeSet<PortKey<'m>>,
    report: &mut LintReport,
) {
    let line = model.spans.get(&SpanKey::Channel(channel.id));
    let lookup = |addr: &PortAddr| ports.get(&(addr.partition, addr.port.as_str())).copied();

    if !channel_ids.insert(channel.id) {
        report.push(
            Diagnostic::new(
                Code::DuplicateChannelEndpoint,
                format!("channel id {} is declared more than once", channel.id),
            )
            .with_line(line),
        );
    }
    if channel.destinations.is_empty() {
        report.push(
            Diagnostic::new(
                Code::EmptyChannel,
                format!("channel {} has no destination", channel.id),
            )
            .with_line(line),
        );
        return;
    }

    let has_local_dest = channel
        .destinations
        .iter()
        .any(|d| matches!(d, Destination::Local(_)));
    let source = lookup(&channel.source);
    let source_kind = match source {
        Some(info) => {
            connected.insert((channel.source.partition, &channel.source.port));
            if info.direction != Direction::Source {
                report.push(
                    Diagnostic::new(
                        Code::DirectionMismatch,
                        format!(
                            "channel {} reads from port {} which is not a \
                             source-direction port",
                            channel.id, channel.source
                        ),
                    )
                    .with_line(line),
                );
            }
            Some(info)
        }
        // A channel whose source lives on another node is an inbound
        // gateway — legitimate in multi-node integrations, a typo in a
        // single-node configuration document.
        None if model.gateways_allowed && has_local_dest => None,
        None => {
            report.push(
                Diagnostic::new(
                    Code::UnknownSourcePort,
                    format!(
                        "channel {} reads from nonexistent port {}",
                        channel.id, channel.source
                    ),
                )
                .with_line(line),
            );
            None
        }
    };

    if source_kind.map(|s| s.kind) == Some(PortKind::Queuing) && channel.destinations.len() > 1 {
        report.push(
            Diagnostic::new(
                Code::QueuingFanOut,
                format!(
                    "queuing channel {} has {} destinations; queuing channels \
                     are point-to-point",
                    channel.id,
                    channel.destinations.len()
                ),
            )
            .with_line(line),
        );
    }

    let mut seen_dests: BTreeSet<PortKey<'_>> = BTreeSet::new();
    for dest in &channel.destinations {
        let addr = match dest {
            Destination::Local(addr) => addr,
            Destination::Remote { .. } => continue, // resolved on the peer node
        };
        if !seen_dests.insert((addr.partition, &addr.port)) {
            report.push(
                Diagnostic::new(
                    Code::DuplicateChannelEndpoint,
                    format!("channel {} lists destination {addr} twice", channel.id),
                )
                .with_line(line),
            );
            continue;
        }
        let Some(info) = lookup(addr) else {
            report.push(
                Diagnostic::new(
                    Code::UnknownDestinationPort,
                    format!("channel {} delivers to nonexistent port {addr}", channel.id),
                )
                .with_line(line),
            );
            continue;
        };
        connected.insert((addr.partition, &addr.port));
        if info.direction != Direction::Destination {
            report.push(
                Diagnostic::new(
                    Code::DirectionMismatch,
                    format!(
                        "channel {} delivers to port {addr} which is not a \
                         destination-direction port",
                        channel.id
                    ),
                )
                .with_line(line),
            );
        }
        if let Some(src) = source_kind {
            if info.kind != src.kind {
                report.push(
                    Diagnostic::new(
                        Code::KindMismatch,
                        format!(
                            "channel {}: destination {addr} kind differs from the \
                             source's",
                            channel.id
                        ),
                    )
                    .with_line(line),
                );
            }
            if info.size < src.size {
                report.push(
                    Diagnostic::new(
                        Code::MessageSizeMismatch,
                        format!(
                            "channel {}: destination {addr} accepts {} bytes but \
                             the source emits up to {}",
                            channel.id, info.size, src.size
                        ),
                    )
                    .with_line(line),
                );
            }
            if addr.partition == channel.source.partition {
                report.push(
                    Diagnostic::new(
                        Code::ChannelSelfLoop,
                        format!(
                            "channel {} loops inside partition {}; use intrapartition \
                             buffers or blackboards instead",
                            channel.id, addr.partition
                        ),
                    )
                    .with_line(line),
                );
            }
        }
    }
}
