//! Cluster-level analysis (AIR080): the two node descriptions of a
//! dual-node integration must agree on every channel that crosses the
//! link. Frames carry their channel id on the wire, and the receiving
//! node routes them through its own channel with the same id (an inbound
//! *gateway* channel, recognisable by a source port that no local
//! partition declares). A remote destination with no gateway counterpart
//! on the peer — or a gateway no peer channel ever feeds — is an
//! integration mismatch no single-node lint can see.

use std::collections::BTreeSet;

use air_ports::{Destination, PortAddr};
use air_tools::config::SpanKey;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

pub(crate) fn analyze_pair(a: &SystemModel, b: &SystemModel, report: &mut LintReport) {
    check_remote_channels(a, "node A", b, "node B", report);
    check_remote_channels(b, "node B", a, "node A", report);
    // A pair may declare end-to-end flows too (a two-node mesh without
    // `node` identities lints them as unroutable, which is the point).
    crate::timing::analyze(&[a.clone(), b.clone()], report);
}

/// Channel ids `model` sends over the link (≥ 1 remote destination).
pub(crate) fn outbound_ids(model: &SystemModel) -> BTreeSet<u32> {
    model
        .channels
        .iter()
        .filter(|c| {
            c.destinations
                .iter()
                .any(|d| matches!(d, Destination::Remote { .. }))
        })
        .map(|c| c.id)
        .collect()
}

/// Channel ids `model` expects to arrive over the link: channels whose
/// source port no local partition declares (inbound gateways).
pub(crate) fn inbound_gateway_ids(model: &SystemModel) -> BTreeSet<u32> {
    let local_ports: BTreeSet<(u32, &str)> = model
        .sampling_ports
        .iter()
        .map(|(pid, cfg)| (pid.as_u32(), cfg.name.as_str()))
        .chain(
            model
                .queuing_ports
                .iter()
                .map(|(pid, cfg)| (pid.as_u32(), cfg.name.as_str())),
        )
        .collect();
    let is_local =
        |addr: &PortAddr| local_ports.contains(&(addr.partition.as_u32(), addr.port.as_str()));
    model
        .channels
        .iter()
        .filter(|c| !is_local(&c.source))
        .map(|c| c.id)
        .collect()
}

/// One direction of the link: everything `sender` puts on the wire must
/// land in a gateway of `receiver`, and every gateway of `receiver` must
/// be fed by `sender`.
fn check_remote_channels(
    sender: &SystemModel,
    sender_name: &str,
    receiver: &SystemModel,
    receiver_name: &str,
    report: &mut LintReport,
) {
    let outbound = outbound_ids(sender);
    let gateways = inbound_gateway_ids(receiver);
    for id in &outbound {
        if !gateways.contains(id) {
            report.push(
                Diagnostic::new(
                    Code::UnmatchedRemoteChannel,
                    format!(
                        "{sender_name} sends channel {id} to the remote node but \
                         {receiver_name} declares no gateway channel with that id; \
                         its frames would be dropped on arrival"
                    ),
                )
                .with_line(sender.spans.get(&SpanKey::Channel(*id))),
            );
        }
    }
    for id in &gateways {
        if !outbound.contains(id) {
            report.push(
                Diagnostic::new(
                    Code::UnmatchedRemoteChannel,
                    format!(
                        "{receiver_name} channel {id} expects frames from the peer \
                         but {sender_name} never sends on that id; the gateway's \
                         destinations would starve"
                    ),
                )
                .with_line(receiver.spans.get(&SpanKey::Channel(*id))),
            );
        }
    }
}
