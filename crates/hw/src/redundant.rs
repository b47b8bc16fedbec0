//! Dual redundant inter-node links with deterministic failover.
//!
//! Aerospace data buses are duplicated: when the active channel degrades
//! past a confidence threshold, traffic fails over to the standby channel,
//! and reverts after a probation period (revertive switching). This module
//! models that policy over two [`InterNodeLink`]s. The loss evidence comes
//! from *above* — the reliable transport reports each retransmission
//! timeout round via [`RedundantLink::record_loss`] and each clean
//! acknowledgement via [`RedundantLink::record_delivery`] — because the
//! physical layer itself cannot distinguish a lost frame from a silent
//! peer. Everything is tick-driven and seeded-input-deterministic.

use crate::link::{InterNodeLink, LinkEndpoint};

/// Which physical link of the redundant pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkRole {
    /// The preferred link (active after reset and after revert).
    Primary,
    /// The standby link (active only while failed over).
    Secondary,
}

impl LinkRole {
    /// The other role of the pair.
    pub fn other(self) -> LinkRole {
        match self {
            LinkRole::Primary => LinkRole::Secondary,
            LinkRole::Secondary => LinkRole::Primary,
        }
    }

    /// A stable snake_case label (used in traces and JSON).
    pub fn label(self) -> &'static str {
        match self {
            LinkRole::Primary => "primary",
            LinkRole::Secondary => "secondary",
        }
    }

    fn index(self) -> usize {
        match self {
            LinkRole::Primary => 0,
            LinkRole::Secondary => 1,
        }
    }
}

impl std::fmt::Display for LinkRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A redundant pair of point-to-point links with one active side.
///
/// Sends go out on the active link; receives drain both (primary first,
/// deterministically), because frames launched before a failover are still
/// in flight on the old link. Failover trips when the consecutive-loss
/// counter reaches the threshold; a threshold of zero disables failover.
///
/// # Examples
///
/// ```
/// use air_hw::redundant::{LinkRole, RedundantLink};
///
/// let mut link = RedundantLink::new(2, 2, 2, 100);
/// assert_eq!(link.active(), LinkRole::Primary);
/// assert_eq!(link.record_loss(10), None);
/// assert_eq!(link.record_loss(11), Some(LinkRole::Secondary));
/// ```
#[derive(Debug, Clone)]
pub struct RedundantLink {
    links: [InterNodeLink; 2],
    active: LinkRole,
    consecutive_losses: u32,
    failover_threshold: u32,
    revert_after_ticks: u64,
    failed_over_at: Option<u64>,
    failovers: u64,
    reverts: u64,
}

impl RedundantLink {
    /// Creates a redundant pair. `failover_threshold = 0` disables
    /// failover (single-link behaviour on the primary).
    pub fn new(
        primary_latency: u64,
        secondary_latency: u64,
        failover_threshold: u32,
        revert_after_ticks: u64,
    ) -> Self {
        Self {
            links: [
                InterNodeLink::new(primary_latency),
                InterNodeLink::new(secondary_latency),
            ],
            active: LinkRole::Primary,
            consecutive_losses: 0,
            failover_threshold,
            revert_after_ticks,
            failed_over_at: None,
            failovers: 0,
            reverts: 0,
        }
    }

    /// The currently active role.
    pub fn active(&self) -> LinkRole {
        self.active
    }

    /// The physical link playing `role`.
    pub fn link(&self, role: LinkRole) -> &InterNodeLink {
        &self.links[role.index()]
    }

    /// Mutable access to the physical link playing `role` (fault
    /// injection and tests).
    pub fn link_mut(&mut self, role: LinkRole) -> &mut InterNodeLink {
        &mut self.links[role.index()]
    }

    /// Sends on the active link.
    pub fn send(&mut self, from: LinkEndpoint, now: u64, payload: Vec<u8>) {
        self.links[self.active.index()].send(from, now, payload);
    }

    /// Receives the oldest deliverable frame addressed to `at`, draining
    /// the primary link before the secondary (stable order).
    pub fn receive(&mut self, at: LinkEndpoint, now: u64) -> Option<Vec<u8>> {
        if let Some(p) = self.links[0].receive(at, now) {
            return Some(p);
        }
        self.links[1].receive(at, now)
    }

    /// Whether either link has a deliverable frame for `at`.
    pub fn has_deliverable(&self, at: LinkEndpoint, now: u64) -> bool {
        self.links.iter().any(|l| l.has_deliverable(at, now))
    }

    /// Records one loss round (a retransmission timeout reported by the
    /// transport). Crossing the failover threshold switches the active
    /// link and returns the *new* active role; otherwise `None`.
    pub fn record_loss(&mut self, now: u64) -> Option<LinkRole> {
        self.consecutive_losses += 1;
        if self.failover_threshold == 0 || self.consecutive_losses < self.failover_threshold {
            return None;
        }
        self.active = self.active.other();
        self.consecutive_losses = 0;
        self.failovers += 1;
        self.failed_over_at = match self.active {
            LinkRole::Secondary => Some(now),
            LinkRole::Primary => None,
        };
        Some(self.active)
    }

    /// Records a clean acknowledgement: the loss streak resets.
    pub fn record_delivery(&mut self) {
        self.consecutive_losses = 0;
    }

    /// Revertive switching: after `revert_after_ticks` on the secondary,
    /// traffic returns to the primary for a fresh probation. Returns
    /// whether a revert happened at this call.
    pub fn poll_revert(&mut self, now: u64) -> bool {
        let Some(at) = self.failed_over_at else {
            return false;
        };
        if self.active != LinkRole::Secondary || now.saturating_sub(at) < self.revert_after_ticks {
            return false;
        }
        self.active = LinkRole::Primary;
        self.failed_over_at = None;
        self.consecutive_losses = 0;
        self.reverts += 1;
        true
    }

    /// Starts a sustained outage of `duration` ticks on the active link.
    pub fn begin_outage_active(&mut self, now: u64, duration: u64) {
        self.links[self.active.index()].begin_outage(now + duration);
    }

    /// Whether the active link is inside a sustained outage at `now`.
    pub fn in_outage(&self, now: u64) -> bool {
        self.links[self.active.index()].in_outage(now)
    }

    /// Configures deterministic loss on the active link.
    pub fn set_drop_every(&mut self, n: u64) {
        self.links[self.active.index()].set_drop_every(n);
    }

    /// The active link's propagation latency.
    pub fn latency_ticks(&self) -> u64 {
        self.links[self.active.index()].latency_ticks()
    }

    /// Destroys the newest in-flight frame towards `to`, preferring the
    /// active link. Returns whether a frame was there to lose.
    pub fn drop_in_flight(&mut self, to: LinkEndpoint) -> bool {
        let active = self.active.index();
        self.links[active].drop_in_flight(to) || self.links[1 - active].drop_in_flight(to)
    }

    /// Destroys the newest matching in-flight frame towards `to`,
    /// preferring the active link. Returns whether a frame matched.
    pub fn drop_in_flight_where(&mut self, to: LinkEndpoint, pred: impl Fn(&[u8]) -> bool) -> bool {
        let active = self.active.index();
        self.links[active].drop_in_flight_where(to, &pred)
            || self.links[1 - active].drop_in_flight_where(to, &pred)
    }

    /// Corrupts the newest in-flight frame towards `to`, preferring the
    /// active link. Returns whether a frame was there to corrupt.
    pub fn tamper_in_flight(&mut self, to: LinkEndpoint, byte_index: usize, mask: u8) -> bool {
        let active = self.active.index();
        self.links[active].tamper_in_flight(to, byte_index, mask)
            || self.links[1 - active].tamper_in_flight(to, byte_index, mask)
    }

    /// Current consecutive-loss streak on the active link.
    pub fn consecutive_losses(&self) -> u32 {
        self.consecutive_losses
    }

    /// The configured failover threshold (0 = failover disabled).
    pub fn failover_threshold(&self) -> u32 {
        self.failover_threshold
    }

    /// Failovers performed so far (in either direction).
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Revertive switches back to the primary so far.
    pub fn reverts(&self) -> u64 {
        self.reverts
    }

    /// Frames sent over both links (including dropped ones).
    pub fn sent(&self) -> u64 {
        self.links.iter().map(InterNodeLink::sent).sum()
    }

    /// Frames dropped over both links.
    pub fn dropped(&self) -> u64 {
        self.links.iter().map(InterNodeLink::dropped).sum()
    }

    /// Frames delivered over both links.
    pub fn delivered(&self) -> u64 {
        self.links.iter().map(InterNodeLink::delivered).sum()
    }

    /// Frames corrupted in flight over both links.
    pub fn tampered(&self) -> u64 {
        self.links.iter().map(InterNodeLink::tampered).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> RedundantLink {
        RedundantLink::new(1, 3, 2, 50)
    }

    #[test]
    fn failover_trips_at_threshold_and_switches_latency() {
        let mut link = pair();
        assert_eq!(link.latency_ticks(), 1);
        assert_eq!(link.record_loss(10), None);
        assert_eq!(link.record_loss(12), Some(LinkRole::Secondary));
        assert_eq!(link.active(), LinkRole::Secondary);
        assert_eq!(link.latency_ticks(), 3);
        assert_eq!(link.failovers(), 1);
        assert_eq!(link.consecutive_losses(), 0);
    }

    #[test]
    fn clean_delivery_resets_the_streak() {
        let mut link = pair();
        assert_eq!(link.record_loss(0), None);
        link.record_delivery();
        assert_eq!(link.record_loss(1), None, "streak restarted");
        assert_eq!(link.active(), LinkRole::Primary);
    }

    #[test]
    fn zero_threshold_disables_failover() {
        let mut link = RedundantLink::new(1, 1, 0, 50);
        for t in 0..100 {
            assert_eq!(link.record_loss(t), None);
        }
        assert_eq!(link.active(), LinkRole::Primary);
    }

    #[test]
    fn revert_returns_to_primary_after_probation() {
        let mut link = pair();
        link.record_loss(0);
        link.record_loss(1);
        assert_eq!(link.active(), LinkRole::Secondary);
        assert!(
            !link.poll_revert(50),
            "probation not over (failed over at 1)"
        );
        assert!(link.poll_revert(51));
        assert_eq!(link.active(), LinkRole::Primary);
        assert_eq!(link.reverts(), 1);
        assert!(!link.poll_revert(200), "nothing to revert");
    }

    #[test]
    fn receive_drains_both_links_primary_first() {
        let mut link = pair();
        link.send(LinkEndpoint::B, 0, vec![1]); // primary, latency 1
        link.record_loss(0);
        link.record_loss(0);
        link.send(LinkEndpoint::B, 0, vec![2]); // secondary, latency 3
        assert_eq!(link.receive(LinkEndpoint::A, 5), Some(vec![1]));
        assert_eq!(link.receive(LinkEndpoint::A, 5), Some(vec![2]));
        assert!(!link.has_deliverable(LinkEndpoint::A, 5));
        assert_eq!(link.sent(), 2);
        assert_eq!(link.delivered(), 2);
    }

    #[test]
    fn outage_applies_to_the_active_link_only() {
        let mut link = pair();
        link.begin_outage_active(0, 10);
        assert!(link.in_outage(5));
        link.send(LinkEndpoint::A, 5, vec![9]);
        assert_eq!(link.dropped(), 1);
        link.record_loss(5);
        link.record_loss(6);
        assert_eq!(link.active(), LinkRole::Secondary);
        assert!(!link.in_outage(7), "secondary is healthy");
        link.send(LinkEndpoint::A, 7, vec![8]);
        assert_eq!(link.receive(LinkEndpoint::B, 10), Some(vec![8]));
    }

    #[test]
    fn injection_prefers_the_active_link() {
        let mut link = pair();
        link.record_loss(0);
        link.record_loss(0); // active: secondary
        link.send(LinkEndpoint::A, 0, vec![1]); // on secondary
        link.link_mut(LinkRole::Primary)
            .send(LinkEndpoint::A, 0, vec![2]);
        assert!(link.drop_in_flight(LinkEndpoint::B));
        // The secondary's frame went first.
        assert!(!link
            .link(LinkRole::Secondary)
            .has_deliverable(LinkEndpoint::B, 100));
        assert!(
            link.drop_in_flight(LinkEndpoint::B),
            "falls back to primary"
        );
        assert!(!link.drop_in_flight(LinkEndpoint::B));
    }
}
