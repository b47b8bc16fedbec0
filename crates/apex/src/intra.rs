//! Intrapartition communication: buffers, blackboards, counting semaphores
//! and events (ARINC 653 Part 1).
//!
//! These objects live entirely inside one partition's containment domain —
//! they never cross the spatial-partitioning boundary. Blocking semantics
//! are realised through the POS [`block`](PartitionOs::block) /
//! [`unblock`](PartitionOs::unblock) primitives; wait queues are FIFO (the
//! ARINC `FIFO` queuing discipline).
//!
//! ## The blocked-caller protocol
//!
//! APEX services here never spin. When a service cannot complete
//! immediately and the caller allows waiting, the service returns
//! [`Blocked`](Outcome::Blocked) after parking the process in the POS; the
//! application body yields. When the wait completes, the process wakes
//! with a [`WakeCause`](air_pos::WakeCause): on `Unblocked`, the result
//! (e.g. the received message) is collected with
//! [`IntraPartition::take_delivery`]; on `Timeout`, the caller reports
//! `TIMED_OUT` and [`IntraPartition::cancel_waits`] purges the stale queue
//! entry.

use std::collections::{HashMap, VecDeque};

use air_ports::Payload;

use air_model::ids::ProcessId;
use air_model::Ticks;
use air_pos::PartitionOs;

use crate::return_code::{from_pos, ApexError, ApexResult, ReturnCode};

/// An ARINC 653 timeout argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeout {
    /// Zero timeout: never block, fail with `NOT_AVAILABLE` instead.
    Immediate,
    /// Wait up to the given duration, then fail with `TIMED_OUT`.
    Bounded(Ticks),
    /// Wait indefinitely (`INFINITE_TIME_VALUE`).
    Infinite,
}

impl Timeout {
    fn deadline_from(self, now: Ticks) -> Option<Ticks> {
        match self {
            Timeout::Immediate => None,
            Timeout::Bounded(d) => Some(now + d),
            Timeout::Infinite => None,
        }
    }
}

/// Result of a potentially blocking service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The operation completed immediately with this value.
    Done(T),
    /// The caller was parked in the POS; yield and collect on wake.
    Blocked,
}

#[derive(Debug)]
struct Buffer {
    max_message_size: usize,
    capacity: usize,
    queue: VecDeque<Payload>,
    waiting_senders: VecDeque<(ProcessId, Payload)>,
    waiting_receivers: VecDeque<ProcessId>,
}

#[derive(Debug)]
struct Blackboard {
    max_message_size: usize,
    displayed: Option<Payload>,
    waiting_readers: VecDeque<ProcessId>,
}

#[derive(Debug)]
struct Semaphore {
    value: u32,
    max_value: u32,
    waiting: VecDeque<ProcessId>,
}

#[derive(Debug)]
struct Event {
    up: bool,
    waiting: VecDeque<ProcessId>,
}

/// All intrapartition communication objects of one partition.
#[derive(Debug, Default)]
pub struct IntraPartition {
    buffers: HashMap<String, Buffer>,
    blackboards: HashMap<String, Blackboard>,
    semaphores: HashMap<String, Semaphore>,
    events: HashMap<String, Event>,
    /// Direct handoffs to processes woken by a completing operation.
    deliveries: HashMap<ProcessId, Payload>,
}

impl IntraPartition {
    /// Creates an empty object set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards all runtime state (partition restart); object
    /// configurations survive, their contents do not.
    pub fn reset(&mut self) {
        for b in self.buffers.values_mut() {
            b.queue.clear();
            b.waiting_senders.clear();
            b.waiting_receivers.clear();
        }
        for b in self.blackboards.values_mut() {
            b.displayed = None;
            b.waiting_readers.clear();
        }
        for s in self.semaphores.values_mut() {
            s.waiting.clear();
        }
        for e in self.events.values_mut() {
            e.up = false;
            e.waiting.clear();
        }
        self.deliveries.clear();
    }

    // -- creation services (initialisation mode only; enforced by the
    //    ApexPartition wrapper) ------------------------------------------

    /// `CREATE_BUFFER`.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` for a duplicate name; `INVALID_PARAM` for zero
    /// sizes.
    pub fn create_buffer(
        &mut self,
        name: impl Into<String>,
        max_message_size: usize,
        max_nb_messages: usize,
    ) -> ApexResult<()> {
        const SVC: &str = "CREATE_BUFFER";
        if max_message_size == 0 || max_nb_messages == 0 {
            return Err(ApexError::new(SVC, ReturnCode::InvalidParam));
        }
        let name = name.into();
        if self.buffers.contains_key(&name) {
            return Err(ApexError::new(SVC, ReturnCode::InvalidConfig));
        }
        self.buffers.insert(
            name,
            Buffer {
                max_message_size,
                capacity: max_nb_messages,
                queue: VecDeque::new(),
                waiting_senders: VecDeque::new(),
                waiting_receivers: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// `CREATE_BLACKBOARD`.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` for a duplicate name; `INVALID_PARAM` for zero
    /// size.
    pub fn create_blackboard(
        &mut self,
        name: impl Into<String>,
        max_message_size: usize,
    ) -> ApexResult<()> {
        const SVC: &str = "CREATE_BLACKBOARD";
        if max_message_size == 0 {
            return Err(ApexError::new(SVC, ReturnCode::InvalidParam));
        }
        let name = name.into();
        if self.blackboards.contains_key(&name) {
            return Err(ApexError::new(SVC, ReturnCode::InvalidConfig));
        }
        self.blackboards.insert(
            name,
            Blackboard {
                max_message_size,
                displayed: None,
                waiting_readers: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// `CREATE_SEMAPHORE`.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` for a duplicate name; `INVALID_PARAM` when
    /// `initial > max` or `max == 0`.
    pub fn create_semaphore(
        &mut self,
        name: impl Into<String>,
        initial: u32,
        max_value: u32,
    ) -> ApexResult<()> {
        const SVC: &str = "CREATE_SEMAPHORE";
        if max_value == 0 || initial > max_value {
            return Err(ApexError::new(SVC, ReturnCode::InvalidParam));
        }
        let name = name.into();
        if self.semaphores.contains_key(&name) {
            return Err(ApexError::new(SVC, ReturnCode::InvalidConfig));
        }
        self.semaphores.insert(
            name,
            Semaphore {
                value: initial,
                max_value,
                waiting: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// `CREATE_EVENT`. Events are created in the down state.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` for a duplicate name.
    pub fn create_event(&mut self, name: impl Into<String>) -> ApexResult<()> {
        const SVC: &str = "CREATE_EVENT";
        let name = name.into();
        if self.events.contains_key(&name) {
            return Err(ApexError::new(SVC, ReturnCode::InvalidConfig));
        }
        self.events.insert(
            name,
            Event {
                up: false,
                waiting: VecDeque::new(),
            },
        );
        Ok(())
    }

    // -- buffers ----------------------------------------------------------

    /// `SEND_BUFFER`: queue `payload`, handing it directly to a waiting
    /// receiver if one exists; blocks (or fails) when the buffer is full.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown buffer), `INVALID_PARAM` (bad payload),
    /// `NOT_AVAILABLE` (full with [`Timeout::Immediate`]).
    pub fn send_buffer(
        &mut self,
        caller: ProcessId,
        name: &str,
        payload: impl Into<Payload>,
        timeout: Timeout,
        now: Ticks,
        pos: &mut PartitionOs,
    ) -> ApexResult<Outcome<()>> {
        const SVC: &str = "SEND_BUFFER";
        let payload = payload.into();
        let buf = self
            .buffers
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        if payload.is_empty() || payload.len() > buf.max_message_size {
            return Err(ApexError::new(SVC, ReturnCode::InvalidParam));
        }
        if let Some(receiver) = buf.waiting_receivers.pop_front() {
            // Direct handoff to the longest-waiting receiver.
            self.deliveries.insert(receiver, payload);
            pos.unblock(receiver, now).map_err(|e| from_pos(SVC, e))?;
            return Ok(Outcome::Done(()));
        }
        if buf.queue.len() < buf.capacity {
            buf.queue.push_back(payload);
            return Ok(Outcome::Done(()));
        }
        if matches!(timeout, Timeout::Immediate) {
            return Err(ApexError::new(SVC, ReturnCode::NotAvailable));
        }
        buf.waiting_senders.push_back((caller, payload));
        pos.block(caller, timeout.deadline_from(now), now)
            .map_err(|e| from_pos(SVC, e))?;
        Ok(Outcome::Blocked)
    }

    /// `RECEIVE_BUFFER`: dequeue the oldest message; blocks (or fails)
    /// when the buffer is empty.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown buffer), `NOT_AVAILABLE` (empty with
    /// [`Timeout::Immediate`]).
    pub fn receive_buffer(
        &mut self,
        caller: ProcessId,
        name: &str,
        timeout: Timeout,
        now: Ticks,
        pos: &mut PartitionOs,
    ) -> ApexResult<Outcome<Payload>> {
        const SVC: &str = "RECEIVE_BUFFER";
        let buf = self
            .buffers
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        if let Some(msg) = buf.queue.pop_front() {
            // A parked sender can now take the freed slot.
            if let Some((sender, pending)) = buf.waiting_senders.pop_front() {
                buf.queue.push_back(pending);
                pos.unblock(sender, now).map_err(|e| from_pos(SVC, e))?;
            }
            return Ok(Outcome::Done(msg));
        }
        if matches!(timeout, Timeout::Immediate) {
            return Err(ApexError::new(SVC, ReturnCode::NotAvailable));
        }
        buf.waiting_receivers.push_back(caller);
        pos.block(caller, timeout.deadline_from(now), now)
            .map_err(|e| from_pos(SVC, e))?;
        Ok(Outcome::Blocked)
    }

    // -- blackboards ------------------------------------------------------

    /// `DISPLAY_BLACKBOARD`: publish `payload`, waking every parked reader
    /// with a direct delivery.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown blackboard), `INVALID_PARAM` (bad
    /// payload).
    pub fn display_blackboard(
        &mut self,
        name: &str,
        payload: impl Into<Payload>,
        now: Ticks,
        pos: &mut PartitionOs,
    ) -> ApexResult<()> {
        const SVC: &str = "DISPLAY_BLACKBOARD";
        let payload = payload.into();
        let bb = self
            .blackboards
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        if payload.is_empty() || payload.len() > bb.max_message_size {
            return Err(ApexError::new(SVC, ReturnCode::InvalidParam));
        }
        bb.displayed = Some(payload.clone());
        while let Some(reader) = bb.waiting_readers.pop_front() {
            self.deliveries.insert(reader, payload.clone());
            pos.unblock(reader, now).map_err(|e| from_pos(SVC, e))?;
        }
        Ok(())
    }

    /// `CLEAR_BLACKBOARD`.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown blackboard).
    pub fn clear_blackboard(&mut self, name: &str) -> ApexResult<()> {
        const SVC: &str = "CLEAR_BLACKBOARD";
        let bb = self
            .blackboards
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        bb.displayed = None;
        Ok(())
    }

    /// `READ_BLACKBOARD`: return the displayed message, or block until one
    /// is displayed.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown blackboard), `NOT_AVAILABLE` (empty with
    /// [`Timeout::Immediate`]).
    pub fn read_blackboard(
        &mut self,
        caller: ProcessId,
        name: &str,
        timeout: Timeout,
        now: Ticks,
        pos: &mut PartitionOs,
    ) -> ApexResult<Outcome<Payload>> {
        const SVC: &str = "READ_BLACKBOARD";
        let bb = self
            .blackboards
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        if let Some(msg) = &bb.displayed {
            return Ok(Outcome::Done(msg.clone()));
        }
        if matches!(timeout, Timeout::Immediate) {
            return Err(ApexError::new(SVC, ReturnCode::NotAvailable));
        }
        bb.waiting_readers.push_back(caller);
        pos.block(caller, timeout.deadline_from(now), now)
            .map_err(|e| from_pos(SVC, e))?;
        Ok(Outcome::Blocked)
    }

    // -- semaphores -------------------------------------------------------

    /// `WAIT_SEMAPHORE` (P operation).
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown semaphore), `NOT_AVAILABLE` (zero with
    /// [`Timeout::Immediate`]).
    pub fn wait_semaphore(
        &mut self,
        caller: ProcessId,
        name: &str,
        timeout: Timeout,
        now: Ticks,
        pos: &mut PartitionOs,
    ) -> ApexResult<Outcome<()>> {
        const SVC: &str = "WAIT_SEMAPHORE";
        let sem = self
            .semaphores
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        if sem.value > 0 {
            sem.value -= 1;
            return Ok(Outcome::Done(()));
        }
        if matches!(timeout, Timeout::Immediate) {
            return Err(ApexError::new(SVC, ReturnCode::NotAvailable));
        }
        sem.waiting.push_back(caller);
        pos.block(caller, timeout.deadline_from(now), now)
            .map_err(|e| from_pos(SVC, e))?;
        Ok(Outcome::Blocked)
    }

    /// `SIGNAL_SEMAPHORE` (V operation): wakes the longest-waiting process,
    /// or increments the value.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown semaphore), `NO_ACTION` when already at
    /// the maximum value.
    pub fn signal_semaphore(
        &mut self,
        name: &str,
        now: Ticks,
        pos: &mut PartitionOs,
    ) -> ApexResult<()> {
        const SVC: &str = "SIGNAL_SEMAPHORE";
        let sem = self
            .semaphores
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        if let Some(waiter) = sem.waiting.pop_front() {
            // The token passes straight to the waiter; the value stays 0.
            pos.unblock(waiter, now).map_err(|e| from_pos(SVC, e))?;
            return Ok(());
        }
        if sem.value >= sem.max_value {
            return Err(ApexError::new(SVC, ReturnCode::NoAction));
        }
        sem.value += 1;
        Ok(())
    }

    // -- events -----------------------------------------------------------

    /// `SET_EVENT`: up; every parked waiter wakes.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown event).
    pub fn set_event(&mut self, name: &str, now: Ticks, pos: &mut PartitionOs) -> ApexResult<()> {
        const SVC: &str = "SET_EVENT";
        let ev = self
            .events
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        ev.up = true;
        while let Some(waiter) = ev.waiting.pop_front() {
            pos.unblock(waiter, now).map_err(|e| from_pos(SVC, e))?;
        }
        Ok(())
    }

    /// `RESET_EVENT`: down.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown event).
    pub fn reset_event(&mut self, name: &str) -> ApexResult<()> {
        const SVC: &str = "RESET_EVENT";
        let ev = self
            .events
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        ev.up = false;
        Ok(())
    }

    /// `WAIT_EVENT`: completes immediately when the event is up, parks the
    /// caller otherwise.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown event), `NOT_AVAILABLE` (down with
    /// [`Timeout::Immediate`]).
    pub fn wait_event(
        &mut self,
        caller: ProcessId,
        name: &str,
        timeout: Timeout,
        now: Ticks,
        pos: &mut PartitionOs,
    ) -> ApexResult<Outcome<()>> {
        const SVC: &str = "WAIT_EVENT";
        let ev = self
            .events
            .get_mut(name)
            .ok_or(ApexError::new(SVC, ReturnCode::InvalidConfig))?;
        if ev.up {
            return Ok(Outcome::Done(()));
        }
        if matches!(timeout, Timeout::Immediate) {
            return Err(ApexError::new(SVC, ReturnCode::NotAvailable));
        }
        ev.waiting.push_back(caller);
        pos.block(caller, timeout.deadline_from(now), now)
            .map_err(|e| from_pos(SVC, e))?;
        Ok(Outcome::Blocked)
    }

    // -- wake-side protocol -----------------------------------------------

    /// Collects a message handed directly to `process` by a completing
    /// operation (buffer handoff, blackboard display).
    pub fn take_delivery(&mut self, process: ProcessId) -> Option<Payload> {
        self.deliveries.remove(&process)
    }

    /// Purges `process` from every wait queue — called when it timed out
    /// or was stopped while parked, so stale queue entries never receive
    /// handoffs.
    pub fn cancel_waits(&mut self, process: ProcessId) {
        for b in self.buffers.values_mut() {
            b.waiting_senders.retain(|(p, _)| *p != process);
            b.waiting_receivers.retain(|p| *p != process);
        }
        for b in self.blackboards.values_mut() {
            b.waiting_readers.retain(|p| *p != process);
        }
        for s in self.semaphores.values_mut() {
            s.waiting.retain(|p| *p != process);
        }
        for e in self.events.values_mut() {
            e.waiting.retain(|p| *p != process);
        }
        self.deliveries.remove(&process);
    }

    /// Current value of a semaphore (`GET_SEMAPHORE_STATUS` subset).
    pub fn semaphore_value(&self, name: &str) -> Option<u32> {
        self.semaphores.get(name).map(|s| s.value)
    }

    /// Whether an event is up (`GET_EVENT_STATUS` subset).
    pub fn event_is_up(&self, name: &str) -> Option<bool> {
        self.events.get(name).map(|e| e.up)
    }

    /// Queued message count of a buffer (`GET_BUFFER_STATUS` subset).
    pub fn buffer_len(&self, name: &str) -> Option<usize> {
        self.buffers.get(name).map(|b| b.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::partition::PosKind;
    use air_model::process::ProcessAttributes;
    use air_pos::WakeCause;

    fn setup(n: u32) -> (IntraPartition, PartitionOs, Vec<ProcessId>) {
        let mut pos = PartitionOs::new(PosKind::RealTime);
        let ids: Vec<ProcessId> = (0..n)
            .map(|i| {
                let p = pos
                    .create_process(ProcessAttributes::new(format!("p{i}")))
                    .unwrap();
                pos.start(p, Ticks(0)).unwrap();
                p
            })
            .collect();
        (IntraPartition::new(), pos, ids)
    }

    #[test]
    fn buffer_send_receive_immediate() {
        let (mut intra, mut pos, ids) = setup(2);
        intra.create_buffer("b", 16, 2).unwrap();
        let out = intra
            .send_buffer(
                ids[0],
                "b",
                &b"m1"[..],
                Timeout::Immediate,
                Ticks(0),
                &mut pos,
            )
            .unwrap();
        assert_eq!(out, Outcome::Done(()));
        assert_eq!(intra.buffer_len("b"), Some(1));
        let out = intra
            .receive_buffer(ids[1], "b", Timeout::Immediate, Ticks(0), &mut pos)
            .unwrap();
        assert_eq!(out, Outcome::Done(Payload::from_static(b"m1")));
    }

    #[test]
    fn buffer_full_blocks_sender_until_receive() {
        let (mut intra, mut pos, ids) = setup(2);
        intra.create_buffer("b", 16, 1).unwrap();
        intra
            .send_buffer(
                ids[0],
                "b",
                &b"m1"[..],
                Timeout::Immediate,
                Ticks(0),
                &mut pos,
            )
            .unwrap();
        // Full: immediate send fails, waiting send parks.
        assert_eq!(
            intra
                .send_buffer(
                    ids[0],
                    "b",
                    &b"m2"[..],
                    Timeout::Immediate,
                    Ticks(0),
                    &mut pos
                )
                .unwrap_err()
                .code,
            ReturnCode::NotAvailable
        );
        let out = intra
            .send_buffer(
                ids[0],
                "b",
                &b"m2"[..],
                Timeout::Infinite,
                Ticks(0),
                &mut pos,
            )
            .unwrap();
        assert_eq!(out, Outcome::Blocked);
        assert_eq!(
            pos.status(ids[0]).unwrap().state,
            air_model::ProcessState::Waiting
        );
        // A receive frees the slot, queues m2, and unblocks the sender.
        let got = intra
            .receive_buffer(ids[1], "b", Timeout::Immediate, Ticks(1), &mut pos)
            .unwrap();
        assert_eq!(got, Outcome::Done(Payload::from_static(b"m1")));
        assert_eq!(intra.buffer_len("b"), Some(1));
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Unblocked));
        assert!(pos.status(ids[0]).unwrap().state.is_schedulable());
    }

    #[test]
    fn buffer_empty_blocks_receiver_with_direct_handoff() {
        let (mut intra, mut pos, ids) = setup(2);
        intra.create_buffer("b", 16, 2).unwrap();
        let out = intra
            .receive_buffer(ids[1], "b", Timeout::Bounded(Ticks(50)), Ticks(0), &mut pos)
            .unwrap();
        assert_eq!(out, Outcome::Blocked);
        // The send hands the payload straight to the parked receiver.
        intra
            .send_buffer(
                ids[0],
                "b",
                &b"hot"[..],
                Timeout::Immediate,
                Ticks(5),
                &mut pos,
            )
            .unwrap();
        assert_eq!(intra.buffer_len("b"), Some(0), "handoff bypasses the queue");
        assert_eq!(pos.take_wake_cause(ids[1]), Some(WakeCause::Unblocked));
        assert_eq!(
            intra.take_delivery(ids[1]),
            Some(Payload::from_static(b"hot"))
        );
        assert_eq!(intra.take_delivery(ids[1]), None, "consumed");
    }

    #[test]
    fn buffer_receive_timeout_path() {
        let (mut intra, mut pos, ids) = setup(1);
        intra.create_buffer("b", 16, 2).unwrap();
        intra
            .receive_buffer(ids[0], "b", Timeout::Bounded(Ticks(10)), Ticks(0), &mut pos)
            .unwrap();
        pos.announce_ticks(Ticks(10));
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Timeout));
        // The APEX wake path purges the stale wait entry…
        intra.cancel_waits(ids[0]);
        // …so a later send goes to the queue, not to a ghost.
        intra
            .send_buffer(
                ids[0],
                "b",
                &b"late"[..],
                Timeout::Immediate,
                Ticks(11),
                &mut pos,
            )
            .unwrap();
        assert_eq!(intra.buffer_len("b"), Some(1));
    }

    #[test]
    fn blackboard_display_wakes_all_readers() {
        let (mut intra, mut pos, ids) = setup(3);
        intra.create_blackboard("bb", 16).unwrap();
        for &r in &ids[1..] {
            assert_eq!(
                intra
                    .read_blackboard(r, "bb", Timeout::Infinite, Ticks(0), &mut pos)
                    .unwrap(),
                Outcome::Blocked
            );
        }
        intra
            .display_blackboard("bb", &b"mode=safe"[..], Ticks(1), &mut pos)
            .unwrap();
        for &r in &ids[1..] {
            assert_eq!(
                intra.take_delivery(r),
                Some(Payload::from_static(b"mode=safe"))
            );
            assert!(pos.status(r).unwrap().state.is_schedulable());
        }
        // Subsequent reads complete immediately.
        assert_eq!(
            intra
                .read_blackboard(ids[1], "bb", Timeout::Immediate, Ticks(2), &mut pos)
                .unwrap(),
            Outcome::Done(Payload::from_static(b"mode=safe"))
        );
        // Clearing empties it again.
        intra.clear_blackboard("bb").unwrap();
        assert_eq!(
            intra
                .read_blackboard(ids[1], "bb", Timeout::Immediate, Ticks(3), &mut pos)
                .unwrap_err()
                .code,
            ReturnCode::NotAvailable
        );
    }

    #[test]
    fn semaphore_token_passing() {
        let (mut intra, mut pos, ids) = setup(2);
        intra.create_semaphore("s", 1, 1).unwrap();
        assert_eq!(
            intra
                .wait_semaphore(ids[0], "s", Timeout::Immediate, Ticks(0), &mut pos)
                .unwrap(),
            Outcome::Done(())
        );
        assert_eq!(intra.semaphore_value("s"), Some(0));
        // Second waiter parks.
        assert_eq!(
            intra
                .wait_semaphore(ids[1], "s", Timeout::Infinite, Ticks(0), &mut pos)
                .unwrap(),
            Outcome::Blocked
        );
        // Signal passes the token to the waiter; value stays 0.
        intra.signal_semaphore("s", Ticks(1), &mut pos).unwrap();
        assert_eq!(intra.semaphore_value("s"), Some(0));
        assert_eq!(pos.take_wake_cause(ids[1]), Some(WakeCause::Unblocked));
        // Signal with nobody waiting increments; at max it is NO_ACTION.
        intra.signal_semaphore("s", Ticks(2), &mut pos).unwrap();
        assert_eq!(intra.semaphore_value("s"), Some(1));
        assert_eq!(
            intra
                .signal_semaphore("s", Ticks(3), &mut pos)
                .unwrap_err()
                .code,
            ReturnCode::NoAction
        );
    }

    #[test]
    fn event_broadcast() {
        let (mut intra, mut pos, ids) = setup(3);
        intra.create_event("go").unwrap();
        assert_eq!(intra.event_is_up("go"), Some(false));
        for &w in &ids[0..2] {
            assert_eq!(
                intra
                    .wait_event(w, "go", Timeout::Infinite, Ticks(0), &mut pos)
                    .unwrap(),
                Outcome::Blocked
            );
        }
        intra.set_event("go", Ticks(1), &mut pos).unwrap();
        for &w in &ids[0..2] {
            assert!(pos.status(w).unwrap().state.is_schedulable());
        }
        // Up: waits complete immediately until reset.
        assert_eq!(
            intra
                .wait_event(ids[2], "go", Timeout::Immediate, Ticks(2), &mut pos)
                .unwrap(),
            Outcome::Done(())
        );
        intra.reset_event("go").unwrap();
        assert_eq!(
            intra
                .wait_event(ids[2], "go", Timeout::Immediate, Ticks(3), &mut pos)
                .unwrap_err()
                .code,
            ReturnCode::NotAvailable
        );
    }

    #[test]
    fn creation_validation() {
        let (mut intra, _pos, _ids) = setup(0);
        assert_eq!(
            intra.create_buffer("b", 0, 1).unwrap_err().code,
            ReturnCode::InvalidParam
        );
        intra.create_buffer("b", 8, 1).unwrap();
        assert_eq!(
            intra.create_buffer("b", 8, 1).unwrap_err().code,
            ReturnCode::InvalidConfig
        );
        assert_eq!(
            intra.create_semaphore("s", 5, 2).unwrap_err().code,
            ReturnCode::InvalidParam
        );
        intra.create_event("e").unwrap();
        assert_eq!(
            intra.create_event("e").unwrap_err().code,
            ReturnCode::InvalidConfig
        );
    }

    #[test]
    fn unknown_objects_are_invalid_config() {
        let (mut intra, mut pos, ids) = setup(1);
        assert_eq!(
            intra
                .send_buffer(
                    ids[0],
                    "ghost",
                    &b"x"[..],
                    Timeout::Immediate,
                    Ticks(0),
                    &mut pos
                )
                .unwrap_err()
                .code,
            ReturnCode::InvalidConfig
        );
        assert_eq!(
            intra
                .signal_semaphore("ghost", Ticks(0), &mut pos)
                .unwrap_err()
                .code,
            ReturnCode::InvalidConfig
        );
    }

    #[test]
    fn reset_clears_contents_and_queues() {
        let (mut intra, mut pos, ids) = setup(2);
        intra.create_buffer("b", 8, 4).unwrap();
        intra.create_event("e").unwrap();
        intra
            .send_buffer(
                ids[0],
                "b",
                &b"x"[..],
                Timeout::Immediate,
                Ticks(0),
                &mut pos,
            )
            .unwrap();
        intra.set_event("e", Ticks(0), &mut pos).unwrap();
        intra
            .wait_semaphore(ids[1], "b-ghost", Timeout::Immediate, Ticks(0), &mut pos)
            .ok();
        intra.reset();
        assert_eq!(intra.buffer_len("b"), Some(0));
        assert_eq!(intra.event_is_up("e"), Some(false));
    }
}
