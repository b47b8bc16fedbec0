//! Application process bodies: the mockup workloads running inside
//! partitions.
//!
//! The prototype's partitions run "RTEMS-based mockup applications
//! representative of typical functions present in a satellite system"
//! (Sect. 6). A [`ProcessBody`] is such a mockup: a state machine invoked
//! once per clock tick *while its process is the running heir*, free to
//! invoke APEX services through the [`ProcessApi`]. Calling a waiting
//! service (e.g. `PERIODIC_WAIT`) mid-tick relinquishes the CPU from the
//! next tick on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use air_apex::ApexPartition;
use air_hm::ErrorId;
use air_model::ids::ProcessId;
use air_model::{ScheduleId, Ticks};
use air_pmk::PartitionScheduler;
use air_ports::{Message, Payload, PortRegistry, Validity};

use crate::text::StackText;

/// A shared on/off switch for fault injection (the prototype's "activating
/// the faulty process on P1" keyboard command, Sect. 6).
#[derive(Debug, Clone, Default)]
pub struct FaultSwitch(Arc<AtomicBool>);

impl FaultSwitch {
    /// Creates an inactive switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Activates the fault.
    pub fn activate(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Deactivates the fault.
    pub fn deactivate(&self) {
        self.0.store(false, Ordering::Relaxed);
    }

    /// Toggles the fault; returns the new state.
    pub fn toggle(&self) -> bool {
        !self.0.fetch_xor(true, Ordering::Relaxed)
    }

    /// Whether the fault is active.
    pub fn is_active(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Everything a process body may touch during its tick.
pub struct ProcessApi<'a> {
    /// Current time.
    pub now: Ticks,
    /// The calling process's identifier.
    pub me: ProcessId,
    /// The APEX instance of the owning partition.
    pub apex: &'a mut ApexPartition,
    /// The PMK port registry (interpartition communication services).
    pub ports: &'a mut PortRegistry,
    /// The AIR Partition Scheduler (module-schedule services; authority is
    /// checked by the service).
    pub scheduler: &'a mut PartitionScheduler,
    /// The partition's console output channel.
    pub console: &'a mut String,
    /// Errors raised this tick (raiser, error class, detail), drained by
    /// the PMK into health monitoring after the body returns.
    pub raised_errors: &'a mut Vec<(ProcessId, ErrorId, String)>,
}

impl ProcessApi<'_> {
    /// Writes a line to the partition's console window.
    pub fn log(&mut self, line: impl AsRef<str>) {
        self.console.push_str(line.as_ref());
        self.console.push('\n');
    }

    /// `SET_MODULE_SCHEDULE` on behalf of the owning partition.
    ///
    /// # Errors
    ///
    /// As [`air_apex::set_module_schedule`].
    pub fn set_module_schedule(&mut self, schedule: ScheduleId) -> air_apex::ApexResult<()> {
        air_apex::set_module_schedule(self.apex.descriptor(), self.scheduler, schedule)
    }

    /// `RAISE_APPLICATION_ERROR`: reports an application-detected error to
    /// health monitoring (handled at process level per the HM tables; the
    /// partition's error handler — or the configured fallback — decides
    /// the recovery).
    pub fn raise_application_error(&mut self, message: impl Into<String>) {
        self.raised_errors
            .push((self.me, ErrorId::ApplicationError, message.into()));
    }

    /// `SEND_QUEUING_MESSAGE` that reports failures to health monitoring
    /// instead of silently succeeding: a full destination queue (overflow)
    /// raises an [`ErrorId::IllegalRequest`] against the caller. Returns
    /// whether the message was accepted.
    pub fn send_queuing_reporting(&mut self, port: &str, payload: Vec<u8>) -> bool {
        match self
            .apex
            .send_queuing_message(self.ports, port, payload, self.now)
        {
            Ok(()) => true,
            Err(e) => {
                self.raised_errors.push((
                    self.me,
                    ErrorId::IllegalRequest,
                    format!("queuing overflow on '{port}': {e}"),
                ));
                false
            }
        }
    }

    /// `READ_SAMPLING_MESSAGE` that reports a stale read (validity
    /// `Invalid`: the message is older than the port's refresh period) to
    /// health monitoring as an [`ErrorId::ApplicationError`]. Returns the
    /// message when one was present, stale or not.
    pub fn read_sampling_reporting(&mut self, port: &str) -> Option<Message> {
        match self.apex.read_sampling_message(self.ports, port, self.now) {
            Ok((msg, validity)) => {
                if !validity.is_valid() {
                    self.raised_errors.push((
                        self.me,
                        ErrorId::ApplicationError,
                        format!("stale sampling message on '{port}'"),
                    ));
                }
                Some(msg)
            }
            Err(_) => None,
        }
    }

    /// `REPORT_APPLICATION_MESSAGE`: writes a diagnostic message to the
    /// partition's console (the prototype routes these to the partition's
    /// VITRAL window).
    pub fn report_application_message(&mut self, message: impl AsRef<str>) {
        self.log(message);
    }
}

/// A process application body, ticked while its process runs.
pub trait ProcessBody: Send {
    /// Executes one tick of the process's work.
    fn on_tick(&mut self, api: &mut ProcessApi<'_>);
}

impl<F: FnMut(&mut ProcessApi<'_>) + Send> ProcessBody for F {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        self(api)
    }
}

// ---------------------------------------------------------------------------
// Library bodies
// ---------------------------------------------------------------------------

/// A periodic computation: burns `compute_ticks` per activation, then
/// calls `PERIODIC_WAIT`.
#[derive(Debug)]
pub struct PeriodicCompute {
    compute_ticks: u64,
    done_this_activation: u64,
    activations: u64,
}

impl PeriodicCompute {
    /// Creates a body computing `compute_ticks` per activation.
    pub fn new(compute_ticks: u64) -> Self {
        Self {
            compute_ticks,
            done_this_activation: 0,
            activations: 0,
        }
    }

    /// Completed activations.
    pub fn activations(&self) -> u64 {
        self.activations
    }
}

impl ProcessBody for PeriodicCompute {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        self.done_this_activation += 1;
        if self.done_this_activation >= self.compute_ticks {
            self.done_this_activation = 0;
            self.activations += 1;
            let _ = api.apex.periodic_wait(api.me, api.now);
        }
    }
}

/// The injectable faulty process of Sect. 6: behaves like
/// [`PeriodicCompute`] until its [`FaultSwitch`] goes active, after which
/// it overruns forever (never reaching `PERIODIC_WAIT`), so its armed
/// deadline passes and the PAL detects the violation at P1's next
/// dispatch.
#[derive(Debug)]
pub struct FaultyPeriodic {
    inner: PeriodicCompute,
    switch: FaultSwitch,
}

impl FaultyPeriodic {
    /// Creates the faulty body: normal compute of `compute_ticks` per
    /// activation, overrun when `switch` is active.
    pub fn new(compute_ticks: u64, switch: FaultSwitch) -> Self {
        Self {
            inner: PeriodicCompute::new(compute_ticks),
            switch,
        }
    }
}

impl ProcessBody for FaultyPeriodic {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if self.switch.is_active() {
            // Malfunction: spin, consuming the window without completing.
            return;
        }
        self.inner.on_tick(api);
    }
}

/// A periodic producer writing a sampling message each activation, then
/// `PERIODIC_WAIT`.
#[derive(Debug)]
pub struct SamplingProducer {
    port: String,
    compute_ticks: u64,
    done: u64,
    seq: u64,
}

impl SamplingProducer {
    /// Creates a producer on sampling port `port`, computing
    /// `compute_ticks` before each write.
    pub fn new(port: impl Into<String>, compute_ticks: u64) -> Self {
        Self {
            port: port.into(),
            compute_ticks: compute_ticks.max(1),
            done: 0,
            seq: 0,
        }
    }
}

impl ProcessBody for SamplingProducer {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        self.done += 1;
        if self.done >= self.compute_ticks {
            self.done = 0;
            // `seq=<seq> t=<now>t`, the tick in its `Display` spelling.
            let mut payload = StackText::<48>::new();
            payload
                .push(b"seq=")
                .push_u64(self.seq)
                .push(b" t=")
                .push_u64(api.now.as_u64())
                .push(b"t");
            self.seq += 1;
            let _ = api.apex.write_sampling_message(
                api.ports,
                &self.port,
                Payload::copy_from_slice(payload.as_bytes()),
                api.now,
            );
            let _ = api.apex.periodic_wait(api.me, api.now);
        }
    }
}

/// A periodic consumer reading a sampling message each activation and
/// logging its validity.
#[derive(Debug)]
pub struct SamplingConsumer {
    port: String,
    reads: u64,
    valid_reads: u64,
}

impl SamplingConsumer {
    /// Creates a consumer on sampling port `port`.
    pub fn new(port: impl Into<String>) -> Self {
        Self {
            port: port.into(),
            reads: 0,
            valid_reads: 0,
        }
    }
}

impl ProcessBody for SamplingConsumer {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if let Ok((msg, validity)) = api
            .apex
            .read_sampling_message(api.ports, &self.port, api.now)
        {
            self.reads += 1;
            if validity.is_valid() {
                self.valid_reads += 1;
            }
            let console = &mut *api.console;
            console.push_str("read ");
            console.push_str(&String::from_utf8_lossy(&msg.payload));
            console.push_str(match validity {
                Validity::Valid => " (Valid)\n",
                Validity::Invalid => " (Invalid)\n",
            });
        }
        let _ = api.apex.periodic_wait(api.me, api.now);
    }
}

/// The queuing producers' message body, `frame-<seq>`, copied once from
/// the stack into its payload.
fn frame_payload(seq: u64) -> Payload {
    let mut text = StackText::<26>::new();
    text.push(b"frame-").push_u64(seq);
    Payload::copy_from_slice(text.as_bytes())
}

/// A periodic producer pushing one queuing message per activation.
#[derive(Debug)]
pub struct QueuingProducer {
    port: String,
    seq: u64,
    sent: u64,
    rejected: u64,
}

impl QueuingProducer {
    /// Creates a producer on queuing port `port`.
    pub fn new(port: impl Into<String>) -> Self {
        Self {
            port: port.into(),
            seq: 0,
            sent: 0,
            rejected: 0,
        }
    }
}

impl ProcessBody for QueuingProducer {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        let payload = frame_payload(self.seq);
        self.seq += 1;
        match api
            .apex
            .send_queuing_message(api.ports, &self.port, payload, api.now)
        {
            Ok(()) => self.sent += 1,
            Err(_) => self.rejected += 1,
        }
        let _ = api.apex.periodic_wait(api.me, api.now);
    }
}

/// A periodic producer pushing one queuing message per activation until a
/// fixed budget is exhausted, then idling — the link campaigns use it so
/// "every offered message" is a closed set the invariants can count.
#[derive(Debug)]
pub struct FiniteQueuingProducer {
    port: String,
    budget: u64,
    seq: u64,
    sent: u64,
    rejected: u64,
}

impl FiniteQueuingProducer {
    /// Creates a producer on queuing port `port` that stops after `budget`
    /// accepted messages.
    pub fn new(port: impl Into<String>, budget: u64) -> Self {
        Self {
            port: port.into(),
            budget,
            seq: 0,
            sent: 0,
            rejected: 0,
        }
    }
}

impl ProcessBody for FiniteQueuingProducer {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if self.sent < self.budget {
            let payload = frame_payload(self.seq);
            match api
                .apex
                .send_queuing_message(api.ports, &self.port, payload, api.now)
            {
                Ok(()) => {
                    self.seq += 1;
                    self.sent += 1;
                }
                Err(_) => self.rejected += 1,
            }
        }
        let _ = api.apex.periodic_wait(api.me, api.now);
    }
}

/// A periodic consumer draining its queuing port each activation.
#[derive(Debug)]
pub struct QueuingConsumer {
    port: String,
    received: u64,
}

impl QueuingConsumer {
    /// Creates a consumer on queuing port `port`.
    pub fn new(port: impl Into<String>) -> Self {
        Self {
            port: port.into(),
            received: 0,
        }
    }
}

impl ProcessBody for QueuingConsumer {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        while let Ok(msg) = api.apex.receive_queuing_message(api.ports, &self.port) {
            self.received += 1;
            let console = &mut *api.console;
            console.push_str("rx ");
            console.push_str(&String::from_utf8_lossy(&msg.payload));
            console.push('\n');
        }
        let _ = api.apex.periodic_wait(api.me, api.now);
    }
}

/// An idle body: spins without ever blocking (background workload).
#[derive(Debug, Default)]
pub struct BusyLoop {
    ticks: u64,
}

impl BusyLoop {
    /// Creates an idle spinner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ProcessBody for BusyLoop {
    fn on_tick(&mut self, _api: &mut ProcessApi<'_>) {
        self.ticks += 1;
    }
}
