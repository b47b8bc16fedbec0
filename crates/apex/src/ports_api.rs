//! Interpartition communication services (APEX sampling/queuing port
//! interface, Sect. 2.1 and 2.3).
//!
//! These services operate on the PMK-owned [`PortRegistry`]: the
//! application names a port; whether the peer partition is local or remote
//! is invisible here — "the AIR PMK deals with these specifics".

use air_ports::Payload;

use air_model::Ticks;
use air_ports::{Message, PortRegistry, QueuingPortConfig, SamplingPortConfig, Validity};

use crate::partition::ApexPartition;
use crate::return_code::{from_port, ApexError, ApexResult, ReturnCode};

impl ApexPartition {
    /// `CREATE_SAMPLING_PORT` (initialisation mode only).
    ///
    /// # Errors
    ///
    /// `INVALID_MODE` outside start modes; `INVALID_CONFIG` on duplicates.
    pub fn create_sampling_port(
        &mut self,
        registry: &mut PortRegistry,
        config: SamplingPortConfig,
    ) -> ApexResult<()> {
        const SVC: &str = "CREATE_SAMPLING_PORT";
        if !self.mode().is_starting() {
            return Err(ApexError::new(SVC, ReturnCode::InvalidMode));
        }
        registry
            .create_sampling_port(self.id(), config)
            .map_err(|e| from_port(SVC, e))
    }

    /// `CREATE_QUEUING_PORT` (initialisation mode only).
    ///
    /// # Errors
    ///
    /// `INVALID_MODE` outside start modes; `INVALID_CONFIG` on duplicates.
    pub fn create_queuing_port(
        &mut self,
        registry: &mut PortRegistry,
        config: QueuingPortConfig,
    ) -> ApexResult<()> {
        const SVC: &str = "CREATE_QUEUING_PORT";
        if !self.mode().is_starting() {
            return Err(ApexError::new(SVC, ReturnCode::InvalidMode));
        }
        registry
            .create_queuing_port(self.id(), config)
            .map_err(|e| from_port(SVC, e))
    }

    /// `WRITE_SAMPLING_MESSAGE`.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown port), `INVALID_MODE` (wrong direction),
    /// `INVALID_PARAM` (bad payload).
    pub fn write_sampling_message(
        &mut self,
        registry: &mut PortRegistry,
        port: &str,
        payload: impl Into<Payload>,
        now: Ticks,
    ) -> ApexResult<()> {
        const SVC: &str = "WRITE_SAMPLING_MESSAGE";
        registry
            .sampling_port_mut(self.id(), port)
            .map_err(|e| from_port(SVC, e))?
            .write(payload, now)
            .map_err(|e| from_port(SVC, e))
    }

    /// `READ_SAMPLING_MESSAGE`: the current message plus its validity.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG` (unknown port), `NOT_AVAILABLE` (no message ever
    /// delivered).
    pub fn read_sampling_message(
        &mut self,
        registry: &mut PortRegistry,
        port: &str,
        now: Ticks,
    ) -> ApexResult<(Message, Validity)> {
        const SVC: &str = "READ_SAMPLING_MESSAGE";
        registry
            .sampling_port_mut(self.id(), port)
            .map_err(|e| from_port(SVC, e))?
            .read(now)
            .map_err(|e| from_port(SVC, e))
    }

    /// `SEND_QUEUING_MESSAGE` with zero timeout: enqueue or fail
    /// immediately with `NOT_AVAILABLE` when the port FIFO is full.
    ///
    /// (The blocking-timeout variant of the service is realised by the
    /// application retrying on its activations, which matches the
    /// simulator's cooperative workload model.)
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG`, `INVALID_PARAM`, `NOT_AVAILABLE`.
    pub fn send_queuing_message(
        &mut self,
        registry: &mut PortRegistry,
        port: &str,
        payload: impl Into<Payload>,
        now: Ticks,
    ) -> ApexResult<()> {
        const SVC: &str = "SEND_QUEUING_MESSAGE";
        registry
            .queuing_port_mut(self.id(), port)
            .map_err(|e| from_port(SVC, e))?
            .send(payload, now)
            .map_err(|e| from_port(SVC, e))
    }

    /// `RECEIVE_QUEUING_MESSAGE` with zero timeout: dequeue or fail
    /// immediately with `NOT_AVAILABLE` when the port FIFO is empty.
    ///
    /// # Errors
    ///
    /// `INVALID_CONFIG`, `NOT_AVAILABLE`.
    pub fn receive_queuing_message(
        &mut self,
        registry: &mut PortRegistry,
        port: &str,
    ) -> ApexResult<Message> {
        const SVC: &str = "RECEIVE_QUEUING_MESSAGE";
        registry
            .queuing_port_mut(self.id(), port)
            .map_err(|e| from_port(SVC, e))?
            .receive()
            .map_err(|e| from_port(SVC, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::partition::{OperatingMode, Partition, StartCondition};
    use air_model::PartitionId;
    use air_ports::{ChannelConfig, Destination, PortAddr};

    fn apex(m: u32) -> ApexPartition {
        ApexPartition::new(Partition::new(PartitionId(m), format!("P{m}")))
    }

    #[test]
    fn sampling_flow_through_apex() {
        let mut reg = PortRegistry::new();
        let mut src = apex(0);
        let mut dst = apex(1);
        src.create_sampling_port(&mut reg, SamplingPortConfig::source("att", 64))
            .unwrap();
        dst.create_sampling_port(
            &mut reg,
            SamplingPortConfig::destination("att", 64, Ticks(100)),
        )
        .unwrap();
        reg.add_channel(ChannelConfig {
            id: 1,
            source: PortAddr::new(PartitionId(0), "att"),
            destinations: vec![Destination::Local(PortAddr::new(PartitionId(1), "att"))],
        })
        .unwrap();

        src.write_sampling_message(&mut reg, "att", &b"q0"[..], Ticks(10))
            .unwrap();
        reg.route(Ticks(10));
        let (msg, validity) = dst
            .read_sampling_message(&mut reg, "att", Ticks(20))
            .unwrap();
        assert_eq!(&msg.payload[..], b"q0");
        assert!(validity.is_valid());
        // Stale after the refresh period.
        let (_, validity) = dst
            .read_sampling_message(&mut reg, "att", Ticks(200))
            .unwrap();
        assert!(!validity.is_valid());
    }

    #[test]
    fn port_creation_requires_init_mode() {
        let mut reg = PortRegistry::new();
        let mut a = apex(0);
        a.set_partition_mode(OperatingMode::Normal, StartCondition::NormalStart, Ticks(0))
            .unwrap();
        assert_eq!(
            a.create_sampling_port(&mut reg, SamplingPortConfig::source("x", 8))
                .unwrap_err()
                .code,
            ReturnCode::InvalidMode
        );
        assert_eq!(
            a.create_queuing_port(&mut reg, QueuingPortConfig::source("x", 8, 2))
                .unwrap_err()
                .code,
            ReturnCode::InvalidMode
        );
    }

    #[test]
    fn queuing_full_and_empty_are_not_available() {
        let mut reg = PortRegistry::new();
        let mut a = apex(0);
        a.create_queuing_port(&mut reg, QueuingPortConfig::source("tx", 8, 1))
            .unwrap();
        a.send_queuing_message(&mut reg, "tx", &b"one"[..], Ticks(0))
            .unwrap();
        assert_eq!(
            a.send_queuing_message(&mut reg, "tx", &b"two"[..], Ticks(0))
                .unwrap_err()
                .code,
            ReturnCode::NotAvailable
        );

        let mut b = apex(1);
        b.create_queuing_port(&mut reg, QueuingPortConfig::destination("rx", 8, 1))
            .unwrap();
        assert_eq!(
            b.receive_queuing_message(&mut reg, "rx").unwrap_err().code,
            ReturnCode::NotAvailable
        );
    }

    #[test]
    fn unknown_port_is_invalid_config() {
        let mut reg = PortRegistry::new();
        let mut a = apex(0);
        assert_eq!(
            a.write_sampling_message(&mut reg, "ghost", &b"x"[..], Ticks(0))
                .unwrap_err()
                .code,
            ReturnCode::InvalidConfig
        );
    }

    #[test]
    fn ports_are_partition_scoped() {
        // P1 cannot operate P0's port of the same name.
        let mut reg = PortRegistry::new();
        let mut a = apex(0);
        let mut b = apex(1);
        a.create_queuing_port(&mut reg, QueuingPortConfig::source("tx", 8, 2))
            .unwrap();
        assert_eq!(
            b.send_queuing_message(&mut reg, "tx", &b"x"[..], Ticks(0))
                .unwrap_err()
                .code,
            ReturnCode::InvalidConfig
        );
    }
}
