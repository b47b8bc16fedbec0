//! CCSDS-flavoured space packets for the routed mesh.
//!
//! Frames on a single hop are [`crate::wire::Frame`]s under go-back-N
//! ARQ; what rides *inside* those frames across the mesh is a space
//! packet: an application identifier (APID), a telecommand/telemetry
//! discriminator, a 14-bit source sequence count, and a routing
//! secondary header (source node, destination node, time-to-live,
//! PUS-style service/subservice). The layout follows the CCSDS 133.0-B
//! primary-header shape — version/type/APID, sequence flags/count,
//! length — so the encoding is recognisable, but it is a reproduction
//! artefact, not a conformant implementation.

/// Highest assignable APID (11 bits, `0x7FF` is the CCSDS idle APID).
pub const APID_MAX: u16 = 0x7FE;

/// Highest sequence count (14 bits); counts wrap modulo this + 1.
pub const SEQ_MAX: u16 = 0x3FFF;

/// Encoded size of the CCSDS-style primary header alone.
pub const PRIMARY_HEADER_LEN: usize = 6;

/// Encoded size of the primary + routing secondary header.
pub const HEADER_LEN: usize = 13;

/// Telecommand or telemetry: the CCSDS packet-type flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PacketKind {
    /// Telecommand — ground (or a commanding node) to an executor.
    Tc,
    /// Telemetry — an executor back toward the ground node.
    Tm,
}

impl std::fmt::Display for PacketKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketKind::Tc => write!(f, "tc"),
            PacketKind::Tm => write!(f, "tm"),
        }
    }
}

/// Why a byte string failed to decode as a space packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpacePacketError {
    /// Fewer bytes than the 6-byte primary header.
    TooShort {
        /// Bytes actually available.
        len: usize,
    },
    /// A complete primary header, but the routing secondary header is
    /// cut off — a distinct condition from [`SpacePacketError::TooShort`]
    /// because the primary header is intact enough to name the APID the
    /// malformed packet claimed, which matters for fault attribution.
    TruncatedSecondaryHeader {
        /// Bytes actually available (`>= PRIMARY_HEADER_LEN`, `< HEADER_LEN`).
        len: usize,
        /// The APID the intact primary header declares.
        apid: u16,
    },
    /// The version field was not the supported version (0).
    BadVersion {
        /// The version observed.
        version: u8,
    },
    /// The declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Payload length the header declares.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// An APID above [`APID_MAX`] was requested at construction.
    ApidOutOfRange {
        /// The offending APID.
        apid: u16,
    },
}

impl std::fmt::Display for SpacePacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpacePacketError::TooShort { len } => {
                write!(
                    f,
                    "space packet too short: {len} bytes < {PRIMARY_HEADER_LEN}-byte primary header"
                )
            }
            SpacePacketError::TruncatedSecondaryHeader { len, apid } => {
                write!(
                    f,
                    "space packet for APID {apid} truncates its routing secondary header: \
                     {len} bytes < {HEADER_LEN}"
                )
            }
            SpacePacketError::BadVersion { version } => {
                write!(f, "unsupported space packet version {version}")
            }
            SpacePacketError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "space packet declares {declared} payload bytes, found {actual}"
                )
            }
            SpacePacketError::ApidOutOfRange { apid } => {
                write!(f, "APID {apid} exceeds the 11-bit maximum {APID_MAX}")
            }
        }
    }
}

/// One routed application packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpacePacket {
    /// Application process identifier (11 bits).
    pub apid: u16,
    /// Telecommand or telemetry.
    pub kind: PacketKind,
    /// Source sequence count (14 bits), per originating APID stream.
    pub seq: u16,
    /// Originating mesh node.
    pub src: u16,
    /// Destination mesh node.
    pub dst: u16,
    /// Remaining hop budget; decremented at every forward.
    pub ttl: u8,
    /// PUS-style service type (1 = verification, 5 = events).
    pub service: u8,
    /// PUS-style service subtype.
    pub subservice: u8,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

impl SpacePacket {
    /// A packet with the given header fields, or an error for an APID
    /// above the 11-bit range.
    #[allow(clippy::too_many_arguments)] // mirrors the wire header 1:1
    pub fn new(
        apid: u16,
        kind: PacketKind,
        seq: u16,
        src: u16,
        dst: u16,
        ttl: u8,
        service: u8,
        subservice: u8,
        payload: Vec<u8>,
    ) -> Result<Self, SpacePacketError> {
        if apid > APID_MAX {
            return Err(SpacePacketError::ApidOutOfRange { apid });
        }
        Ok(Self {
            apid,
            kind,
            seq: seq & SEQ_MAX,
            src,
            dst,
            ttl,
            service,
            subservice,
            payload,
        })
    }

    /// Serialises the packet: 6-byte CCSDS-style primary header
    /// (version 0 | type | secondary-header flag | APID; sequence flags
    /// `0b11` (unsegmented) | count; payload length), then the 7-byte
    /// routing secondary header (src, dst, ttl, service, subservice),
    /// then the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        let type_flag: u16 = match self.kind {
            PacketKind::Tc => 1,
            PacketKind::Tm => 0,
        };
        // version 0 (3 bits) | type (1) | sec-hdr present (1) | apid (11).
        let word0: u16 = (type_flag << 12) | (1 << 11) | (self.apid & 0x7FF);
        // sequence flags 0b11 = unsegmented (2 bits) | count (14).
        let word1: u16 = (0b11 << 14) | (self.seq & SEQ_MAX);
        let len: u16 = u16::try_from(self.payload.len()).unwrap_or(u16::MAX);
        out.extend_from_slice(&word0.to_be_bytes());
        out.extend_from_slice(&word1.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&self.src.to_be_bytes());
        out.extend_from_slice(&self.dst.to_be_bytes());
        out.push(self.ttl);
        out.push(self.service);
        out.push(self.subservice);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a packet, validating version and declared length.
    pub fn decode(bytes: &[u8]) -> Result<Self, SpacePacketError> {
        if bytes.len() < PRIMARY_HEADER_LEN {
            return Err(SpacePacketError::TooShort { len: bytes.len() });
        }
        let word0 = u16::from_be_bytes([bytes[0], bytes[1]]);
        let version = (word0 >> 13) as u8;
        if version != 0 {
            return Err(SpacePacketError::BadVersion { version });
        }
        let kind = if word0 & (1 << 12) != 0 {
            PacketKind::Tc
        } else {
            PacketKind::Tm
        };
        let apid = word0 & 0x7FF;
        if bytes.len() < HEADER_LEN {
            return Err(SpacePacketError::TruncatedSecondaryHeader {
                len: bytes.len(),
                apid,
            });
        }
        let word1 = u16::from_be_bytes([bytes[2], bytes[3]]);
        let seq = word1 & SEQ_MAX;
        let declared = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        let actual = bytes.len() - HEADER_LEN;
        if declared != actual {
            return Err(SpacePacketError::LengthMismatch { declared, actual });
        }
        Ok(Self {
            apid,
            kind,
            seq,
            src: u16::from_be_bytes([bytes[6], bytes[7]]),
            dst: u16::from_be_bytes([bytes[8], bytes[9]]),
            ttl: bytes[10],
            service: bytes[11],
            subservice: bytes[12],
            payload: bytes[HEADER_LEN..].to_vec(),
        })
    }

    /// The next 14-bit sequence count after `seq`, wrapping.
    pub fn next_seq(seq: u16) -> u16 {
        (seq + 1) & SEQ_MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpacePacket {
        SpacePacket::new(0x123, PacketKind::Tc, 7, 0, 4, 8, 1, 1, b"go".to_vec())
            .expect("valid packet")
    }

    #[test]
    fn round_trips() {
        let p = sample();
        let bytes = p.encode();
        assert_eq!(SpacePacket::decode(&bytes), Ok(p));
    }

    #[test]
    fn tm_round_trips() {
        let p = SpacePacket::new(0x200, PacketKind::Tm, SEQ_MAX, 4, 0, 1, 5, 2, vec![9; 40])
            .expect("valid packet");
        let bytes = p.encode();
        let back = SpacePacket::decode(&bytes).expect("decodes");
        assert_eq!(back.kind, PacketKind::Tm);
        assert_eq!(back.seq, SEQ_MAX);
        assert_eq!(back, p);
    }

    #[test]
    fn rejects_short_and_truncated() {
        assert_eq!(
            SpacePacket::decode(&[0; 3]),
            Err(SpacePacketError::TooShort { len: 3 })
        );
        let mut bytes = sample().encode();
        bytes.pop();
        assert_eq!(
            SpacePacket::decode(&bytes),
            Err(SpacePacketError::LengthMismatch {
                declared: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn truncated_secondary_header_is_typed_and_names_the_apid() {
        let bytes = sample().encode();
        for len in PRIMARY_HEADER_LEN..HEADER_LEN {
            assert_eq!(
                SpacePacket::decode(&bytes[..len]),
                Err(SpacePacketError::TruncatedSecondaryHeader { len, apid: 0x123 }),
                "prefix of {len} bytes"
            );
        }
        for len in 0..PRIMARY_HEADER_LEN {
            assert_eq!(
                SpacePacket::decode(&bytes[..len]),
                Err(SpacePacketError::TooShort { len }),
                "prefix of {len} bytes"
            );
        }
    }

    #[test]
    fn truncation_errors_partition_every_prefix_length() {
        // Property: for any valid packet, every strict prefix of its
        // encoding decodes to exactly one typed truncation error, and the
        // boundary between the two families sits at the primary-header
        // edge. Seeded xorshift packet generator, 64 cases.
        let mut state = 0x5EED_CAFE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..64 {
            let apid = (next() as u16) & 0x7FF & APID_MAX;
            let kind = if next() & 1 == 0 {
                PacketKind::Tc
            } else {
                PacketKind::Tm
            };
            let payload_len = (next() as usize) % 32;
            let payload: Vec<u8> = (0..payload_len).map(|_| next() as u8).collect();
            let p = SpacePacket::new(
                apid.min(APID_MAX),
                kind,
                next() as u16,
                next() as u16,
                next() as u16,
                next() as u8,
                next() as u8,
                next() as u8,
                payload,
            )
            .expect("generated packet in range");
            let bytes = p.encode();
            assert_eq!(SpacePacket::decode(&bytes).as_ref(), Ok(&p), "case {case}");
            for len in 0..bytes.len() {
                match SpacePacket::decode(&bytes[..len]) {
                    Err(SpacePacketError::TooShort { len: l }) => {
                        assert_eq!(l, len);
                        assert!(len < PRIMARY_HEADER_LEN, "case {case} len {len}");
                    }
                    Err(SpacePacketError::TruncatedSecondaryHeader { len: l, apid: a }) => {
                        assert_eq!(l, len);
                        assert_eq!(a, p.apid, "case {case} len {len}");
                        assert!(
                            (PRIMARY_HEADER_LEN..HEADER_LEN).contains(&len),
                            "case {case} len {len}"
                        );
                    }
                    Err(SpacePacketError::LengthMismatch { declared, actual }) => {
                        assert_eq!(declared, p.payload.len());
                        assert_eq!(actual, len - HEADER_LEN);
                        assert!(len >= HEADER_LEN, "case {case} len {len}");
                    }
                    other => panic!("case {case} len {len}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_bad_version_and_wide_apid() {
        let mut bytes = sample().encode();
        bytes[0] |= 0b1000_0000; // raise a version bit
        assert!(matches!(
            SpacePacket::decode(&bytes),
            Err(SpacePacketError::BadVersion { .. })
        ));
        assert_eq!(
            SpacePacket::new(0x7FF, PacketKind::Tc, 0, 0, 1, 1, 0, 0, vec![]),
            Err(SpacePacketError::ApidOutOfRange { apid: 0x7FF })
        );
    }

    #[test]
    fn seq_wraps_at_14_bits() {
        assert_eq!(SpacePacket::next_seq(5), 6);
        assert_eq!(SpacePacket::next_seq(SEQ_MAX), 0);
    }
}
