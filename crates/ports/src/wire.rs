//! Wire format for interpartition messages crossing the inter-node link.
//!
//! Remote channel destinations receive their messages as frames over the
//! communication infrastructure (Sect. 2.1). The format is deliberately
//! simple and self-checking: a magic, the channel identifier, the source
//! write timestamp, a link sequence number, the payload, and a checksum —
//! enough for the PMK to uphold "message delivery guarantees" (detect
//! truncation/corruption/loss and re-route to health monitoring rather
//! than deliver garbage). The sequence number lets a receiver notice
//! silently dropped frames: senders that opt into sequencing stamp frames
//! 1, 2, 3, … per link, and a gap in the stream means loss in transit.
//! Sequence 0 marks an unsequenced frame (legacy senders), which receivers
//! exempt from gap tracking.

use crate::payload::Payload;

use air_model::Ticks;

/// Frame magic: "AI".
const MAGIC: [u8; 2] = *b"AI";
/// Fixed header length:
/// magic(2) + channel(4) + written_at(8) + link_seq(8) + len(4).
const HEADER_LEN: usize = 26;

/// The channel id reserved for transport acknowledgements. No real
/// channel may use it; the ARQ layer stamps its cumulative ACK into
/// `link_seq` of a frame on this channel.
pub const ACK_CHANNEL: u32 = u32::MAX;

/// What a frame carries: application data or a transport acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A routed interpartition message.
    Data,
    /// A cumulative ARQ acknowledgement ([`ACK_CHANNEL`]).
    Ack,
}

/// A decoded link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The channel this frame belongs to.
    pub channel: u32,
    /// Source-side write instant.
    pub written_at: Ticks,
    /// Per-link sequence number; 0 means unsequenced.
    pub link_seq: u64,
    /// The message payload.
    pub payload: Payload,
}

/// Frame decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The buffer is shorter than a frame header.
    Truncated,
    /// The magic bytes do not match.
    BadMagic,
    /// The length field disagrees with the buffer size.
    LengthMismatch,
    /// The checksum does not verify.
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::Truncated => "frame shorter than its header",
            FrameError::BadMagic => "bad frame magic",
            FrameError::LengthMismatch => "frame length field mismatch",
            FrameError::BadChecksum => "frame checksum mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FrameError {}

/// Bytes summed between two reductions of the checksum sums mod 255.
/// Entering a block both sums are below 255, so after `n` bytes `b` is
/// below 255·(n + 1)·(n + 2)/2: about 2^31 for this block, far inside
/// `u64`.
const CHECKSUM_BLOCK: usize = 4096;

/// Fletcher-16 checksum over the header (sans checksum) and payload.
///
/// Both sums are kept in `u64` and reduced mod 255 once per
/// [`CHECKSUM_BLOCK`] bytes instead of after every byte: congruent sums
/// reduce to the same residues, so the result is the per-byte one.
fn checksum(bytes: &[u8]) -> u16 {
    let (mut a, mut b) = (0u64, 0u64);
    for block in bytes.chunks(CHECKSUM_BLOCK) {
        for &x in block {
            a += u64::from(x);
            b += a;
        }
        a %= 255;
        b %= 255;
    }
    ((b as u16) << 8) | a as u16
}

impl Frame {
    /// Creates an unsequenced frame (`link_seq` 0).
    pub fn new(channel: u32, written_at: Ticks, payload: impl Into<Payload>) -> Self {
        Self {
            channel,
            written_at,
            link_seq: 0,
            payload: payload.into(),
        }
    }

    /// Stamps the frame with a per-link sequence number (must be non-zero
    /// to take part in gap detection).
    #[must_use]
    pub fn with_link_seq(mut self, link_seq: u64) -> Self {
        self.link_seq = link_seq;
        self
    }

    /// Creates a cumulative acknowledgement frame: "every sequence up to
    /// and including `up_to` arrived". Carried on [`ACK_CHANNEL`] with an
    /// empty payload; `link_seq` holds the acknowledged sequence.
    pub fn ack(up_to: u64, now: Ticks) -> Self {
        Self {
            channel: ACK_CHANNEL,
            written_at: now,
            link_seq: up_to,
            payload: Payload::default(),
        }
    }

    /// Whether this frame is a transport acknowledgement.
    pub fn is_ack(&self) -> bool {
        self.channel == ACK_CHANNEL
    }

    /// The frame's kind (data vs. transport acknowledgement).
    pub fn kind(&self) -> FrameKind {
        if self.is_ack() {
            FrameKind::Ack
        } else {
            FrameKind::Data
        }
    }

    /// Encodes the frame into link bytes.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(self.channel, self.written_at, self.link_seq, &self.payload)
    }

    /// Encodes a frame from its parts, reading the payload straight from
    /// `payload`: the same bytes as building the [`Frame`] and calling
    /// [`encode`](Frame::encode), without first copying the payload into
    /// a [`Payload`]. The link bytes are the one allocation.
    pub fn encode_parts(channel: u32, written_at: Ticks, link_seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 2);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&channel.to_be_bytes());
        out.extend_from_slice(&written_at.as_u64().to_be_bytes());
        out.extend_from_slice(&link_seq.to_be_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
        let ck = checksum(&out);
        out.extend_from_slice(&ck.to_be_bytes());
        out
    }

    /// Decodes link bytes into a frame.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on truncation, bad magic, length disagreement or a
    /// failed checksum.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < HEADER_LEN + 2 {
            return Err(FrameError::Truncated);
        }
        if bytes[0..2] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let channel = u32::from_be_bytes(field(bytes, 2)?);
        let written_at = u64::from_be_bytes(field(bytes, 6)?);
        let link_seq = u64::from_be_bytes(field(bytes, 14)?);
        let len = u32::from_be_bytes(field(bytes, 22)?) as usize;
        if bytes.len() != HEADER_LEN + len + 2 {
            return Err(FrameError::LengthMismatch);
        }
        let body_end = HEADER_LEN + len;
        let expected = u16::from_be_bytes(field(bytes, body_end)?);
        if checksum(&bytes[..body_end]) != expected {
            return Err(FrameError::BadChecksum);
        }
        Ok(Frame {
            channel,
            written_at: Ticks(written_at),
            link_seq,
            payload: Payload::copy_from_slice(&bytes[HEADER_LEN..body_end]),
        })
    }
}

/// The `N` bytes of `bytes` at `at`; [`FrameError::Truncated`] when they
/// run past the end, so no length slip can panic the decode.
fn field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], FrameError> {
    bytes
        .get(at..at.saturating_add(N))
        .and_then(|slice| slice.try_into().ok())
        .ok_or(FrameError::Truncated)
}

/// Whether raw link bytes look like an encoded acknowledgement frame,
/// without a full decode: correct magic and the [`ACK_CHANNEL`] id. Used
/// by fault injection to destroy ACKs specifically (the hardware layer
/// takes this as an opaque predicate).
pub fn bytes_look_like_ack(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN && bytes[0..2] == MAGIC && bytes[2..6] == [0xFF; 4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = Frame::new(7, Ticks(1300), &b"attitude"[..]);
        let encoded = f.encode();
        assert_eq!(Frame::decode(&encoded).unwrap(), f);
    }

    #[test]
    fn sequenced_roundtrip() {
        let f = Frame::new(7, Ticks(1300), &b"attitude"[..]).with_link_seq(42);
        let decoded = Frame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
        assert_eq!(decoded.link_seq, 42);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = Frame::new(0, Ticks(0), Payload::default());
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn corruption_detected() {
        let mut encoded = Frame::new(1, Ticks(5), &b"data"[..]).encode();
        let mid = HEADER_LEN; // first payload byte
        encoded[mid] ^= 0xff;
        assert_eq!(Frame::decode(&encoded), Err(FrameError::BadChecksum));
    }

    #[test]
    fn truncation_detected() {
        let encoded = Frame::new(1, Ticks(5), &b"data"[..]).encode();
        assert_eq!(
            Frame::decode(&encoded[..encoded.len() - 1]),
            Err(FrameError::LengthMismatch)
        );
        assert_eq!(Frame::decode(&encoded[..4]), Err(FrameError::Truncated));
    }

    #[test]
    fn bad_magic_detected() {
        let mut encoded = Frame::new(1, Ticks(5), &b"data"[..]).encode();
        encoded[0] = b'X';
        assert_eq!(Frame::decode(&encoded), Err(FrameError::BadMagic));
    }

    #[test]
    fn ack_frames_roundtrip_and_classify() {
        let ack = Frame::ack(17, Ticks(40));
        assert!(ack.is_ack());
        assert_eq!(ack.kind(), FrameKind::Ack);
        let encoded = ack.encode();
        assert!(bytes_look_like_ack(&encoded));
        let decoded = Frame::decode(&encoded).unwrap();
        assert_eq!(decoded.link_seq, 17);
        assert_eq!(decoded.channel, ACK_CHANNEL);

        let data = Frame::new(3, Ticks(40), &b"x"[..]);
        assert_eq!(data.kind(), FrameKind::Data);
        assert!(!bytes_look_like_ack(&data.encode()));
        assert!(!bytes_look_like_ack(b"AI"), "too short");
    }

    mod prop {
        use super::*;
        use air_model::testkit::TestRng;

        fn random_payload(rng: &mut TestRng, max_len: u64) -> Vec<u8> {
            (0..rng.below(max_len))
                .map(|_| rng.below(256) as u8)
                .collect()
        }

        #[test]
        fn any_frame_roundtrips() {
            let mut rng = TestRng::new(0xF8A3);
            for case in 0..256 {
                let channel = rng.next_u64() as u32;
                let at = rng.next_u64();
                let payload = random_payload(&mut rng, 512);
                let f = Frame::new(channel, Ticks(at), payload);
                assert_eq!(
                    Frame::decode(&f.encode()).unwrap(),
                    f,
                    "case {case}: seed 0xF8A3"
                );
            }
        }

        #[test]
        fn any_byte_string_decodes_without_panicking() {
            // Every cut of a valid frame, and random bytes behind a valid
            // magic with a random length field: each decode returns.
            let mut rng = TestRng::new(0xDEC0);
            let encoded = Frame::new(5, Ticks(3), &b"cut me"[..]).encode();
            for cut in 0..=encoded.len() {
                let got = Frame::decode(&encoded[..cut]);
                assert_eq!(got.is_ok(), cut == encoded.len(), "cut at {cut}");
            }
            for case in 0..512 {
                let mut bytes = random_payload(&mut rng, 64);
                if bytes.len() >= 2 {
                    bytes[..2].copy_from_slice(&MAGIC);
                }
                assert!(
                    Frame::decode(&bytes).is_err() || bytes.len() >= HEADER_LEN + 2,
                    "case {case}: seed 0xDEC0"
                );
            }
        }

        /// Fletcher-16 as specified: both sums reduced after every byte.
        fn checksum_per_byte(bytes: &[u8]) -> u16 {
            let (mut a, mut b) = (0u16, 0u16);
            for &x in bytes {
                a = (a + u16::from(x)) % 255;
                b = (b + a) % 255;
            }
            (b << 8) | a
        }

        #[test]
        fn block_reduced_checksum_equals_the_per_byte_one() {
            let mut rng = TestRng::new(0xF1E7);
            for case in 0..48 {
                let len = if case == 0 { 0 } else { rng.below(20_001) };
                let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                assert_eq!(
                    checksum(&bytes),
                    checksum_per_byte(&bytes),
                    "case {case}: seed 0xF1E7, {len} bytes"
                );
            }
            // All-0xFF strings make both sums grow fastest: at, just under
            // and just over one and two blocks.
            let block = CHECKSUM_BLOCK;
            for len in [
                1,
                block - 1,
                block,
                block + 1,
                2 * block - 1,
                2 * block,
                2 * block + 1,
            ] {
                let bytes = vec![0xFF; len];
                assert_eq!(checksum(&bytes), checksum_per_byte(&bytes), "{len} x 0xFF");
            }
        }

        #[test]
        fn single_bitflips_never_pass() {
            let mut rng = TestRng::new(0xB17F);
            for case in 0..256 {
                let mut payload = random_payload(&mut rng, 64);
                if payload.is_empty() {
                    payload.push(0);
                }
                let f = Frame::new(3, Ticks(9), payload);
                let mut encoded = f.encode();
                let idx = rng.below_usize(encoded.len());
                encoded[idx] ^= 1 << rng.below(8);
                // Either an error, or (if the flip hit nothing semantic,
                // impossible here since every byte is covered) equality.
                assert_ne!(
                    Frame::decode(&encoded),
                    Ok(f),
                    "case {case}: seed 0xB17F, flipped byte {idx}"
                );
            }
        }
    }
}
