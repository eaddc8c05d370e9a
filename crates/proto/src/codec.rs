//! Binary wire codec for LSU messages.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! magic    u8   = 0x4C ('L')
//! version  u8   = 1
//! flags    u8   bit0 = ACK, other bits must be 0
//! from     u32  originating router
//! count    u16  number of entries
//! entry*   { op u8, head u32, tail u32, cost f64 }  count times
//! ```
//!
//! The codec is strict: trailing bytes, bad magic/version/opcode,
//! unknown flag bits, and non-finite or negative costs are decode
//! errors (a router must never install garbage link state — robustness
//! first, per the smoltcp design ethos this workspace follows).
//! Strictness also buys a canonical encoding: any buffer that decodes
//! successfully re-encodes to exactly the same bytes, a property the
//! corruption proptests rely on.
//!
//! [`frame`]/[`unframe`] add a link-layer integrity trailer — the CRC32
//! of the encoded message appended as a `u32` — for channels that can
//! corrupt bits (the chaos harness in `mdr-sim`). A bare [`decode`]
//! rejects structurally invalid input but cannot notice a flipped cost
//! bit; the checksum catches essentially all random corruption (escape
//! probability ~2⁻³²), so corrupted LSUs are retransmitted instead of
//! poisoning neighbor topology tables.

use crate::lsu::{LsuEntry, LsuMessage, LsuOp};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mdr_net::NodeId;
use std::fmt;

const MAGIC: u8 = 0x4C;
const VERSION: u8 = 1;
const HEADER_LEN: usize = 1 + 1 + 1 + 4 + 2;
const ENTRY_LEN: usize = 1 + 4 + 4 + 8;
/// Bytes the CRC32 trailer of [`frame`] adds on top of [`encoded_len`].
pub const FRAME_TRAILER_LEN: usize = 4;

/// Codec failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the declared content.
    Truncated,
    /// Magic byte mismatch.
    BadMagic(u8),
    /// Unsupported version.
    BadVersion(u8),
    /// Flag bits outside the defined set.
    BadFlags(u8),
    /// Unknown entry opcode.
    BadOp(u8),
    /// Cost was negative, NaN, or infinite.
    BadCost,
    /// A reserved field (the cost of a `Delete` entry) carried non-zero
    /// bits.
    ReservedCost,
    /// Bytes remained after the declared entries.
    TrailingBytes(usize),
    /// Frame checksum mismatch (corrupted on the wire).
    BadChecksum,
    /// Unknown node-control message type ([`crate::wire`]).
    BadMsgType(u8),
    /// A node-control incarnation of zero (the wire reserves 0 for
    /// "never seen"; live processes count from 1).
    BadIncarnation,
    /// A node-control channel session of zero (live channels count
    /// their stream epochs from 1).
    BadSession,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated LSU"),
            DecodeError::BadMagic(b) => write!(f, "bad magic byte {b:#x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadFlags(b) => write!(f, "unknown flag bits {b:#x}"),
            DecodeError::BadOp(o) => write!(f, "unknown opcode {o}"),
            DecodeError::BadCost => write!(f, "non-finite or negative cost"),
            DecodeError::ReservedCost => {
                write!(f, "non-zero bits in a delete entry's reserved cost field")
            }
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            DecodeError::BadChecksum => write!(f, "frame checksum mismatch"),
            DecodeError::BadMsgType(t) => write!(f, "unknown node message type {t}"),
            DecodeError::BadIncarnation => {
                write!(f, "incarnation 0 is reserved for \"never seen\"")
            }
            DecodeError::BadSession => write!(f, "session 0 is reserved"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn op_code(op: LsuOp) -> u8 {
    match op {
        LsuOp::Add => 0,
        LsuOp::Change => 1,
        LsuOp::Delete => 2,
    }
}

fn op_from(code: u8) -> Result<LsuOp, DecodeError> {
    match code {
        0 => Ok(LsuOp::Add),
        1 => Ok(LsuOp::Change),
        2 => Ok(LsuOp::Delete),
        other => Err(DecodeError::BadOp(other)),
    }
}

/// Encoded size of a message in bytes (what the simulator charges on the
/// wire).
pub fn encoded_len(msg: &LsuMessage) -> usize {
    HEADER_LEN + msg.entries.len() * ENTRY_LEN
}

/// Encode a message.
pub fn encode(msg: &LsuMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    buf.put_u8(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(if msg.ack { 1 } else { 0 });
    buf.put_u32(msg.from.0);
    debug_assert!(msg.entries.len() <= u16::MAX as usize, "LSU entry count overflow");
    buf.put_u16(msg.entries.len() as u16);
    for e in &msg.entries {
        buf.put_u8(op_code(e.op));
        buf.put_u32(e.head.0);
        buf.put_u32(e.tail.0);
        if e.op == LsuOp::Delete {
            // The cost field of a delete entry is RESERVED: receivers
            // never use it, so the encoder pins it to all-zero bits
            // (and the decoder rejects anything else) — the wire format
            // cannot silently grow hidden semantics in the slot.
            assert!(e.cost.to_bits() == 0, "delete entries carry a reserved zero cost");
            buf.put_u64(0);
        } else {
            buf.put_f64(e.cost);
        }
    }
    buf.freeze()
}

/// Decode a message, consuming the whole buffer.
pub fn decode(mut buf: &[u8]) -> Result<LsuMessage, DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let magic = buf.get_u8();
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let flags = buf.get_u8();
    if flags & !1 != 0 {
        return Err(DecodeError::BadFlags(flags));
    }
    let from = NodeId(buf.get_u32());
    let count = buf.get_u16() as usize;
    if buf.remaining() < count * ENTRY_LEN {
        return Err(DecodeError::Truncated);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let op = op_from(buf.get_u8())?;
        let head = NodeId(buf.get_u32());
        let tail = NodeId(buf.get_u32());
        let cost = if op == LsuOp::Delete {
            // Reserved field: must be exactly zero bits so a buffer
            // that decodes re-encodes to the same bytes (canonicity)
            // and stray values can never drift into load-bearing ones.
            if buf.get_u64() != 0 {
                return Err(DecodeError::ReservedCost);
            }
            0.0
        } else {
            let cost = buf.get_f64();
            if !cost.is_finite() || cost < 0.0 {
                return Err(DecodeError::BadCost);
            }
            cost
        };
        entries.push(LsuEntry { op, head, tail, cost });
    }
    if buf.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(buf.remaining()));
    }
    Ok(LsuMessage { from, ack: flags & 1 != 0, entries })
}

/// CRC-32 lookup table: entry `b` is the remainder of byte `b` shifted
/// through eight rounds of the reflected polynomial.
const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), one table
/// lookup per byte. Every framed datagram is checksummed on send and
/// verified on receive.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Size of a framed message: [`encoded_len`] plus the CRC32 trailer.
pub fn framed_len(msg: &LsuMessage) -> usize {
    encoded_len(msg) + FRAME_TRAILER_LEN
}

/// Encode `msg` and append the CRC32 of the encoding (the link-layer
/// frame used on channels that can corrupt bits).
pub fn frame(msg: &LsuMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(framed_len(msg));
    buf.put_slice(&encode(msg));
    let crc = crc32(&buf);
    buf.put_u32(crc);
    buf.freeze()
}

/// Verify the CRC32 trailer and decode the payload. Corruption anywhere
/// in the frame — payload or trailer — yields [`DecodeError::BadChecksum`]
/// (or [`DecodeError::Truncated`] when even the trailer is cut short).
pub fn unframe(buf: &[u8]) -> Result<LsuMessage, DecodeError> {
    if buf.len() < HEADER_LEN + FRAME_TRAILER_LEN {
        return Err(DecodeError::Truncated);
    }
    let (payload, trailer) = buf.split_at(buf.len() - FRAME_TRAILER_LEN);
    let want = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(payload) != want {
        return Err(DecodeError::BadChecksum);
    }
    decode(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LsuMessage {
        LsuMessage {
            from: NodeId(7),
            ack: true,
            entries: vec![
                LsuEntry::add(NodeId(1), NodeId(2), 0.125),
                LsuEntry::change(NodeId(2), NodeId(3), 3.5),
                LsuEntry::delete(NodeId(3), NodeId(4)),
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = encode(&m);
        assert_eq!(bytes.len(), encoded_len(&m));
        let back = decode(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn ack_only_roundtrip() {
        let m = LsuMessage::ack_only(NodeId(0));
        let back = decode(&encode(&m)).unwrap();
        assert_eq!(back, m);
        assert_eq!(encoded_len(&m), 9);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = encode(&sample()).to_vec();
        b[0] = 0xFF;
        assert_eq!(decode(&b), Err(DecodeError::BadMagic(0xFF)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut b = encode(&sample()).to_vec();
        b[1] = 9;
        assert_eq!(decode(&b), Err(DecodeError::BadVersion(9)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let b = encode(&sample()).to_vec();
        for cut in 0..b.len() {
            let r = decode(&b[..cut]);
            assert!(r.is_err(), "decode succeeded on {cut}-byte prefix");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut b = encode(&sample()).to_vec();
        b.push(0);
        assert_eq!(decode(&b), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn rejects_bad_opcode() {
        let mut b = encode(&sample()).to_vec();
        // First entry op byte is right after the 9-byte header.
        b[9] = 42;
        assert_eq!(decode(&b), Err(DecodeError::BadOp(42)));
    }

    #[test]
    fn rejects_nan_cost() {
        let m = LsuMessage::update(NodeId(0), vec![LsuEntry::add(NodeId(0), NodeId(1), f64::NAN)]);
        let b = encode(&m);
        assert_eq!(decode(&b), Err(DecodeError::BadCost));
    }

    #[test]
    fn rejects_negative_cost() {
        let m = LsuMessage::update(NodeId(0), vec![LsuEntry::add(NodeId(0), NodeId(1), -1.0)]);
        assert_eq!(decode(&encode(&m)), Err(DecodeError::BadCost));
    }

    #[test]
    fn rejects_unknown_flag_bits() {
        let mut b = encode(&sample()).to_vec();
        b[2] |= 0x82;
        assert_eq!(decode(&b), Err(DecodeError::BadFlags(0x83)));
    }

    #[test]
    fn delete_reserved_cost_rejected_when_nonzero() {
        // A delete entry whose reserved cost field carries non-zero
        // bits must be refused, not silently zeroed: the field stays
        // dead on the wire.
        let m = LsuMessage::update(NodeId(0), vec![LsuEntry::delete(NodeId(1), NodeId(2))]);
        let mut b = encode(&m).to_vec();
        // Entry layout after the 9-byte header: op(1) head(4) tail(4) cost(8).
        let cost_off = 9 + 1 + 4 + 4;
        assert!(b[cost_off..cost_off + 8].iter().all(|&x| x == 0));
        b[cost_off + 7] = 1;
        assert_eq!(decode(&b), Err(DecodeError::ReservedCost));
    }

    #[test]
    #[should_panic(expected = "reserved zero cost")]
    fn encoding_nonzero_delete_cost_is_a_bug() {
        let m = LsuMessage::update(
            NodeId(0),
            vec![LsuEntry { op: LsuOp::Delete, head: NodeId(1), tail: NodeId(2), cost: 3.0 }],
        );
        let _ = encode(&m);
    }

    /// The bitwise definition the table is built from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        #[test]
        fn crc32_table_matches_bitwise(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..512),
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_len() {
        let m = sample();
        let f = frame(&m);
        assert_eq!(f.len(), framed_len(&m));
        assert_eq!(f.len(), encoded_len(&m) + FRAME_TRAILER_LEN);
        assert_eq!(unframe(&f).unwrap(), m);
    }

    #[test]
    fn unframe_rejects_any_single_bit_flip() {
        let f = frame(&sample()).to_vec();
        for byte in 0..f.len() {
            for bit in 0..8 {
                let mut b = f.clone();
                b[byte] ^= 1 << bit;
                assert!(unframe(&b).is_err(), "bit flip at byte {byte} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn unframe_rejects_truncation_everywhere() {
        let f = frame(&sample()).to_vec();
        for cut in 0..f.len() {
            assert!(unframe(&f[..cut]).is_err(), "unframe succeeded on {cut}-byte prefix");
        }
    }

    #[test]
    fn display_of_errors() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadOp(3).to_string().contains('3'));
        assert!(DecodeError::BadChecksum.to_string().contains("checksum"));
        assert!(DecodeError::BadFlags(2).to_string().contains("flag"));
    }
}
