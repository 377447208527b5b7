//! The NACU length-prefixed binary batch protocol.
//!
//! Every frame on the wire is a little-endian `u32` length prefix (the
//! byte count of the remainder) followed by the payload. Request payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic            "NACU" (0x5543414E little-endian)
//!      4     1  version          1
//!      5     1  function         0 σ · 1 tanh · 2 exp · 3 softmax
//!      6     1  int_bits         operand format tag (Qm.f)
//!      7     1  frac_bits
//!      8     8  request id       client-chosen, echoed on the reply
//!     16     8  deadline µs      relative to arrival; 0 = no deadline
//!     24     4  count            operand count n (≥ 1)
//!     28    2n  codes            raw two's-complement i16 fixed codes
//! ```
//!
//! Reply payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic
//!      4     1  version
//!      5     1  status           0 OK · 1 BUSY · 2 SHED · 3 QUOTA · 4 ERROR
//!      6     1  code             detail (see [`code`]); 0 when unused
//!      7     1  reserved         always 0
//!      8     8  request id       echoed from the request
//!     16     4  count            output count (0 unless status is OK)
//!     20    2n  codes
//! ```
//!
//! Decoding never panics: every malformed byte sequence maps onto a
//! [`DecodeError`] variant, and framing problems at the socket layer map
//! onto [`ReadError`]. Replies to pipelined requests may arrive in any
//! order; the echoed request id is the correlation key.

use std::io::Read;

use nacu::Function;
use nacu_fixed::{Fx, QFormat};

/// `"NACU"` interpreted as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"NACU");
/// The only protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Request payload bytes before the operand codes.
pub const REQUEST_HEADER_LEN: usize = 28;
/// Reply payload bytes before the output codes.
pub const REPLY_HEADER_LEN: usize = 20;

/// Reply status byte: the admission-control outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Served; the payload carries the output codes.
    Ok = 0,
    /// The engine's bounded queue was full — backpressure, retry later.
    /// Nothing was enqueued and the connection stays open.
    Busy = 1,
    /// Load-shed: the deadline had already passed, or the modeled
    /// hardware floor for the batch exceeds the remaining budget.
    Shed = 2,
    /// The per-client token bucket refused the request.
    Quota = 3,
    /// The request failed; the `code` byte says why (see [`code`]).
    Error = 4,
}

impl Status {
    /// Parses a status byte.
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Self::Ok),
            1 => Some(Self::Busy),
            2 => Some(Self::Shed),
            3 => Some(Self::Quota),
            4 => Some(Self::Error),
            _ => None,
        }
    }
}

/// Detail codes carried in an ERROR reply's `code` byte.
pub mod code {
    /// No detail (non-ERROR statuses).
    pub const NONE: u8 = 0;
    /// The engine rejected the request as unservable (bad function for
    /// this build, operand format mismatch, empty batch).
    pub const INVALID_REQUEST: u8 = 1;
    /// The engine is shutting down; no new work is accepted.
    pub const SHUTTING_DOWN: u8 = 2;
    /// Every serving attempt hit a fault detector; no output was sent.
    pub const FAULT: u8 = 3;
    /// The previous frame on this connection was malformed; the server
    /// answers with this code (request id 0) and closes the connection.
    pub const PROTOCOL: u8 = 4;
    /// The engine failed for an unclassified internal reason.
    pub const INTERNAL: u8 = 5;
}

/// One decoded request frame (the payload after the length prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// The function to evaluate over the codes.
    pub function: Function,
    /// The fixed-point format the codes are expressed in. Servers reject
    /// formats other than the engine's own with an ERROR reply.
    pub format: QFormat,
    /// Client-chosen correlation id, echoed verbatim on the reply.
    pub id: u64,
    /// Deadline in microseconds relative to frame arrival; 0 = none.
    pub deadline_micros: u64,
    /// Raw two's-complement codes in `format`.
    pub codes: Vec<i16>,
}

impl RequestFrame {
    /// The codes as checked fixed-point values.
    ///
    /// # Errors
    ///
    /// [`DecodeError::CodeOutOfRange`] when a code does not fit the
    /// frame's format (possible for formats narrower than 16 bits).
    pub fn operands(&self) -> Result<Vec<Fx>, DecodeError> {
        self.codes
            .iter()
            .enumerate()
            .map(|(index, &code)| {
                Fx::from_raw(i64::from(code), self.format)
                    .map_err(|_| DecodeError::CodeOutOfRange { index, code })
            })
            .collect()
    }
}

/// One decoded reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyFrame {
    /// Outcome of the request.
    pub status: Status,
    /// Detail code (see [`code`]); 0 unless `status` is ERROR.
    pub code: u8,
    /// The request id this reply answers.
    pub id: u64,
    /// Output codes; empty unless `status` is OK.
    pub codes: Vec<i16>,
}

impl ReplyFrame {
    /// A no-payload reply (everything except OK).
    #[must_use]
    pub fn control(status: Status, code: u8, id: u64) -> Self {
        Self {
            status,
            code,
            id,
            codes: Vec::new(),
        }
    }

    /// The output codes as fixed-point values in `format`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::CodeOutOfRange`] when a code does not fit `format`.
    pub fn outputs(&self, format: QFormat) -> Result<Vec<Fx>, DecodeError> {
        self.codes
            .iter()
            .enumerate()
            .map(|(index, &code)| {
                Fx::from_raw(i64::from(code), format)
                    .map_err(|_| DecodeError::CodeOutOfRange { index, code })
            })
            .collect()
    }
}

/// Why a payload failed to decode. Exhaustive: every malformed byte
/// sequence lands here, never in a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the fixed header.
    Truncated {
        /// Bytes the header needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The magic field was not `"NACU"`.
    BadMagic(u32),
    /// A version this build does not speak.
    BadVersion(u8),
    /// An unknown function id.
    BadFunction(u8),
    /// An unknown status byte (reply decode).
    BadStatus(u8),
    /// A format tag [`QFormat::new`] rejects.
    BadFormat {
        /// Declared integer bits.
        int_bits: u8,
        /// Declared fraction bits.
        frac_bits: u8,
    },
    /// The declared count disagrees with the payload length.
    LengthMismatch {
        /// Payload bytes the declared count requires.
        required: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// A request carried zero operands.
    EmptyBatch,
    /// The operand count exceeds the receiver's per-frame bound.
    Oversize {
        /// Declared operand count.
        count: u32,
        /// The receiver's limit.
        max: u32,
    },
    /// A code does not fit the frame's fixed-point format.
    CodeOutOfRange {
        /// Index of the offending code.
        index: usize,
        /// The code itself.
        code: i16,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(
                    f,
                    "payload truncated: header needs {needed} bytes, got {got}"
                )
            }
            Self::BadMagic(m) => write!(f, "bad magic {m:#010x} (want \"NACU\")"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::BadFunction(id) => write!(f, "unknown function id {id}"),
            Self::BadStatus(s) => write!(f, "unknown status byte {s}"),
            Self::BadFormat {
                int_bits,
                frac_bits,
            } => write!(f, "invalid format tag Q{int_bits}.{frac_bits}"),
            Self::LengthMismatch { required, got } => {
                write!(
                    f,
                    "length mismatch: count requires {required} bytes, got {got}"
                )
            }
            Self::EmptyBatch => write!(f, "request carries zero operands"),
            Self::Oversize { count, max } => {
                write!(f, "operand count {count} exceeds the per-frame limit {max}")
            }
            Self::CodeOutOfRange { index, code } => {
                write!(f, "code {code} at index {index} does not fit the format")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why reading a length-prefixed frame off a stream failed.
#[derive(Debug)]
pub enum ReadError {
    /// The stream died mid-frame (after the length prefix started).
    TruncatedFrame {
        /// Bytes the frame declared.
        declared: usize,
        /// Bytes received before EOF.
        got: usize,
    },
    /// The declared payload length exceeds the receiver's bound — never
    /// allocated, the connection should be dropped.
    Oversize {
        /// Declared payload length.
        declared: u32,
        /// The receiver's limit.
        max: u32,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TruncatedFrame { declared, got } => {
                write!(
                    f,
                    "stream ended mid-frame: declared {declared} bytes, got {got}"
                )
            }
            Self::Oversize { declared, max } => {
                write!(
                    f,
                    "declared payload {declared} exceeds the {max}-byte limit"
                )
            }
            Self::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

fn u32_at(payload: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"))
}

fn codes_at(payload: &[u8], at: usize, count: usize) -> Vec<i16> {
    (0..count)
        .map(|i| {
            let o = at + 2 * i;
            i16::from_le_bytes([payload[o], payload[o + 1]])
        })
        .collect()
}

fn push_codes(out: &mut Vec<u8>, codes: &[i16]) {
    for &code in codes {
        out.extend_from_slice(&code.to_le_bytes());
    }
}

/// Serialises a request frame, length prefix included.
#[must_use]
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    let payload_len = REQUEST_HEADER_LEN + 2 * frame.codes.len();
    let mut out = Vec::with_capacity(4 + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(frame.function.id().expect("servable function"));
    out.push(frame.format.int_bits() as u8);
    out.push(frame.format.frac_bits() as u8);
    out.extend_from_slice(&frame.id.to_le_bytes());
    out.extend_from_slice(&frame.deadline_micros.to_le_bytes());
    out.extend_from_slice(&(frame.codes.len() as u32).to_le_bytes());
    push_codes(&mut out, &frame.codes);
    out
}

/// Serialises a reply frame, length prefix included.
#[must_use]
pub fn encode_reply(frame: &ReplyFrame) -> Vec<u8> {
    let payload_len = REPLY_HEADER_LEN + 2 * frame.codes.len();
    let mut out = Vec::with_capacity(4 + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(frame.status as u8);
    out.push(frame.code);
    out.push(0); // reserved
    out.extend_from_slice(&frame.id.to_le_bytes());
    out.extend_from_slice(&(frame.codes.len() as u32).to_le_bytes());
    push_codes(&mut out, &frame.codes);
    out
}

fn check_envelope(payload: &[u8], header_len: usize) -> Result<(), DecodeError> {
    if payload.len() < header_len {
        return Err(DecodeError::Truncated {
            needed: header_len,
            got: payload.len(),
        });
    }
    let magic = u32_at(payload, 0);
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    if payload[4] != VERSION {
        return Err(DecodeError::BadVersion(payload[4]));
    }
    Ok(())
}

/// Decodes a request payload (the bytes after the length prefix),
/// enforcing `max_ops` as the per-frame operand bound.
///
/// # Errors
///
/// A [`DecodeError`] naming exactly what is malformed.
pub fn decode_request(payload: &[u8], max_ops: u32) -> Result<RequestFrame, DecodeError> {
    check_envelope(payload, REQUEST_HEADER_LEN)?;
    let function = Function::from_id(payload[5]).ok_or(DecodeError::BadFunction(payload[5]))?;
    let (int_bits, frac_bits) = (payload[6], payload[7]);
    let format = QFormat::new(u32::from(int_bits), u32::from(frac_bits)).map_err(|_| {
        DecodeError::BadFormat {
            int_bits,
            frac_bits,
        }
    })?;
    let id = u64_at(payload, 8);
    let deadline_micros = u64_at(payload, 16);
    let count = u32_at(payload, 24);
    if count == 0 {
        return Err(DecodeError::EmptyBatch);
    }
    if count > max_ops {
        return Err(DecodeError::Oversize {
            count,
            max: max_ops,
        });
    }
    let required = REQUEST_HEADER_LEN + 2 * count as usize;
    if payload.len() != required {
        return Err(DecodeError::LengthMismatch {
            required,
            got: payload.len(),
        });
    }
    Ok(RequestFrame {
        function,
        format,
        id,
        deadline_micros,
        codes: codes_at(payload, REQUEST_HEADER_LEN, count as usize),
    })
}

/// Decodes a reply payload (the bytes after the length prefix).
///
/// # Errors
///
/// A [`DecodeError`] naming exactly what is malformed.
pub fn decode_reply(payload: &[u8]) -> Result<ReplyFrame, DecodeError> {
    check_envelope(payload, REPLY_HEADER_LEN)?;
    let status = Status::from_u8(payload[5]).ok_or(DecodeError::BadStatus(payload[5]))?;
    let code = payload[6];
    let id = u64_at(payload, 8);
    let count = u32_at(payload, 16);
    let required = REPLY_HEADER_LEN + 2 * count as usize;
    if payload.len() != required {
        return Err(DecodeError::LengthMismatch {
            required,
            got: payload.len(),
        });
    }
    Ok(ReplyFrame {
        status,
        code,
        id,
        codes: codes_at(payload, REPLY_HEADER_LEN, count as usize),
    })
}

/// Reads one length-prefixed payload off `reader`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between frames). The length prefix is validated against
/// `max_payload` *before* any allocation, so a hostile 4 GiB length
/// costs nothing.
///
/// # Errors
///
/// [`ReadError::TruncatedFrame`] when the stream dies mid-frame,
/// [`ReadError::Oversize`] for a declared length beyond `max_payload`,
/// [`ReadError::Io`] for transport failures.
pub fn read_payload(
    reader: &mut impl Read,
    max_payload: u32,
) -> Result<Option<Vec<u8>>, ReadError> {
    let mut payload = Vec::new();
    match read_payload_into(reader, max_payload, &mut payload)? {
        Some(_) => Ok(Some(payload)),
        None => Ok(None),
    }
}

/// Reads one length-prefixed payload off `reader` into a reusable buffer.
///
/// Same contract as [`read_payload`], but the caller owns the allocation:
/// a pipelined client can read thousands of replies through one buffer
/// without churning the allocator. Returns `Ok(Some(len))` with `buf`
/// holding exactly `len` freshly-read bytes, or `Ok(None)` on a clean EOF
/// at a frame boundary.
///
/// The cursor is reset (`buf.clear()`) before any byte of the new frame
/// lands, and on every error path `buf` is truncated to the bytes that
/// actually arrived — so stale bytes from a previous (possibly larger)
/// frame can never survive into this one and be misread as a header or
/// payload tail.
///
/// # Errors
///
/// [`ReadError::TruncatedFrame`] when the stream dies mid-frame,
/// [`ReadError::Oversize`] for a declared length beyond `max_payload`,
/// [`ReadError::Io`] for transport failures.
pub fn read_payload_into(
    reader: &mut impl Read,
    max_payload: u32,
    buf: &mut Vec<u8>,
) -> Result<Option<usize>, ReadError> {
    // Frame boundary: whatever the previous frame (or a failed read)
    // left behind is invalidated before a single new byte is read.
    buf.clear();
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None); // clean EOF between frames
                }
                return Err(ReadError::TruncatedFrame {
                    declared: 0,
                    got: filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let declared = u32::from_le_bytes(len_bytes);
    if declared > max_payload {
        return Err(ReadError::Oversize {
            declared,
            max: max_payload,
        });
    }
    buf.resize(declared as usize, 0);
    let mut got = 0;
    while got < declared as usize {
        match reader.read(&mut buf[got..]) {
            Ok(0) => {
                // Keep only the bytes that actually arrived: a caller
                // that ignores the error and peeks at the buffer must
                // not see zero padding posing as payload.
                buf.truncate(got);
                return Err(ReadError::TruncatedFrame {
                    declared: declared as usize,
                    got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                buf.truncate(got);
                return Err(ReadError::Io(e));
            }
        }
    }
    Ok(Some(declared as usize))
}

/// The request-payload byte bound implied by an operand bound.
#[must_use]
pub fn max_request_payload(max_ops: u32) -> u32 {
    REQUEST_HEADER_LEN as u32 + 2 * max_ops
}

/// The reply-payload byte bound implied by an operand bound.
#[must_use]
pub fn max_reply_payload(max_ops: u32) -> u32 {
    REPLY_HEADER_LEN as u32 + 2 * max_ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q411() -> QFormat {
        QFormat::new(4, 11).unwrap()
    }

    fn frame(codes: Vec<i16>) -> RequestFrame {
        RequestFrame {
            function: Function::Tanh,
            format: q411(),
            id: 42,
            deadline_micros: 1_000,
            codes,
        }
    }

    #[test]
    fn request_round_trips() {
        let f = frame(vec![-3, 0, 1, i16::MAX, i16::MIN]);
        let bytes = encode_request(&f);
        assert_eq!(
            bytes.len(),
            4 + REQUEST_HEADER_LEN + 2 * f.codes.len(),
            "length prefix + header + codes"
        );
        let decoded = decode_request(&bytes[4..], 1 << 16).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn reply_round_trips() {
        let f = ReplyFrame {
            status: Status::Ok,
            code: code::NONE,
            id: 7,
            codes: vec![100, -100],
        };
        let bytes = encode_reply(&f);
        let decoded = decode_reply(&bytes[4..]).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn control_replies_carry_no_codes() {
        let busy = ReplyFrame::control(Status::Busy, code::NONE, 9);
        let bytes = encode_reply(&busy);
        assert_eq!(bytes.len(), 4 + REPLY_HEADER_LEN);
        assert_eq!(decode_reply(&bytes[4..]).unwrap(), busy);
    }

    #[test]
    fn malformed_payloads_yield_typed_errors() {
        let good = encode_request(&frame(vec![1, 2]));
        let payload = &good[4..];

        let mut bad_magic = payload.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_request(&bad_magic, 64),
            Err(DecodeError::BadMagic(_))
        ));

        let mut bad_version = payload.to_vec();
        bad_version[4] = 9;
        assert_eq!(
            decode_request(&bad_version, 64),
            Err(DecodeError::BadVersion(9))
        );

        let mut bad_function = payload.to_vec();
        bad_function[5] = 200;
        assert_eq!(
            decode_request(&bad_function, 64),
            Err(DecodeError::BadFunction(200))
        );

        let mut bad_format = payload.to_vec();
        bad_format[6] = 0;
        bad_format[7] = 0;
        assert_eq!(
            decode_request(&bad_format, 64),
            Err(DecodeError::BadFormat {
                int_bits: 0,
                frac_bits: 0
            })
        );

        assert!(matches!(
            decode_request(&payload[..10], 64),
            Err(DecodeError::Truncated {
                needed: 28,
                got: 10
            })
        ));

        let mut short = payload.to_vec();
        short.pop();
        assert!(matches!(
            decode_request(&short, 64),
            Err(DecodeError::LengthMismatch { .. })
        ));

        assert!(matches!(
            decode_request(payload, 1),
            Err(DecodeError::Oversize { count: 2, max: 1 })
        ));
    }

    #[test]
    fn zero_count_is_an_empty_batch_error() {
        let mut f = frame(vec![1]);
        f.codes.clear();
        // Hand-roll: encode_request of an empty frame declares count 0.
        let bytes = encode_request(&f);
        assert_eq!(
            decode_request(&bytes[4..], 64),
            Err(DecodeError::EmptyBatch)
        );
    }

    #[test]
    fn operands_reject_codes_outside_narrow_formats() {
        let mut f = frame(vec![1, 30_000]);
        f.format = QFormat::new(2, 5).unwrap(); // 8-bit: raw range ±127
        assert!(matches!(
            f.operands(),
            Err(DecodeError::CodeOutOfRange {
                index: 1,
                code: 30_000
            })
        ));
    }

    #[test]
    fn read_payload_handles_eof_truncation_and_oversize() {
        use std::io::Cursor;
        // Clean EOF between frames.
        assert!(read_payload(&mut Cursor::new(Vec::new()), 64)
            .unwrap()
            .is_none());
        // EOF mid-length-prefix.
        assert!(matches!(
            read_payload(&mut Cursor::new(vec![1, 2]), 64),
            Err(ReadError::TruncatedFrame { got: 2, .. })
        ));
        // EOF mid-payload.
        let mut bytes = 8u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 3]);
        assert!(matches!(
            read_payload(&mut Cursor::new(bytes), 64),
            Err(ReadError::TruncatedFrame {
                declared: 8,
                got: 3
            })
        ));
        // Hostile length prefix, rejected before allocation.
        let huge = u32::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            read_payload(&mut Cursor::new(huge), 64),
            Err(ReadError::Oversize { max: 64, .. })
        ));
    }

    #[test]
    fn reused_buffer_never_leaks_stale_bytes_across_frames() {
        use std::io::Cursor;
        // One stream: a full 6-byte frame, then a frame that declares 10
        // bytes but dies after 3, then (on a fresh reader) a 2-byte frame.
        let mut stream = 6u32.to_le_bytes().to_vec();
        stream.extend_from_slice(b"AAAAAA");
        stream.extend_from_slice(&10u32.to_le_bytes());
        stream.extend_from_slice(b"BBB");

        let mut reader = Cursor::new(stream);
        let mut buf = vec![0xEE; 32]; // dirty from "previous use"

        // Frame 1: the dirty buffer is fully replaced, not appended to.
        assert_eq!(
            read_payload_into(&mut reader, 64, &mut buf).unwrap(),
            Some(6)
        );
        assert_eq!(buf, b"AAAAAA");

        // Frame 2 truncates mid-payload: typed error, and the buffer
        // holds only the 3 bytes that arrived — no 'A' tail from frame 1,
        // no zero padding out to the declared 10.
        assert!(matches!(
            read_payload_into(&mut reader, 64, &mut buf),
            Err(ReadError::TruncatedFrame {
                declared: 10,
                got: 3
            })
        ));
        assert_eq!(buf, b"BBB");

        // Frame 3 on a fresh reader: the same buffer, still carrying
        // frame 2's residue, yields exactly the new frame's bytes.
        let mut tail = 2u32.to_le_bytes().to_vec();
        tail.extend_from_slice(b"CC");
        let mut reader = Cursor::new(tail);
        assert_eq!(
            read_payload_into(&mut reader, 64, &mut buf).unwrap(),
            Some(2)
        );
        assert_eq!(buf, b"CC");
    }

    #[test]
    fn read_payload_into_survives_single_byte_reads() {
        // A reader that trickles one byte per call exercises every
        // partial-fill branch of the header and payload loops.
        struct Trickle(Vec<u8>, usize);
        impl std::io::Read for Trickle {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let f = ReplyFrame {
            status: Status::Ok,
            code: code::NONE,
            id: 3,
            codes: vec![7, -7, 0],
        };
        let bytes = encode_reply(&f);
        let mut reader = Trickle(bytes, 0);
        let mut buf = Vec::new();
        let len = read_payload_into(&mut reader, 64, &mut buf)
            .unwrap()
            .unwrap();
        assert_eq!(len, buf.len());
        assert_eq!(decode_reply(&buf).unwrap(), f);
        // Clean EOF at the next boundary leaves the buffer empty.
        assert!(read_payload_into(&mut reader, 64, &mut buf)
            .unwrap()
            .is_none());
        assert!(buf.is_empty());
    }
}
