//! The versioned binary trace-log format.
//!
//! A trace log is a file header followed by length-prefixed records, all
//! little-endian. This build writes and reads version 2 only; any other
//! version is rejected as [`TraceDecodeError::BadVersion`].
//!
//! ```text
//! file header (12 bytes)
//! offset  size  field
//!      0     4  magic            "NTRC" (0x4352544E little-endian)
//!      4     1  version          2
//!      5     3  reserved         always 0
//!      8     4  record count
//!
//! record (length-prefixed)
//! offset  size  field
//!      0     4  length           byte count of the remainder
//!      4     1  function         0 σ · 1 tanh · 2 exp · 3 softmax
//!      5     1  int_bits         operand/response format tag (Qm.f)
//!      6     1  frac_bits
//!      7     1  reserved         always 0
//!      8     8  request id       engine-assigned monotone id
//!     16     8  deadline µs      relative to submission; 0 = none
//!     24     4  conn id          net-plane connection; 0 = in-process
//!     28     8  submit µs        since the recorder's epoch; 0 = unknown
//!     36     4  operand count    n (≥ 1)
//!     40     4  response count   m
//!     44    2n  operand codes    raw two's-complement i16 fixed codes
//!   44+2n  2m  response codes
//! ```
//!
//! Decoding never panics: every malformed byte sequence maps onto a
//! [`TraceDecodeError`] variant (with the offending record's index when
//! the problem is inside a record), the same discipline as the `nacu-net`
//! wire protocol. Formats wider than 16 bits are rejected at decode —
//! i16 codes cannot round-trip them — matching the recorder's own
//! eligibility rule ([`crate::Recorder::for_format`]).

use nacu::Function;
use nacu_fixed::QFormat;

/// `"NTRC"` interpreted as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"NTRC");
/// The trace-log version this build writes and reads.
pub const VERSION: u8 = 2;
/// File bytes before the first record.
pub const FILE_HEADER_LEN: usize = 12;
/// Record bytes between the length prefix and the operand codes.
pub const RECORD_HEADER_LEN: usize = 40;

/// One recorded request/response pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The function the request evaluated.
    pub function: Function,
    /// The fixed-point format both code vectors are expressed in.
    pub format: QFormat,
    /// The engine-assigned request id (monotone per engine instance).
    pub id: u64,
    /// Deadline in microseconds relative to submission; 0 = none.
    /// Recorded for context only — the replayer deliberately does *not*
    /// re-apply deadlines, because wall-clock expiry would make replay
    /// outcomes timing-dependent instead of deterministic.
    pub deadline_micros: u64,
    /// Net-plane connection id the request arrived on; 0 = in-process
    /// (the engine's own clients).
    pub conn: u32,
    /// Submission time in microseconds since the recorder's epoch; 0 =
    /// unknown (a timing-stripped canonical trace). Paced
    /// replay re-applies the inter-arrival gaps between these stamps.
    pub submit_micros: u64,
    /// Raw operand codes as submitted (captured before serving, so the
    /// in-place fast path cannot have overwritten them).
    pub operands: Vec<i16>,
    /// Raw response codes as replied.
    pub responses: Vec<i16>,
}

impl TraceRecord {
    /// Encoded size of this record including its length prefix.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        4 + RECORD_HEADER_LEN + 2 * self.operands.len() + 2 * self.responses.len()
    }
}

/// A decoded (or freshly recorded) trace log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Records in ascending request-id order.
    pub records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Total operand codes across all records.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.records.iter().map(|r| r.operands.len() as u64).sum()
    }

    /// Zeroes every record's submit timestamp, leaving the numerical
    /// payload untouched. Canonical (committed) traces are stripped so
    /// re-recording the same deterministic workload stays byte-identical
    /// — wall-clock stamps are the one field that never reproduces.
    pub fn strip_timing(&mut self) {
        for record in &mut self.records {
            record.submit_micros = 0;
        }
    }

    /// Serialises the log (always as [`VERSION`]). The inverse of
    /// [`TraceLog::decode`].
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let body: usize = self.records.iter().map(TraceRecord::encoded_len).sum();
        let mut out = Vec::with_capacity(FILE_HEADER_LEN + body);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.extend_from_slice(&[0, 0, 0]);
        out.extend_from_slice(&(self.records.len().min(u32::MAX as usize) as u32).to_le_bytes());
        for record in &self.records {
            let len = RECORD_HEADER_LEN + 2 * record.operands.len() + 2 * record.responses.len();
            out.extend_from_slice(&(len.min(u32::MAX as usize) as u32).to_le_bytes());
            out.push(record.function.id().unwrap_or(u8::MAX));
            out.push(record.format.int_bits().min(255) as u8);
            out.push(record.format.frac_bits().min(255) as u8);
            out.push(0);
            out.extend_from_slice(&record.id.to_le_bytes());
            out.extend_from_slice(&record.deadline_micros.to_le_bytes());
            out.extend_from_slice(&record.conn.to_le_bytes());
            out.extend_from_slice(&record.submit_micros.to_le_bytes());
            out.extend_from_slice(
                &(record.operands.len().min(u32::MAX as usize) as u32).to_le_bytes(),
            );
            out.extend_from_slice(
                &(record.responses.len().min(u32::MAX as usize) as u32).to_le_bytes(),
            );
            for &code in &record.operands {
                out.extend_from_slice(&code.to_le_bytes());
            }
            for &code in &record.responses {
                out.extend_from_slice(&code.to_le_bytes());
            }
        }
        out
    }

    /// Parses a serialised log, refusing records with more than `max_ops`
    /// operand or response codes (the count bounds allocation up front).
    ///
    /// # Errors
    ///
    /// A [`TraceDecodeError`] naming exactly what is malformed; no byte
    /// sequence panics.
    pub fn decode(bytes: &[u8], max_ops: u32) -> Result<Self, TraceDecodeError> {
        if bytes.len() < FILE_HEADER_LEN {
            return Err(TraceDecodeError::Truncated {
                needed: FILE_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let magic = u32_at(bytes, 0);
        if magic != MAGIC {
            return Err(TraceDecodeError::BadMagic(magic));
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(TraceDecodeError::BadVersion(version));
        }
        let declared = u32_at(bytes, 8);
        let mut records = Vec::new();
        let mut at = FILE_HEADER_LEN;
        let mut index = 0usize;
        while at < bytes.len() {
            let (record, consumed) = decode_record(&bytes[at..], max_ops)
                .map_err(|error| TraceDecodeError::Record { index, error })?;
            records.push(record);
            at += consumed;
            index += 1;
        }
        if records.len() != declared as usize {
            return Err(TraceDecodeError::CountMismatch {
                declared,
                found: records.len(),
            });
        }
        Ok(Self { records })
    }
}

/// Decodes one length-prefixed record from the front of `bytes`,
/// returning it and the bytes consumed.
fn decode_record(bytes: &[u8], max_ops: u32) -> Result<(TraceRecord, usize), RecordDecodeError> {
    if bytes.len() < 4 {
        return Err(RecordDecodeError::Truncated {
            needed: 4,
            got: bytes.len(),
        });
    }
    let len = u32_at(bytes, 0) as usize;
    // Bound the declared length before trusting it: the per-record ops
    // cap limits a record to a computable byte count, so a huge length
    // prefix is rejected without ever being allocated or skipped over.
    let max_len = RECORD_HEADER_LEN + 4 * max_ops as usize;
    if len > max_len {
        return Err(RecordDecodeError::Oversize {
            count: (len / 2).min(u32::MAX as usize) as u32,
            max: max_ops,
        });
    }
    if bytes.len() < 4 + len {
        return Err(RecordDecodeError::Truncated {
            needed: 4 + len,
            got: bytes.len(),
        });
    }
    let body = &bytes[4..4 + len];
    if body.len() < RECORD_HEADER_LEN {
        return Err(RecordDecodeError::Truncated {
            needed: RECORD_HEADER_LEN,
            got: body.len(),
        });
    }
    let function = Function::from_id(body[0]).ok_or(RecordDecodeError::BadFunction(body[0]))?;
    let int_bits = body[1];
    let frac_bits = body[2];
    let format = QFormat::new(u32::from(int_bits), u32::from(frac_bits)).map_err(|_| {
        RecordDecodeError::BadFormat {
            int_bits,
            frac_bits,
        }
    })?;
    if format.total_bits() > 16 {
        return Err(RecordDecodeError::WideFormat {
            int_bits,
            frac_bits,
        });
    }
    let id = u64_at(body, 4);
    let deadline_micros = u64_at(body, 12);
    let conn = u32_at(body, 20);
    let submit_micros = u64_at(body, 24);
    let operand_count = u32_at(body, 32);
    let response_count = u32_at(body, 36);
    if operand_count == 0 {
        return Err(RecordDecodeError::EmptyOperands);
    }
    if operand_count > max_ops || response_count > max_ops {
        return Err(RecordDecodeError::Oversize {
            count: operand_count.max(response_count),
            max: max_ops,
        });
    }
    let required = RECORD_HEADER_LEN + 2 * (operand_count as usize + response_count as usize);
    if body.len() != required {
        return Err(RecordDecodeError::LengthMismatch {
            required,
            got: body.len(),
        });
    }
    let operands = codes(&body[RECORD_HEADER_LEN..], operand_count as usize);
    let responses = codes(
        &body[RECORD_HEADER_LEN + 2 * operand_count as usize..],
        response_count as usize,
    );
    Ok((
        TraceRecord {
            function,
            format,
            id,
            deadline_micros,
            conn,
            submit_micros,
            operands,
            responses,
        },
        4 + len,
    ))
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("caller checked length"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("caller checked length"))
}

fn codes(bytes: &[u8], count: usize) -> Vec<i16> {
    (0..count)
        .map(|i| i16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]))
        .collect()
}

/// Why a trace log failed to decode. Exhaustive: every malformed byte
/// sequence lands here, never in a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The file ended before the fixed header.
    Truncated {
        /// Bytes the header needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The magic field was not `"NTRC"`.
    BadMagic(u32),
    /// A trace-log version this build does not speak.
    BadVersion(u8),
    /// The header's record count disagrees with the records present.
    CountMismatch {
        /// Count the header declared.
        declared: u32,
        /// Records actually decoded.
        found: usize,
    },
    /// A record failed to decode.
    Record {
        /// Zero-based index of the offending record.
        index: usize,
        /// What was wrong with it.
        error: RecordDecodeError,
    },
}

/// Why one record inside a trace log failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordDecodeError {
    /// The record ended before its declared extent (or its fixed header).
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// An unknown function id.
    BadFunction(u8),
    /// A format tag [`QFormat::new`] rejects.
    BadFormat {
        /// Declared integer bits.
        int_bits: u8,
        /// Declared fraction bits.
        frac_bits: u8,
    },
    /// A valid format wider than 16 bits — its codes cannot round-trip
    /// through the log's i16 code fields, so it is never recorded and
    /// never accepted.
    WideFormat {
        /// Declared integer bits.
        int_bits: u8,
        /// Declared fraction bits.
        frac_bits: u8,
    },
    /// A record carried zero operand codes.
    EmptyOperands,
    /// A code count (or the length prefix implying one) exceeds the
    /// reader's per-record bound.
    Oversize {
        /// Declared count.
        count: u32,
        /// The reader's limit.
        max: u32,
    },
    /// The declared counts disagree with the record's byte length.
    LengthMismatch {
        /// Record-body bytes the declared counts require.
        required: usize,
        /// Record-body bytes actually present.
        got: usize,
    },
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(f, "trace truncated: header needs {needed} bytes, got {got}")
            }
            Self::BadMagic(magic) => write!(f, "bad trace magic {magic:#010x}"),
            Self::BadVersion(version) => write!(f, "unsupported trace version {version}"),
            Self::CountMismatch { declared, found } => {
                write!(
                    f,
                    "header declares {declared} records but the file holds {found}"
                )
            }
            Self::Record { index, error } => write!(f, "record {index}: {error}"),
        }
    }
}

impl std::fmt::Display for RecordDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(f, "truncated: needs {needed} bytes, got {got}")
            }
            Self::BadFunction(id) => write!(f, "unknown function id {id}"),
            Self::BadFormat {
                int_bits,
                frac_bits,
            } => write!(f, "invalid format tag Q{int_bits}.{frac_bits}"),
            Self::WideFormat {
                int_bits,
                frac_bits,
            } => {
                write!(
                    f,
                    "format Q{int_bits}.{frac_bits} is wider than the 16-bit code fields"
                )
            }
            Self::EmptyOperands => write!(f, "record carries no operand codes"),
            Self::Oversize { count, max } => {
                write!(f, "code count {count} exceeds the per-record limit {max}")
            }
            Self::LengthMismatch { required, got } => {
                write!(
                    f,
                    "declared counts require {required} body bytes, record holds {got}"
                )
            }
        }
    }
}

impl std::error::Error for TraceDecodeError {}
impl std::error::Error for RecordDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> QFormat {
        QFormat::new(4, 11).expect("paper format")
    }

    fn sample() -> TraceLog {
        TraceLog {
            records: vec![
                TraceRecord {
                    function: Function::Sigmoid,
                    format: paper(),
                    id: 1,
                    deadline_micros: 0,
                    conn: 0,
                    submit_micros: 0,
                    operands: vec![-3, 0, 7],
                    responses: vec![100, 200, 300],
                },
                TraceRecord {
                    function: Function::Softmax,
                    format: paper(),
                    id: 2,
                    deadline_micros: 1_500,
                    conn: 42,
                    submit_micros: 2_750,
                    operands: vec![i16::MIN, i16::MAX],
                    responses: vec![5, -5],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let log = sample();
        let bytes = log.encode();
        assert_eq!(bytes[4], VERSION, "this build writes v2");
        assert_eq!(TraceLog::decode(&bytes, 1 << 16).expect("round trip"), log);
    }

    #[test]
    fn v1_logs_are_rejected_as_a_bad_version() {
        let mut bytes = sample().encode();
        bytes[4] = 1;
        assert_eq!(
            TraceLog::decode(&bytes, 1 << 16),
            Err(TraceDecodeError::BadVersion(1))
        );
    }

    #[test]
    fn strip_timing_zeroes_submit_stamps_only() {
        let mut log = sample();
        log.strip_timing();
        assert!(log.records.iter().all(|r| r.submit_micros == 0));
        assert_eq!(log.records[1].conn, 42, "conn ids survive the strip");
        assert_eq!(log.records[1].deadline_micros, 1_500);
    }

    #[test]
    fn empty_log_round_trips() {
        let log = TraceLog::default();
        let bytes = log.encode();
        assert_eq!(bytes.len(), FILE_HEADER_LEN);
        assert_eq!(TraceLog::decode(&bytes, 16).expect("round trip"), log);
    }

    #[test]
    fn truncation_yields_typed_errors_never_panics() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err =
                TraceLog::decode(&bytes[..cut], 1 << 16).expect_err("every prefix is malformed");
            // Any prefix must land in a typed error; message renders.
            let _ = err.to_string();
        }
    }

    #[test]
    fn bad_magic_version_function_and_format_are_typed() {
        let mut bad_magic = sample().encode();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            TraceLog::decode(&bad_magic, 16),
            Err(TraceDecodeError::BadMagic(_))
        ));
        let mut bad_version = sample().encode();
        bad_version[4] = 9;
        assert!(matches!(
            TraceLog::decode(&bad_version, 16),
            Err(TraceDecodeError::BadVersion(9))
        ));
        let mut bad_function = sample().encode();
        bad_function[FILE_HEADER_LEN + 4] = 77;
        assert!(matches!(
            TraceLog::decode(&bad_function, 16),
            Err(TraceDecodeError::Record {
                index: 0,
                error: RecordDecodeError::BadFunction(77)
            })
        ));
        let mut bad_format = sample().encode();
        bad_format[FILE_HEADER_LEN + 5] = 0;
        bad_format[FILE_HEADER_LEN + 6] = 0;
        assert!(matches!(
            TraceLog::decode(&bad_format, 16),
            Err(TraceDecodeError::Record {
                index: 0,
                error: RecordDecodeError::BadFormat { .. }
            })
        ));
    }

    #[test]
    fn wide_formats_are_rejected() {
        let mut wide = sample().encode();
        // Q4.15 is a valid engine format but 20 bits wide: its codes do
        // not fit the log's i16 fields.
        wide[FILE_HEADER_LEN + 5] = 4;
        wide[FILE_HEADER_LEN + 6] = 15;
        assert!(matches!(
            TraceLog::decode(&wide, 16),
            Err(TraceDecodeError::Record {
                index: 0,
                error: RecordDecodeError::WideFormat {
                    int_bits: 4,
                    frac_bits: 15
                }
            })
        ));
    }

    #[test]
    fn oversize_counts_are_bounded_before_allocation() {
        let log = sample();
        let bytes = log.encode();
        assert!(matches!(
            TraceLog::decode(&bytes, 2),
            Err(TraceDecodeError::Record {
                index: 0,
                error: RecordDecodeError::Oversize { .. }
            })
        ));
    }

    #[test]
    fn count_mismatch_is_detected() {
        let mut bytes = sample().encode();
        bytes[8] = 9; // header now claims 9 records; the file holds 2
        assert!(matches!(
            TraceLog::decode(&bytes, 16),
            Err(TraceDecodeError::CountMismatch {
                declared: 9,
                found: 2
            })
        ));
    }

    #[test]
    fn length_count_disagreement_is_typed() {
        let mut bytes = sample().encode();
        // Inflate record 0's declared operand count without adding bytes
        // (the count sits at body offset 32 in a v2 record).
        let count_at = FILE_HEADER_LEN + 4 + 32;
        bytes[count_at] = bytes[count_at].wrapping_add(1);
        assert!(matches!(
            TraceLog::decode(&bytes, 16),
            Err(TraceDecodeError::Record {
                index: 0,
                error: RecordDecodeError::LengthMismatch { .. }
            })
        ));
    }
}
