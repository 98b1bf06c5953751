//! Compact binary trace file format.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   [u8; 8]  = b"CMPTRC01"
//! count   u64      number of records
//! records count × { thread: u16, op: u8 (0=load, 1=store), addr: u64 }
//! ```
//!
//! The format is deliberately simple: traces are large, sequential, and
//! only read by this simulator.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use cmpsim_cache::Addr;

use crate::{MemOp, ThreadId, TraceRecord};

const MAGIC: [u8; 8] = *b"CMPTRC01";

/// Most records [`read_trace`] reserves before reading any. The header's
/// count is untrusted: a forged 16-byte header must not become a huge
/// allocation, so past this the vector grows as records arrive.
const MAX_PREALLOC_RECORDS: u64 = 64 * 1024;

/// Errors from reading a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// A record contained an invalid operation byte.
    BadOp(u8),
    /// The stream ended before `count` records were read.
    Truncated {
        /// Records expected per the header.
        expected: u64,
        /// Records actually decoded.
        got: u64,
    },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::BadMagic => f.write_str("not a CMPTRC01 trace file"),
            TraceFileError::BadOp(b) => write!(f, "invalid op byte {b:#x}"),
            TraceFileError::Truncated { expected, got } => {
                write!(f, "trace truncated: expected {expected} records, got {got}")
            }
        }
    }
}

impl Error for TraceFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Writes a trace to `w`.
///
/// A `&mut` writer can be passed as well, since `Write` is implemented
/// for mutable references.
///
/// # Errors
///
/// Propagates underlying I/O errors.
///
/// # Example
///
/// ```
/// use cmpsim_trace::{file, TraceRecord, ThreadId, MemOp};
/// use cmpsim_cache::Addr;
///
/// let recs = vec![TraceRecord::new(ThreadId::new(0), MemOp::Load, Addr::new(64))];
/// let mut buf = Vec::new();
/// file::write_trace(&mut buf, &recs)?;
/// let back = file::read_trace(&buf[..])?;
/// assert_eq!(back, recs);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace<W: Write>(mut w: W, records: &[TraceRecord]) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&(records.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(records.len().min(1 << 16) * 11);
    for r in records {
        buf.extend_from_slice(&r.thread.raw().to_le_bytes());
        buf.push(if r.op.is_store() { 1 } else { 0 });
        buf.extend_from_slice(&r.addr.raw().to_le_bytes());
        if buf.len() >= (1 << 20) {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads a full trace from `r`.
///
/// # Errors
///
/// Returns [`TraceFileError`] on I/O failure, bad magic, invalid op
/// bytes, or truncation.
pub fn read_trace<R: Read>(mut r: R) -> Result<Vec<TraceRecord>, TraceFileError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(TraceFileError::BadMagic);
    }
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    let count = u64::from_le_bytes(count_bytes);
    let mut records = Vec::with_capacity(count.min(MAX_PREALLOC_RECORDS) as usize);
    let mut rec = [0u8; 11];
    for i in 0..count {
        if let Err(e) = r.read_exact(&mut rec) {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                return Err(TraceFileError::Truncated {
                    expected: count,
                    got: i,
                });
            }
            return Err(e.into());
        }
        let thread = u16::from_le_bytes([rec[0], rec[1]]);
        let op = match rec[2] {
            0 => MemOp::Load,
            1 => MemOp::Store,
            b => return Err(TraceFileError::BadOp(b)),
        };
        let addr = u64::from_le_bytes(rec[3..11].try_into().expect("8 bytes"));
        records.push(TraceRecord::new(ThreadId::new(thread), op, Addr::new(addr)));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        (0..100)
            .map(|i| {
                TraceRecord::new(
                    ThreadId::new((i % 16) as u16),
                    if i % 3 == 0 {
                        MemOp::Store
                    } else {
                        MemOp::Load
                    },
                    Addr::new(i * 128),
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &recs).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOTATRACE-------"[..]).unwrap_err();
        assert!(matches!(err, TraceFileError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let recs = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &recs).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_trace(&buf[..]).unwrap_err();
        match err {
            TraceFileError::Truncated { expected, got } => {
                assert_eq!(expected, 100);
                assert_eq!(got, 99);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn forged_count_header_reports_truncation() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        match read_trace(&buf[..]).unwrap_err() {
            TraceFileError::Truncated { expected, got } => {
                assert_eq!(expected, u64::MAX);
                assert_eq!(got, 0);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn bad_op_detected() {
        let recs = vec![TraceRecord::new(
            ThreadId::new(0),
            MemOp::Load,
            Addr::new(0),
        )];
        let mut buf = Vec::new();
        write_trace(&mut buf, &recs).unwrap();
        buf[18] = 7; // corrupt the op byte (8 magic + 8 count + 2 thread)
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceFileError::BadOp(7)));
    }

    #[test]
    fn error_messages_nonempty() {
        assert!(!TraceFileError::BadMagic.to_string().is_empty());
        assert!(!TraceFileError::BadOp(9).to_string().is_empty());
    }
}
