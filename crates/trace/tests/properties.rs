//! Property-based tests for trace generation and the binary format.

use std::io::ErrorKind;

use cmpsim_cache::Addr;
use cmpsim_trace::file::{self, TraceFileError};
use cmpsim_trace::{MemOp, SegmentMix, SyntheticWorkload, ThreadId, TraceRecord, WorkloadParams};
use proptest::prelude::*;

const MAGIC: &[u8; 8] = b"CMPTRC01";

fn arb_records() -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec(
        (0u16..64, any::<bool>(), 0u64..1 << 40).prop_map(|(t, st, a)| {
            TraceRecord::new(
                ThreadId::new(t),
                if st { MemOp::Store } else { MemOp::Load },
                Addr::new(a * 128),
            )
        }),
        0..500,
    )
}

fn params_with_mix(mix: SegmentMix) -> WorkloadParams {
    WorkloadParams {
        name: "prop".into(),
        line_bytes: 128,
        threads: 8,
        issue_interval: 1,
        mix,
        private_lines: 256,
        private_theta: 2.0,
        private_store_frac: 0.25,
        bounce_lines: 512,
        bounce_group_threads: 4,
        bounce_cross_frac: 0.1,
        bounce_theta: 1.5,
        bounce_store_frac: 0.1,
        rotor_lines: 128,
        rotor_store_frac: 0.1,
        shared_lines: 128,
        shared_theta: 1.5,
        shared_store_frac: 0.05,
        migratory_lines: 64,
        migratory_rmw_frac: 0.5,
    }
}

proptest! {
    /// The binary trace format round-trips arbitrary record sequences.
    #[test]
    fn file_roundtrip(records in arb_records()) {
        let mut buf = Vec::new();
        file::write_trace(&mut buf, &records).unwrap();
        let back = file::read_trace(&buf[..]).unwrap();
        prop_assert_eq!(back, records);
    }

    /// Truncating an encoded trace anywhere inside the record area is
    /// always detected.
    #[test]
    fn truncation_always_detected(records in arb_records(), cut in 1usize..50) {
        prop_assume!(!records.is_empty());
        let mut buf = Vec::new();
        file::write_trace(&mut buf, &records).unwrap();
        let cut = cut.min(buf.len() - 17); // keep header intact
        buf.truncate(buf.len() - cut);
        prop_assert!(file::read_trace(&buf[..]).is_err());
    }

    /// Arbitrary bytes never panic the reader: they decode, or fail with
    /// the typed error that names what is wrong with them.
    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        match file::read_trace(&bytes[..]) {
            Ok(_) => prop_assert!(bytes.starts_with(MAGIC)),
            Err(TraceFileError::Io(e)) => {
                prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                prop_assert!(bytes.len() < 16);
            }
            Err(TraceFileError::BadMagic) => {
                prop_assert!(bytes.len() >= 8 && !bytes.starts_with(MAGIC));
            }
            Err(TraceFileError::BadOp(op)) => prop_assert!(op > 1),
            Err(TraceFileError::Truncated { expected, got }) => prop_assert!(got < expected),
        }
    }

    /// A valid magic, a small count and an arbitrary body: the reader
    /// decodes exactly `count` records, which re-encode to the bytes
    /// they came from, or names the bad op byte or the shortfall.
    #[test]
    fn forged_header_with_arbitrary_body(
        count in 0u64..33,
        mut body in proptest::collection::vec(any::<u8>(), 0..400),
        legal_ops in any::<bool>(),
    ) {
        if legal_ops {
            // Random op bytes are almost never 0 or 1; without this only
            // one- or zero-record traces would ever decode.
            for op in body.iter_mut().skip(2).step_by(11) {
                *op &= 1;
            }
        }
        let mut input = MAGIC.to_vec();
        input.extend_from_slice(&count.to_le_bytes());
        input.extend_from_slice(&body);
        match file::read_trace(&input[..]) {
            Ok(records) => {
                prop_assert_eq!(records.len() as u64, count);
                let mut again = Vec::new();
                file::write_trace(&mut again, &records).unwrap();
                prop_assert_eq!(&again[..], &input[..16 + 11 * records.len()]);
            }
            Err(TraceFileError::Truncated { expected, got }) => {
                prop_assert_eq!(expected, count);
                prop_assert_eq!(got, body.len() as u64 / 11);
            }
            Err(TraceFileError::BadOp(op)) => prop_assert!(op > 1),
            Err(e) => return Err(format!("unexpected error: {e}")),
        }
    }

    /// Generated records stay within their declared populations: every
    /// address is line-aligned, and a single-segment mix emits only that
    /// segment's addresses (disjoint region tags).
    #[test]
    fn single_segment_addresses_disjoint(seed in any::<u64>()) {
        let seg = |private: f64, bounce: f64, shared: f64| SegmentMix {
            private,
            bounce,
            rotor: 0.0,
            shared,
            migratory: 0.0,
            streaming: 1.0 - private - bounce - shared,
        };
        let mut a = SyntheticWorkload::new(params_with_mix(seg(1.0, 0.0, 0.0)), seed).unwrap();
        let mut b = SyntheticWorkload::new(params_with_mix(seg(0.0, 1.0, 0.0)), seed).unwrap();
        let sa: std::collections::HashSet<u64> =
            (0..300).map(|_| a.next_record(ThreadId::new(0)).addr.raw()).collect();
        let sb: std::collections::HashSet<u64> =
            (0..300).map(|_| b.next_record(ThreadId::new(0)).addr.raw()).collect();
        prop_assert!(sa.is_disjoint(&sb));
        for &addr in sa.iter().chain(sb.iter()) {
            prop_assert_eq!(addr % 128, 0);
        }
    }

    /// Store fractions are honored within statistical tolerance.
    #[test]
    fn store_fraction_tracks(frac in 0.0f64..0.9) {
        let mut p = params_with_mix(SegmentMix {
            private: 1.0,
            bounce: 0.0,
            rotor: 0.0,
            shared: 0.0,
            migratory: 0.0,
            streaming: 0.0,
        });
        p.private_store_frac = frac;
        let mut w = SyntheticWorkload::new(p, 3).unwrap();
        let n = 8_000;
        let stores = (0..n)
            .filter(|_| w.next_record(ThreadId::new(1)).op.is_store())
            .count();
        let measured = stores as f64 / n as f64;
        prop_assert!((measured - frac).abs() < 0.05, "measured {measured} want {frac}");
    }
}
