//! Mutation tests for the serve wire decoders, starting from valid
//! encodings.
//!
//! * Requests: every field (id, value lo / hi, time lo / hi) of a valid
//!   request is overwritten with an edge value. Each result must decode to a
//!   typed error, or to a request that re-encodes to the same bytes and that
//!   [`AnswerCore::answer_payload`] answers — without panicking, and with
//!   exactly the rows a brute-force filter of the core's records selects —
//!   with the stored history absent and present.
//! * Responses: a valid frame is truncated at every length and its `count`
//!   field set to 0, 1, `u32::MAX` and off by one either way.
//!   [`ServeResponse::decode`] must return `Err` or a value whose encoding is
//!   the decoded bytes.
//!
//! The TCP framer in front of `decode` (`parse_requests`) reads a socket and
//! is not covered here.

use proptest::prelude::*;
use scoop_serve::core::AnswerCore;
use scoop_store::{Store, StoreOptions};
use scoop_types::{
    append_rows_payload, DurableRecord, NodeId, Overloaded, ServeRequest, ServeResponse, ServeRows,
    SimTime, ValueRange, SERVE_REQUEST_LEN,
};
use std::cell::RefCell;
use std::path::PathBuf;

const DOMAIN: ValueRange = ValueRange { lo: 0, hi: 63 };

/// Edge values for the 64-bit fields (id, time lo / hi).
const EDGE_U64: [u64; 5] = [0, 1, u64::MAX, u64::MIN, 1 << 63];
/// Edge values for the 32-bit value fields; 2⁶³ does not fit, so the fifth
/// is -1 (every bit set).
const EDGE_I32: [i32; 5] = [0, 1, i32::MAX, i32::MIN, -1];

/// Record `i` of a stream, four a second from `start_ms` on, spread over
/// every value bucket, the out-of-domain overflow bucket included.
fn record(i: u64, start_ms: u64) -> DurableRecord {
    DurableRecord {
        time_ms: start_ms + i * 250,
        node: NodeId((i % 29) as u16 + 1),
        attribute: 0,
        value: (i.wrapping_mul(2_654_435_761) % 80) as i32 - 8,
    }
}

/// Two cores over the same few hundred live records in several buckets: one
/// without history, one also answering from a few hundred stored records in
/// several segments and blocks.
struct Cores {
    cores: Vec<AnswerCore>,
    /// Per core, every record it can answer from.
    records: Vec<Vec<DurableRecord>>,
    dir: PathBuf,
}

impl Cores {
    fn new() -> Self {
        let live: Vec<DurableRecord> = (0..300).map(|i| record(i, 50_000)).collect();
        let stored: Vec<DurableRecord> = (0..300).map(|i| record(i, 0)).collect();
        let dir = std::env::temp_dir().join(format!(
            "scoop-wire-mutation-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let options = StoreOptions {
            block_size: 8 + 16 * 16,
            seal_after_records: 128,
            compact_tier_segments: 1_000,
        };
        let mut store = Store::open(&dir, options).expect("open");
        store.append_batch(&stored).expect("append");
        store.commit().expect("commit");

        let mut bare = AnswerCore::new(DOMAIN, 16);
        bare.ingest(&live);
        let mut with_history = AnswerCore::new(DOMAIN, 0).with_history(store.snapshot());
        with_history.ingest(&live);
        Cores {
            cores: vec![bare, with_history],
            records: vec![live.clone(), [stored, live].concat()],
            dir,
        }
    }
}

impl Drop for Cores {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

thread_local! {
    static CORES: RefCell<Option<Cores>> = const { RefCell::new(None) };
}

/// Decodes `bytes`; a request that decodes must round-trip and be answered
/// by every core with exactly the matching rows.
fn check_request(bytes: &[u8; SERVE_REQUEST_LEN]) {
    let Ok(req) = ServeRequest::decode(bytes) else {
        return;
    };
    let mut again = [0u8; SERVE_REQUEST_LEN];
    req.encode_into(&mut again);
    assert_eq!(&again, bytes, "{req:?} does not re-encode to its bytes");
    let pred = req.predicate();
    CORES.with(|cell| {
        let mut cell = cell.borrow_mut();
        let cores = cell.get_or_insert_with(Cores::new);
        for (core, records) in cores.cores.iter_mut().zip(&cores.records) {
            let payload = core
                .answer_payload(&pred)
                .expect("no stored block is corrupt");
            let mut expected: Vec<DurableRecord> = records
                .iter()
                .filter(|r| pred.matches(r.value, r.time_ms))
                .copied()
                .collect();
            expected.sort_unstable();
            let mut want = Vec::new();
            append_rows_payload(&expected, &mut want);
            assert_eq!(payload.as_slice(), want.as_slice(), "{pred:?}");
        }
    });
}

/// Decodes `frame`; a response that decodes must encode back to `frame`.
fn check_response(frame: &[u8]) {
    if let Ok(resp) = ServeResponse::decode(frame) {
        let mut again = Vec::new();
        resp.encode_into(&mut again);
        assert_eq!(again, frame, "{resp:?} does not re-encode to its bytes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every field of a valid request, overwritten with every edge value,
    /// alone and together with a second overwritten field.
    #[test]
    fn mutated_requests_are_refused_or_answered(
        id in 0u64..1_000,
        value in (-10i32..70, 0i32..20),
        time in (0u64..130_000, 0u64..60_000),
        second in (0usize..5, 0usize..5),
    ) {
        let req = ServeRequest {
            id,
            values: ValueRange::new(value.0, value.0 + value.1),
            time_lo: SimTime::from_millis(time.0),
            time_hi: SimTime::from_millis(time.0 + time.1),
        };
        let mut valid = [0u8; SERVE_REQUEST_LEN];
        req.encode_into(&mut valid);
        prop_assert_eq!(ServeRequest::decode(&valid).ok(), Some(req));
        check_request(&valid);
        let overwrite = |bytes: &mut [u8; SERVE_REQUEST_LEN], field: usize, edge: usize| {
            match field {
                0 => bytes[0..8].copy_from_slice(&EDGE_U64[edge].to_le_bytes()),
                1 => bytes[8..12].copy_from_slice(&EDGE_I32[edge].to_le_bytes()),
                2 => bytes[12..16].copy_from_slice(&EDGE_I32[edge].to_le_bytes()),
                3 => bytes[16..24].copy_from_slice(&EDGE_U64[edge].to_le_bytes()),
                _ => bytes[24..32].copy_from_slice(&EDGE_U64[edge].to_le_bytes()),
            }
        };
        for field in 0..5 {
            for edge in 0..5 {
                let mut bytes = valid;
                overwrite(&mut bytes, field, edge);
                check_request(&bytes);
                overwrite(&mut bytes, second.0, second.1);
                check_request(&bytes);
            }
        }
    }

    /// Every truncation and every corrupted row count of a valid response.
    #[test]
    fn mutated_responses_fail_or_round_trip(
        id in 0u64..u64::MAX,
        rows in proptest::collection::vec((0u64..1 << 40, 0u16..64, 0u8..4, -100i32..100), 0..12),
        overloaded in (0u8..4, 0u32..1_000, 1u32..1_000),
    ) {
        let resp = if overloaded.0 == 0 {
            ServeResponse::Overloaded(Overloaded { id, queued: overloaded.1, capacity: overloaded.2 })
        } else {
            ServeResponse::Rows(ServeRows {
                id,
                rows: rows
                    .iter()
                    .map(|&(time_ms, node, attribute, value)| DurableRecord {
                        time_ms,
                        node: NodeId(node),
                        attribute,
                        value,
                    })
                    .collect(),
            })
        };
        let mut frame = Vec::new();
        resp.encode_into(&mut frame);
        prop_assert_eq!(ServeResponse::decode(&frame).ok(), Some(resp));
        for len in 0..frame.len() {
            check_response(&frame[..len]);
        }
        let mut longer = frame.clone();
        longer.push(0);
        check_response(&longer);
        let count = rows.len() as u32;
        for bad in [0, 1, u32::MAX, count.wrapping_sub(1), count + 1] {
            let mut bytes = frame.clone();
            bytes[9..13].copy_from_slice(&bad.to_le_bytes());
            check_response(&bytes);
        }
    }
}
