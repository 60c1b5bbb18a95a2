//! Wire schema of the `scoop-serve` query front end.
//!
//! External clients talk to a serving process in fixed little-endian frames,
//! the same codec discipline as [`DurableRecord`]'s on-disk layout: every
//! crate that touches served bytes shares this one definition, and a format
//! change is a change to exactly one file.
//!
//! A request is a point/range predicate over `(value, sample time)`. A
//! response is either the matching rows in canonical
//! `(time, node, attribute, value)` order, or a typed [`Overloaded`]
//! rejection when the server's bounded admission queue is full — rejection is
//! part of the wire contract, never a dropped connection or a silent miss.
//!
//! Frame layouts (all integers little-endian):
//!
//! ```text
//! request  (32 bytes): id u64 | value_lo i32 | value_hi i32 | time_lo u64 | time_hi u64
//! response (rows):     id u64 | status 0 u8 | count u32 | count x 16-byte DurableRecord
//! response (overload): id u64 | status 1 u8 | queued u32 | capacity u32
//! ```
//!
//! The bytes after `id | status` of a rows response are its *payload*; the
//! serving tier's answer cache stores payloads verbatim, so a cache hit
//! splices the identical bytes an uncached evaluation would produce.

use crate::{DurableRecord, ScoopError, SimTime, Value, ValueRange, DURABLE_RECORD_LEN};
use serde::{Deserialize, Serialize};

/// Size of one encoded request frame, in bytes.
pub const SERVE_REQUEST_LEN: usize = 32;

/// Status byte of a rows response.
pub const SERVE_STATUS_ROWS: u8 = 0;
/// Status byte of an overloaded rejection.
pub const SERVE_STATUS_OVERLOADED: u8 = 1;

/// One external point/range query against a served network.
///
/// A point query is a request whose value range (and/or time range) is a
/// single point; there is no separate frame type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: u64,
    /// Value range of interest (inclusive).
    pub values: ValueRange,
    /// Earliest sample timestamp of interest (inclusive).
    pub time_lo: SimTime,
    /// Latest sample timestamp of interest (inclusive).
    pub time_hi: SimTime,
}

/// The predicate part of a request — everything except the request id. Two
/// requests with equal predicates have byte-identical response payloads, so
/// this is both the admission coalescing key and the answer-cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryPredicate {
    /// Inclusive low end of the value range.
    pub value_lo: Value,
    /// Inclusive high end of the value range.
    pub value_hi: Value,
    /// Earliest sample timestamp, in milliseconds.
    pub time_lo_ms: u64,
    /// Latest sample timestamp, in milliseconds.
    pub time_hi_ms: u64,
}

impl QueryPredicate {
    /// True if a record with this `(value, time)` would appear in the answer.
    pub fn matches(&self, value: Value, time_ms: u64) -> bool {
        value >= self.value_lo
            && value <= self.value_hi
            && time_ms >= self.time_lo_ms
            && time_ms <= self.time_hi_ms
    }
}

impl ServeRequest {
    /// The predicate this request asks about.
    pub fn predicate(&self) -> QueryPredicate {
        QueryPredicate {
            value_lo: self.values.lo,
            value_hi: self.values.hi,
            time_lo_ms: self.time_lo.as_millis(),
            time_hi_ms: self.time_hi.as_millis(),
        }
    }

    /// Encodes into the fixed 32-byte little-endian layout.
    pub fn encode_into(&self, out: &mut [u8; SERVE_REQUEST_LEN]) {
        out[0..8].copy_from_slice(&self.id.to_le_bytes());
        out[8..12].copy_from_slice(&self.values.lo.to_le_bytes());
        out[12..16].copy_from_slice(&self.values.hi.to_le_bytes());
        out[16..24].copy_from_slice(&self.time_lo.as_millis().to_le_bytes());
        out[24..32].copy_from_slice(&self.time_hi.as_millis().to_le_bytes());
    }

    /// Decodes the fixed layout written by [`ServeRequest::encode_into`].
    /// An inverted value range or time window is an encoding error, not
    /// silently normalized: the bytes did not come from this codec.
    pub fn decode(bytes: &[u8; SERVE_REQUEST_LEN]) -> Result<Self, ScoopError> {
        // Four 8-byte words, the second packing `lo` and `hi`. A
        // `SERVE_REQUEST_LEN` array always splits so; the `else` cannot fire.
        let ([id, values, t0, t1], []) = bytes.as_chunks() else {
            return Err(ScoopError::Serialization("serve request truncated".into()));
        };
        let [l0, l1, l2, l3, h0, h1, h2, h3] = *values;
        let (lo, hi) = (
            Value::from_le_bytes([l0, l1, l2, l3]),
            Value::from_le_bytes([h0, h1, h2, h3]),
        );
        let (t0, t1) = (u64::from_le_bytes(*t0), u64::from_le_bytes(*t1));
        if lo > hi {
            return Err(ScoopError::Serialization(format!(
                "serve request value range [{lo}, {hi}] is inverted"
            )));
        }
        if t0 > t1 {
            return Err(ScoopError::Serialization(format!(
                "serve request time window [{t0}, {t1}] ms is inverted"
            )));
        }
        Ok(ServeRequest {
            id: u64::from_le_bytes(*id),
            values: ValueRange::new(lo, hi),
            time_lo: SimTime::from_millis(t0),
            time_hi: SimTime::from_millis(t1),
        })
    }
}

/// Typed backpressure rejection: the bounded admission queue was full when
/// this request arrived. The client may retry after a tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Overloaded {
    /// The rejected request's id.
    pub id: u64,
    /// Requests queued when the rejection happened.
    pub queued: u32,
    /// The admission queue's capacity.
    pub capacity: u32,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request {} rejected: admission queue full ({}/{})",
            self.id, self.queued, self.capacity
        )
    }
}

/// One response frame: the rows, or a typed overload rejection.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeResponse {
    /// The matching rows, in canonical `(time, node, attribute, value)`
    /// order.
    Rows(ServeRows),
    /// The request was rejected by backpressure.
    Overloaded(Overloaded),
}

/// The rows half of a [`ServeResponse`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeRows {
    /// The request's id, echoed.
    pub id: u64,
    /// Matching records, canonically ordered.
    pub rows: Vec<DurableRecord>,
}

impl ServeResponse {
    /// The request id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            ServeResponse::Rows(r) => r.id,
            ServeResponse::Overloaded(o) => o.id,
        }
    }

    /// Appends this response's frame bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ServeResponse::Rows(r) => {
                let mut payload = Vec::with_capacity(4 + r.rows.len() * DURABLE_RECORD_LEN);
                append_rows_payload(&r.rows, &mut payload);
                append_rows_frame(r.id, &payload, out);
            }
            ServeResponse::Overloaded(o) => append_overloaded_frame(o, out),
        }
    }

    /// Decodes one whole response frame.
    pub fn decode(bytes: &[u8]) -> Result<Self, ScoopError> {
        let short = |what: &str| {
            ScoopError::Serialization(format!(
                "serve response frame truncated in {what} ({} bytes)",
                bytes.len()
            ))
        };
        let (id, rest) = bytes.split_first_chunk().ok_or_else(|| short("header"))?;
        let (&status, rest) = rest.split_first().ok_or_else(|| short("header"))?;
        let id = u64::from_le_bytes(*id);
        match status {
            SERVE_STATUS_ROWS => {
                let (count, body) = rest.split_first_chunk().ok_or_else(|| short("row count"))?;
                let count = u32::from_le_bytes(*count) as usize;
                if body.len() != count * DURABLE_RECORD_LEN {
                    return Err(ScoopError::Serialization(format!(
                        "serve response claims {count} rows but carries {} bytes",
                        body.len()
                    )));
                }
                let mut rows = Vec::with_capacity(count);
                for record in body.as_chunks().0 {
                    rows.push(DurableRecord::decode(record)?);
                }
                Ok(ServeResponse::Rows(ServeRows { id, rows }))
            }
            SERVE_STATUS_OVERLOADED => {
                let ([queued, capacity], []) = rest.as_chunks() else {
                    return Err(short("overload body"));
                };
                Ok(ServeResponse::Overloaded(Overloaded {
                    id,
                    queued: u32::from_le_bytes(*queued),
                    capacity: u32::from_le_bytes(*capacity),
                }))
            }
            other => Err(ScoopError::Serialization(format!(
                "unknown serve response status {other:#04x}"
            ))),
        }
    }
}

/// Appends the payload of a rows response — `count u32` followed by the
/// records — to `out`. The serving tier caches these bytes verbatim.
pub fn append_rows_payload(rows: &[DurableRecord], out: &mut Vec<u8>) {
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    let mut buf = [0u8; DURABLE_RECORD_LEN];
    for row in rows {
        row.encode_into(&mut buf);
        out.extend_from_slice(&buf);
    }
}

/// Appends a whole rows frame (`id | status | payload`) to `out`.
pub fn append_rows_frame(id: u64, payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&id.to_le_bytes());
    out.push(SERVE_STATUS_ROWS);
    out.extend_from_slice(payload);
}

/// Appends a whole overloaded frame to `out`.
pub fn append_overloaded_frame(o: &Overloaded, out: &mut Vec<u8>) {
    out.extend_from_slice(&o.id.to_le_bytes());
    out.push(SERVE_STATUS_OVERLOADED);
    out.extend_from_slice(&o.queued.to_le_bytes());
    out.extend_from_slice(&o.capacity.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn record(time_ms: u64, node: u16, value: Value) -> DurableRecord {
        DurableRecord {
            time_ms,
            node: NodeId(node),
            attribute: 0,
            value,
        }
    }

    #[test]
    fn request_round_trip_and_layout() {
        let req = ServeRequest {
            id: 0xDEAD_BEEF_0102_0304,
            values: ValueRange::new(-3, 17),
            time_lo: SimTime::from_millis(1_000),
            time_hi: SimTime::from_millis(9_999),
        };
        let mut buf = [0u8; SERVE_REQUEST_LEN];
        req.encode_into(&mut buf);
        assert_eq!(buf[0..8], req.id.to_le_bytes());
        assert_eq!(buf[8..12], (-3i32).to_le_bytes());
        assert_eq!(ServeRequest::decode(&buf).unwrap(), req);
    }

    #[test]
    fn inverted_value_range_is_a_decode_error() {
        let req = ServeRequest {
            id: 1,
            values: ValueRange::new(0, 10),
            time_lo: SimTime::ZERO,
            time_hi: SimTime::from_secs(1),
        };
        let mut buf = [0u8; SERVE_REQUEST_LEN];
        req.encode_into(&mut buf);
        buf[8..12].copy_from_slice(&20i32.to_le_bytes()); // lo > hi
        assert!(ServeRequest::decode(&buf).is_err());
    }

    #[test]
    fn inverted_time_window_is_a_decode_error() {
        let req = ServeRequest {
            id: 1,
            values: ValueRange::new(0, 10),
            time_lo: SimTime::from_millis(25),
            time_hi: SimTime::from_millis(15),
        };
        let mut buf = [0u8; SERVE_REQUEST_LEN];
        req.encode_into(&mut buf);
        match ServeRequest::decode(&buf) {
            Err(ScoopError::Serialization(msg)) => {
                assert!(msg.contains("time window [25, 15] ms is inverted"), "{msg}")
            }
            other => panic!("an inverted window decoded as {other:?}"),
        }
        // A one-instant window is not inverted.
        buf[24..32].copy_from_slice(&25u64.to_le_bytes());
        assert!(ServeRequest::decode(&buf).is_ok());
    }

    #[test]
    fn rows_response_round_trip() {
        let resp = ServeResponse::Rows(ServeRows {
            id: 42,
            rows: vec![record(5, 1, -7), record(6, 2, 9)],
        });
        let mut frame = Vec::new();
        resp.encode_into(&mut frame);
        assert_eq!(frame.len(), 8 + 1 + 4 + 2 * DURABLE_RECORD_LEN);
        assert_eq!(frame[8], SERVE_STATUS_ROWS);
        assert_eq!(ServeResponse::decode(&frame).unwrap(), resp);
        assert_eq!(resp.id(), 42);
    }

    #[test]
    fn empty_rows_response_round_trip() {
        let resp = ServeResponse::Rows(ServeRows {
            id: 7,
            rows: Vec::new(),
        });
        let mut frame = Vec::new();
        resp.encode_into(&mut frame);
        assert_eq!(frame.len(), 13);
        assert_eq!(ServeResponse::decode(&frame).unwrap(), resp);
    }

    #[test]
    fn overloaded_response_round_trip() {
        let resp = ServeResponse::Overloaded(Overloaded {
            id: 9,
            queued: 1024,
            capacity: 1024,
        });
        let mut frame = Vec::new();
        resp.encode_into(&mut frame);
        assert_eq!(frame.len(), 17);
        assert_eq!(frame[8], SERVE_STATUS_OVERLOADED);
        assert_eq!(ServeResponse::decode(&frame).unwrap(), resp);
        assert_eq!(resp.id(), 9);
        let shown = format!(
            "{}",
            Overloaded {
                id: 9,
                queued: 1024,
                capacity: 1024,
            }
        );
        assert!(shown.contains("queue full"), "{shown}");
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        assert!(ServeResponse::decode(&[]).is_err());
        assert!(ServeResponse::decode(&[0; 8]).is_err());
        let mut frame = Vec::new();
        ServeResponse::Rows(ServeRows {
            id: 1,
            rows: vec![record(1, 1, 1)],
        })
        .encode_into(&mut frame);
        frame.pop(); // truncate the last record byte
        assert!(ServeResponse::decode(&frame).is_err());
        frame.push(0);
        frame[8] = 0x7F; // unknown status
        assert!(ServeResponse::decode(&frame).is_err());
    }

    #[test]
    fn cached_payload_splice_is_byte_identical_to_direct_encoding() {
        // The serving tier's cache stores a rows payload and splices it under
        // a different request id; the result must equal a direct encoding.
        let rows = vec![record(3, 4, 5), record(8, 1, -2)];
        let mut payload = Vec::new();
        append_rows_payload(&rows, &mut payload);

        let mut spliced = Vec::new();
        append_rows_frame(77, &payload, &mut spliced);

        let mut direct = Vec::new();
        ServeResponse::Rows(ServeRows { id: 77, rows }).encode_into(&mut direct);
        assert_eq!(spliced, direct);
    }

    #[test]
    fn predicate_matching_and_coalescing_key() {
        let a = ServeRequest {
            id: 1,
            values: ValueRange::new(2, 4),
            time_lo: SimTime::from_millis(10),
            time_hi: SimTime::from_millis(20),
        };
        let b = ServeRequest { id: 2, ..a };
        assert_eq!(a.predicate(), b.predicate(), "id is not part of the key");
        let p = a.predicate();
        assert!(p.matches(3, 15));
        assert!(!p.matches(5, 15), "value outside range");
        assert!(!p.matches(3, 21), "time outside range");
        assert!(p.matches(2, 10) && p.matches(4, 20), "bounds are inclusive");
    }
}
