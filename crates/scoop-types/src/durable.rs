//! The durable on-disk form of one sensor reading.
//!
//! [`DurableRecord`] is the schema-stable `(node, attribute, time, value)`
//! tuple the `scoop-store` basestation store appends to its segment log. The
//! fixed 16-byte little-endian encoding lives here — next to the types it is
//! made of — so that every crate that touches persisted bytes shares one
//! definition, and a format change is a change to exactly one file.
//!
//! Records sort by `(time, node, attribute, value)`: the segment log is
//! time-ordered (that is what makes the binary search over the block
//! directory's time column work), and the remaining fields give ingest a
//! total order so equal-time records land deterministically.

use crate::{Attribute, NodeId, Reading, ScoopError, SimTime, Value};
use serde::{Deserialize, Serialize};

/// Size of one encoded record on disk, in bytes.
pub const DURABLE_RECORD_LEN: usize = 16;

/// One `(node, attribute, time, value)` reading in its durable form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DurableRecord {
    /// Sample timestamp in simulated milliseconds. First field so the derived
    /// `Ord` sorts time-major, matching the segment log's required order.
    pub time_ms: u64,
    /// The node the reading belongs to (its producer).
    pub node: NodeId,
    /// Stable one-byte attribute code (see [`attribute_code`]).
    pub attribute: u8,
    /// The sampled value.
    pub value: Value,
}

/// The stable on-disk code of an attribute: its position in
/// [`Attribute::ALL`]. Appending new attributes keeps old codes valid.
pub fn attribute_code(attribute: Attribute) -> u8 {
    // Invariant: `Attribute::ALL` lists each of the enum's five variants, so
    // the search always finds `attribute`; its input is an in-memory
    // `Attribute`, never outside bytes.
    Attribute::ALL
        .iter()
        .position(|&a| a == attribute)
        .expect("every attribute is listed in Attribute::ALL") as u8
}

/// The attribute for a stored code, or `None` for a code this build does not
/// know (a record written by a newer schema).
pub fn attribute_from_code(code: u8) -> Option<Attribute> {
    Attribute::ALL.get(code as usize).copied()
}

impl DurableRecord {
    /// Builds the durable form of an in-memory reading.
    pub fn from_reading(reading: &Reading) -> Self {
        DurableRecord {
            time_ms: reading.timestamp.as_millis(),
            node: reading.producer,
            attribute: attribute_code(reading.attribute),
            value: reading.value,
        }
    }

    /// Reconstructs the in-memory reading, if the attribute code is known.
    pub fn to_reading(&self) -> Option<Reading> {
        attribute_from_code(self.attribute).map(|attribute| Reading {
            producer: self.node,
            attribute,
            value: self.value,
            timestamp: SimTime::from_millis(self.time_ms),
        })
    }

    /// Encodes into the fixed 16-byte little-endian layout:
    /// `node u16 | attribute u8 | reserved u8 (0) | value i32 | time u64`.
    pub fn encode_into(&self, out: &mut [u8; DURABLE_RECORD_LEN]) {
        out[0..2].copy_from_slice(&self.node.0.to_le_bytes());
        out[2] = self.attribute;
        out[3] = 0;
        out[4..8].copy_from_slice(&self.value.to_le_bytes());
        out[8..16].copy_from_slice(&self.time_ms.to_le_bytes());
    }

    /// Decodes the fixed layout written by [`DurableRecord::encode_into`].
    /// The reserved byte must be zero — anything else means the bytes are not
    /// a record of this schema version.
    pub fn decode(bytes: &[u8; DURABLE_RECORD_LEN]) -> Result<Self, ScoopError> {
        let [n0, n1, attribute, reserved, v0, v1, v2, v3, time @ ..] = *bytes;
        if reserved != 0 {
            return Err(ScoopError::Store(format!(
                "record reserved byte is {reserved:#04x}, expected 0 (newer schema?)"
            )));
        }
        Ok(DurableRecord {
            node: NodeId(u16::from_le_bytes([n0, n1])),
            attribute,
            value: Value::from_le_bytes([v0, v1, v2, v3]),
            time_ms: u64::from_le_bytes(time),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_codes_are_stable_and_round_trip() {
        for (i, &a) in Attribute::ALL.iter().enumerate() {
            assert_eq!(attribute_code(a) as usize, i);
            assert_eq!(attribute_from_code(i as u8), Some(a));
        }
        assert_eq!(attribute_from_code(200), None);
    }

    #[test]
    fn reading_round_trip() {
        let r = Reading::new(
            NodeId(7),
            Attribute::Light,
            -42,
            SimTime::from_millis(12345),
        );
        let d = DurableRecord::from_reading(&r);
        assert_eq!(d.to_reading(), Some(r));
    }

    #[test]
    fn binary_round_trip_and_layout() {
        let d = DurableRecord {
            time_ms: 0x0102_0304_0506_0708,
            node: NodeId(0xBEEF),
            attribute: 2,
            value: -5,
        };
        let mut buf = [0u8; DURABLE_RECORD_LEN];
        d.encode_into(&mut buf);
        assert_eq!(buf[0..2], 0xBEEFu16.to_le_bytes());
        assert_eq!(buf[2], 2);
        assert_eq!(buf[3], 0, "reserved byte");
        assert_eq!(DurableRecord::decode(&buf).unwrap(), d);

        let mut bad = buf;
        bad[3] = 1;
        assert!(DurableRecord::decode(&bad).is_err());
    }

    #[test]
    fn ordering_is_time_major() {
        let a = DurableRecord {
            time_ms: 1,
            node: NodeId(9),
            attribute: 4,
            value: 100,
        };
        let b = DurableRecord {
            time_ms: 2,
            node: NodeId(0),
            attribute: 0,
            value: -100,
        };
        assert!(a < b);
    }
}
