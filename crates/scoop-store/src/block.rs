//! Fixed-size, self-validating data blocks.
//!
//! A segment's data region is a sequence of blocks of exactly
//! `block_size` bytes. Each block carries its own 8-byte header —
//! `record_count u16 | reserved u16 (0) | payload_crc u32` — followed by the
//! payload: `record_count` encoded [`DurableRecord`]s and zero padding to
//! the block boundary. The CRC covers the *entire* payload region including
//! the padding, so a bit flip anywhere in the block (even in "unused" bytes)
//! is detected. Blocks are the unit of durability (a block is written in one
//! `write_all`) and the unit of read I/O (queries fetch whole blocks).

use crate::crc::crc32;
use crate::error::{corrupt, Result};
use scoop_types::{DurableRecord, DURABLE_RECORD_LEN};
use std::path::Path;

/// Bytes of the per-block header.
pub const BLOCK_HEADER_LEN: usize = 8;

/// Smallest usable block: header plus one record.
pub const MIN_BLOCK_SIZE: usize = BLOCK_HEADER_LEN + DURABLE_RECORD_LEN;

/// How many records fit in one block of `block_size` bytes.
pub fn records_per_block(block_size: usize) -> usize {
    (block_size - BLOCK_HEADER_LEN) / DURABLE_RECORD_LEN
}

/// The in-memory summary of one block: its time fences and record count.
/// The sparse block directory is a `Vec<BlockMeta>`; at 4 KiB blocks that is
/// 20 bytes of directory per 255 records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Timestamp of the block's first record (ms).
    pub first_time_ms: u64,
    /// Timestamp of the block's last record (ms).
    pub last_time_ms: u64,
    /// Records stored in the block.
    pub count: u32,
}

/// Encodes `records` (all of them; the caller slices) into one block of
/// `block_size` bytes. Records must fit.
pub fn encode_block(records: &[DurableRecord], block_size: usize) -> Vec<u8> {
    assert!(records.len() <= records_per_block(block_size));
    assert!(!records.is_empty(), "blocks are never written empty");
    let mut block = vec![0u8; block_size];
    let mut offset = BLOCK_HEADER_LEN;
    for record in records {
        let mut buf = [0u8; DURABLE_RECORD_LEN];
        record.encode_into(&mut buf);
        block[offset..offset + DURABLE_RECORD_LEN].copy_from_slice(&buf);
        offset += DURABLE_RECORD_LEN;
    }
    let crc = crc32(&block[BLOCK_HEADER_LEN..]);
    block[0..2].copy_from_slice(&(records.len() as u16).to_le_bytes());
    block[2..4].copy_from_slice(&0u16.to_le_bytes());
    block[4..8].copy_from_slice(&crc.to_le_bytes());
    block
}

/// Decodes and validates one block, appending its records to `out` in
/// stored order. `path` is only used for error context. This is the only
/// block decoder: every read path hands it a buffer it reuses across blocks.
/// On error `out` is left as it was.
pub fn decode_block_into(
    bytes: &[u8],
    block_size: usize,
    path: &Path,
    block_index: usize,
    out: &mut Vec<DurableRecord>,
) -> Result<()> {
    if bytes.len() != block_size {
        return Err(corrupt(
            path,
            format!(
                "block {block_index}: {} bytes on disk, block size is {block_size}",
                bytes.len()
            ),
        ));
    }
    let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    let reserved = u16::from_le_bytes([bytes[2], bytes[3]]);
    let stored_crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if reserved != 0 {
        return Err(corrupt(
            path,
            format!("block {block_index}: reserved field is {reserved:#06x}"),
        ));
    }
    if count == 0 || count > records_per_block(block_size) {
        return Err(corrupt(
            path,
            format!("block {block_index}: impossible record count {count}"),
        ));
    }
    let actual_crc = crc32(&bytes[BLOCK_HEADER_LEN..]);
    if actual_crc != stored_crc {
        return Err(corrupt(
            path,
            format!(
                "block {block_index}: payload checksum mismatch \
                 (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            ),
        ));
    }
    let start = out.len();
    out.reserve(count);
    let payload = &bytes[BLOCK_HEADER_LEN..BLOCK_HEADER_LEN + count * DURABLE_RECORD_LEN];
    for raw in payload.as_chunks::<DURABLE_RECORD_LEN>().0 {
        match DurableRecord::decode(raw) {
            Ok(record) => out.push(record),
            Err(e) => {
                out.truncate(start);
                return Err(corrupt(path, format!("block {block_index}: {e}")));
            }
        }
    }
    Ok(())
}

/// Summarizes a decoded block (records are stored time-ordered).
pub fn meta_of(records: &[DurableRecord]) -> BlockMeta {
    BlockMeta {
        first_time_ms: records.first().map(|r| r.time_ms).unwrap_or(0),
        last_time_ms: records.last().map(|r| r.time_ms).unwrap_or(0),
        count: records.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::NodeId;

    fn decode(bytes: &[u8], block_size: usize, block_index: usize) -> Result<Vec<DurableRecord>> {
        let mut records = Vec::new();
        decode_block_into(bytes, block_size, Path::new("t"), block_index, &mut records)?;
        Ok(records)
    }

    fn record(t: u64, v: i32) -> DurableRecord {
        DurableRecord {
            time_ms: t,
            node: NodeId(1),
            attribute: 2,
            value: v,
        }
    }

    #[test]
    fn round_trip_partial_and_full_blocks() {
        let block_size = 8 + 16 * 4;
        assert_eq!(records_per_block(block_size), 4);
        for n in 1..=4 {
            let records: Vec<DurableRecord> = (0..n).map(|i| record(i as u64, i)).collect();
            let bytes = encode_block(&records, block_size);
            assert_eq!(bytes.len(), block_size);
            let back = decode(&bytes, block_size, 0).unwrap();
            assert_eq!(back, records);
            assert_eq!(meta_of(&back).count, n as u32);
        }
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let block_size = 8 + 16 * 2;
        let bytes = encode_block(&[record(5, 50)], block_size);
        // Flip every byte position in turn — header, payload, and the
        // padding after the last record must all be covered.
        for pos in 0..block_size {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode(&bad, block_size, 7).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn decode_into_appends_and_leaves_the_buffer_alone_on_error() {
        let block_size = 8 + 16 * 2;
        let first = encode_block(&[record(1, 10), record(2, 20)], block_size);
        let second = encode_block(&[record(3, 30)], block_size);
        let mut out = Vec::new();
        decode_block_into(&first, block_size, Path::new("t"), 0, &mut out).unwrap();
        decode_block_into(&second, block_size, Path::new("t"), 1, &mut out).unwrap();
        assert_eq!(out, vec![record(1, 10), record(2, 20), record(3, 30)]);

        // A record whose reserved byte is set, under a checksum that matches:
        // the failure comes after the first record was already decoded.
        let mut bad = first.clone();
        bad[BLOCK_HEADER_LEN + DURABLE_RECORD_LEN + 3] = 1;
        let crc = crc32(&bad[BLOCK_HEADER_LEN..]);
        bad[4..8].copy_from_slice(&crc.to_le_bytes());
        let err = decode_block_into(&bad, block_size, Path::new("t"), 9, &mut out).unwrap_err();
        assert!(err.to_string().contains("block 9"), "{err}");
        assert_eq!(out.len(), 3, "a failed block contributes nothing");
    }

    #[test]
    fn impossible_counts_are_rejected() {
        let block_size = 8 + 16 * 2;
        let bytes = encode_block(&[record(1, 1)], block_size);
        let mut bad = bytes.clone();
        bad[0] = 0; // count 0
        assert!(decode(&bad, block_size, 0).is_err());
        let mut bad = bytes;
        bad[0] = 200; // count beyond capacity
        assert!(decode(&bad, block_size, 0).is_err());
    }
}
