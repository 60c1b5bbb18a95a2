//! A segment assembled byte by byte from `docs/STORE_FORMAT.md` — every
//! checksum computed bit by bit from the polynomial, sharing no table and no
//! code with the crate — must open sealed and read back. This is the format's
//! fixture: the checksum *implementation* may change (byte-at-a-time, then
//! slice-by-8, then four interleaved lanes on long inputs); the values on
//! disk may not.

use scoop_store::crc::LANE_MIN;
use scoop_store::{RecoveryOutcome, Segment, SegmentWriter, StoreError};
use scoop_types::{DurableRecord, NodeId};

/// CRC-32/IEEE straight from its definition: one bit per step.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

const BLOCK_SIZE: usize = 72; // 8-byte block header + four 16-byte records
/// The default block size: its payload, and the index region of a segment
/// of [`LARGE_BLOCKS`] of them, are long enough for the laned checksum.
const PAGE_BLOCK_SIZE: usize = 4096;
const LARGE_BLOCKS: usize = 16;

fn record(time_ms: u64, value: i32) -> DurableRecord {
    DurableRecord {
        time_ms,
        node: NodeId(0x0102),
        attribute: 1,
        value,
    }
}

fn block(records: &[DurableRecord], block_size: usize) -> Vec<u8> {
    let mut out = vec![0u8; block_size];
    out[0..2].copy_from_slice(&(records.len() as u16).to_le_bytes());
    for (i, r) in records.iter().enumerate() {
        let at = 8 + 16 * i;
        out[at..at + 2].copy_from_slice(&r.node.0.to_le_bytes());
        out[at + 2] = r.attribute;
        out[at + 4..at + 8].copy_from_slice(&r.value.to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&r.time_ms.to_le_bytes());
    }
    let crc = crc32_bitwise(&out[8..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Header, the blocks, index region with one legacy PLA line, footer.
/// `dir_counts` are the record counts the directory claims per block (honest
/// callers pass the lengths).
fn documented_segment(
    block_size: usize,
    blocks: &[Vec<DurableRecord>],
    dir_counts: &[u32],
) -> Vec<u8> {
    documented_segment_with_lines(block_size, blocks, dir_counts, 1)
}

/// [`documented_segment`] with `pla_lines` (0 or 1) legacy PLA lines: 0 is
/// what the writer emits, 1 what earlier builds did.
fn documented_segment_with_lines(
    block_size: usize,
    blocks: &[Vec<DurableRecord>],
    dir_counts: &[u32],
    pla_lines: u32,
) -> Vec<u8> {
    let mut file = Vec::new();
    file.extend_from_slice(b"SCOOPSG1");
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&(block_size as u32).to_le_bytes());
    file.extend_from_slice(&[0u8; 8]);
    let header_crc = crc32_bitwise(&file[0..24]);
    file.extend_from_slice(&header_crc.to_le_bytes());
    file.extend_from_slice(&[0u8; 4]);
    for records in blocks {
        file.extend_from_slice(&block(records, block_size));
    }

    // At most one flat PLA line through the origin, its error bound at least
    // the directory's length, covering every block.
    let index_offset = file.len() as u64;
    let mut index = Vec::new();
    index.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    index.extend_from_slice(&pla_lines.to_le_bytes());
    index.extend_from_slice(&(blocks.len() as u32).max(8).to_le_bytes());
    index.extend_from_slice(&0u32.to_le_bytes());
    for (records, count) in blocks.iter().zip(dir_counts) {
        index.extend_from_slice(&records[0].time_ms.to_le_bytes());
        index.extend_from_slice(&records[records.len() - 1].time_ms.to_le_bytes());
        index.extend_from_slice(&count.to_le_bytes());
    }
    for _ in 0..pla_lines {
        index.extend_from_slice(&0u64.to_le_bytes());
        index.extend_from_slice(&0u64.to_le_bytes());
        index.extend_from_slice(&0f64.to_bits().to_le_bytes());
    }
    file.extend_from_slice(&index);

    let all: Vec<&DurableRecord> = blocks.iter().flatten().collect();
    let mut footer = Vec::new();
    footer.extend_from_slice(b"SCOOPFT1");
    let claimed: u64 = dir_counts.iter().map(|&c| c as u64).sum();
    footer.extend_from_slice(&claimed.to_le_bytes());
    footer.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
    footer.extend_from_slice(&index_offset.to_le_bytes());
    footer.extend_from_slice(&(index.len() as u64).to_le_bytes());
    footer.extend_from_slice(&all[0].time_ms.to_le_bytes());
    footer.extend_from_slice(&all[all.len() - 1].time_ms.to_le_bytes());
    footer.extend_from_slice(&crc32_bitwise(&index).to_le_bytes());
    let footer_crc = crc32_bitwise(&footer);
    footer.extend_from_slice(&footer_crc.to_le_bytes());
    assert_eq!(footer.len(), 64);
    file.extend_from_slice(&footer);
    file
}

fn two_blocks() -> Vec<Vec<DurableRecord>> {
    vec![
        vec![
            record(10, -7),
            record(10, 3),
            record(25, 40),
            record(31, 41),
        ],
        vec![record(31, 42), record(90, i32::MAX)],
    ]
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("scoop-store-fixture-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_segment_built_from_the_format_document_opens_and_reads_back() {
    let blocks = two_blocks();
    let dir = scratch_dir("opens");
    let path = dir.join("seg-00000000.scoop");
    let bytes = documented_segment(BLOCK_SIZE, &blocks, &[4, 2]);
    std::fs::write(&path, &bytes).unwrap();

    let segment = Segment::open(&path).unwrap().expect("committed data");
    assert_eq!(
        segment.recovery(),
        RecoveryOutcome::Sealed,
        "header, index-region and footer checksums all verify"
    );
    assert_eq!(segment.record_count(), 6);
    assert_eq!(segment.block_count(), 2);
    let expected: Vec<DurableRecord> = blocks.concat();
    assert_eq!(segment.scan_all().unwrap().records, expected);
    assert_eq!(segment.query_point(31).unwrap().records, expected[3..5]);
    assert_eq!(segment.query_range(11, 89).unwrap().records, expected[2..5]);
    drop(segment);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "opening a sealed file rewrites nothing"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The writer's form: an empty PLA array (`pla_count = 0`), the index
/// region just the prefix and the directory.
#[test]
fn a_segment_without_pla_lines_opens_and_reads_back() {
    let blocks = two_blocks();
    let dir = scratch_dir("no-lines");
    let path = dir.join("seg-00000000.scoop");
    let bytes = documented_segment_with_lines(BLOCK_SIZE, &blocks, &[4, 2], 0);
    assert_eq!(
        bytes.len(),
        32 + 2 * BLOCK_SIZE + (16 + 20 * 2) + 64,
        "header, blocks, prefix and directory, footer"
    );
    std::fs::write(&path, &bytes).unwrap();

    let segment = Segment::open(&path).unwrap().expect("committed data");
    assert_eq!(segment.recovery(), RecoveryOutcome::Sealed);
    assert_eq!(segment.record_count(), 6);
    let expected: Vec<DurableRecord> = blocks.concat();
    assert_eq!(segment.scan_all().unwrap().records, expected);
    assert_eq!(segment.query_point(31).unwrap().records, expected[3..5]);
    assert_eq!(segment.query_range(11, 89).unwrap().records, expected[2..5]);
    drop(segment);
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `SegmentWriter::seal` writes no PLA lines: `pla_count` is 0, the
/// `max_error` word is non-zero (earlier readers refuse 0), and the index
/// region is exactly `16 + 20 × blocks` bytes.
#[test]
fn the_writer_seals_an_index_region_of_prefix_and_directory_only() {
    let dir = scratch_dir("writer");
    let path = dir.join("seg-00000000.scoop");
    let mut writer = SegmentWriter::create(&path, BLOCK_SIZE).unwrap();
    for t in 0..11u64 {
        writer.append(record(t * 5, t as i32)).unwrap();
    }
    let blocks = writer.seal().unwrap().block_count();
    assert_eq!(blocks, 3, "four records to a block");

    let file = std::fs::read(&path).unwrap();
    let u64_at = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
    let u32_at = |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().unwrap());
    let footer = file.len() - 64;
    let (index_offset, index_len) = (u64_at(footer + 24) as usize, u64_at(footer + 32) as usize);
    assert_eq!(index_len, 16 + 20 * blocks);
    assert_eq!(index_offset + index_len, footer);
    assert_eq!(u32_at(index_offset), blocks as u32, "dir_count");
    assert_eq!(u32_at(index_offset + 4), 0, "pla_count");
    assert_ne!(u32_at(index_offset + 8), 0, "max_error");
    assert_eq!(
        crc32_bitwise(&file[index_offset..footer]),
        u32_at(footer + 56)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Page-sized blocks: every block payload (4,088 B) and the index region
/// are past the checksum's lane threshold, so the crate's laned kernel must
/// agree with the bitwise one here too.
#[test]
fn a_page_block_segment_past_the_lane_threshold_opens_and_reads_back() {
    let per_block = (PAGE_BLOCK_SIZE - 8) / 16;
    let blocks: Vec<Vec<DurableRecord>> = (0..LARGE_BLOCKS)
        .map(|b| {
            let len = if b + 1 == LARGE_BLOCKS { 7 } else { per_block };
            (0..len)
                .map(|i| {
                    let n = (b * per_block + i) as u64;
                    record(n * 10, (n as i32).wrapping_mul(-7919))
                })
                .collect()
        })
        .collect();
    let counts: Vec<u32> = blocks.iter().map(|b| b.len() as u32).collect();
    let bytes = documented_segment(PAGE_BLOCK_SIZE, &blocks, &counts);
    let index_len = 16 + 20 * LARGE_BLOCKS + 24;
    assert!(index_len > LANE_MIN && PAGE_BLOCK_SIZE - 8 > LANE_MIN);

    let dir = scratch_dir("page-blocks");
    let path = dir.join("seg-00000000.scoop");
    std::fs::write(&path, &bytes).unwrap();
    let segment = Segment::open(&path).unwrap().expect("committed data");
    assert_eq!(segment.recovery(), RecoveryOutcome::Sealed);
    assert_eq!(segment.block_count(), LARGE_BLOCKS);
    let expected: Vec<DurableRecord> = blocks.concat();
    assert_eq!(segment.record_count(), expected.len() as u64);
    assert_eq!(segment.scan_all().unwrap().records, expected);
    let last = expected[expected.len() - 1];
    assert_eq!(segment.query_point(last.time_ms).unwrap().records, [last]);
    let (from, to) = (expected[300].time_ms, expected[700].time_ms);
    assert_eq!(
        segment.query_range(from, to).unwrap().records,
        expected[300..=700]
    );
    drop(segment);
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Scans size their buffers from the footer's record count, so a directory
/// (checksummed like any other, by whoever wrote it) may not claim more
/// records than its blocks can hold.
#[test]
fn a_directory_claiming_more_records_than_a_block_holds_is_refused() {
    let dir = scratch_dir("overclaim");
    let path = dir.join("seg-00000000.scoop");
    std::fs::write(
        &path,
        documented_segment(BLOCK_SIZE, &two_blocks(), &[4, u32::MAX]),
    )
    .unwrap();
    match Segment::open(&path) {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(
                detail.contains("more records than a block holds"),
                "{detail}"
            )
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(path.exists(), "a refused file is left alone");
    std::fs::remove_dir_all(&dir).unwrap();
}
