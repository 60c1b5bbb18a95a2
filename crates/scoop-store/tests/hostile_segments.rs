//! Segment files whose checksums are all valid but whose fields are not:
//! `Segment::open` and the lookups after it must answer with a typed error
//! (or a valid segment), never a panic or an allocation sized by an
//! unchecked field. Random byte flips alone only ever exercise the CRC
//! checks, so every mutation here re-seals the CRCs over what it touched
//! first: the header's, a block's, or the index and footer's.

use proptest::prelude::*;
use scoop_store::crc::crc32;
use scoop_store::{
    Segment, SegmentWriter, Store, StoreError, StoreOptions, FOOTER_LEN, HEADER_LEN,
};
use scoop_types::{DurableRecord, NodeId};
use std::ops::Range;
use std::path::{Path, PathBuf};

const INDEX_PREFIX_LEN: usize = 16;
const DIR_ENTRY_LEN: usize = 20;
const PLA_ENTRY_LEN: usize = 24;
const BLOCK_HEADER_LEN: usize = 8;
const RECORD_LEN: usize = 16;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scoop-hostile-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record(time_ms: u64, value: i32) -> DurableRecord {
    DurableRecord {
        time_ms,
        node: NodeId(3),
        attribute: 1,
        value,
    }
}

/// Seals `times` (non-decreasing) into a segment file and returns its bytes.
fn sealed_bytes(path: &Path, block_size: usize, times: &[u64]) -> Vec<u8> {
    let mut writer = SegmentWriter::create(path, block_size).unwrap();
    for (i, &t) in times.iter().enumerate() {
        writer.append(record(t, i as i32)).unwrap();
    }
    drop(writer.seal().unwrap());
    std::fs::read(path).unwrap()
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Where a sealed file's index region lies, read from its footer.
fn index_region(file: &[u8]) -> Range<usize> {
    let footer = file.len() - FOOTER_LEN;
    let offset = u64_at(file, footer + 24) as usize;
    offset..offset + u64_at(file, footer + 32) as usize
}

/// Recomputes the footer's index CRC over `index` and then the footer's own
/// CRC, so whatever was mutated gets past both checksums.
fn reseal(file: &mut [u8], index: Range<usize>) {
    let footer = file.len() - FOOTER_LEN;
    let index_crc = crc32(&file[index]);
    file[footer + 56..footer + 60].copy_from_slice(&index_crc.to_le_bytes());
    let footer_crc = crc32(&file[footer..footer + 60]);
    file[footer + 60..footer + 64].copy_from_slice(&footer_crc.to_le_bytes());
}

fn assert_corrupt(result: Result<Option<Segment>, StoreError>, path: &Path) {
    match result {
        Err(StoreError::Corrupt { path: named, .. }) => assert_eq!(named, path),
        other => panic!("expected Corrupt naming {}, got {other:?}", path.display()),
    }
}

/// A 96-byte file: a valid header declaring a 2²⁴ − 1 byte block, then a
/// CRC-valid footer whose `HEADER_LEN + block_count × block_size` wraps to
/// its `index_offset`, and whose `index_offset + index_len + FOOTER_LEN`
/// wraps to the file length — with an `index_len` of 2⁶² + 32 bytes.
fn wrapping_geometry_file() -> Vec<u8> {
    let block_size: u64 = (1 << 24) - 1;
    let index_offset: u64 = 3 << 62;
    let index_len = ((HEADER_LEN + FOOTER_LEN) as u64)
        .wrapping_sub(FOOTER_LEN as u64)
        .wrapping_sub(index_offset);
    // block_size is odd, so it has an inverse modulo 2⁶⁴ (Newton's
    // iteration doubles the correct low bits each step: 3 → 6 → … → 96).
    let mut inverse = block_size;
    for _ in 0..5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(block_size.wrapping_mul(inverse)));
    }
    let block_count = index_offset
        .wrapping_sub(HEADER_LEN as u64)
        .wrapping_mul(inverse);
    assert_eq!(
        (HEADER_LEN as u64).wrapping_add(block_count.wrapping_mul(block_size)),
        index_offset
    );

    let mut file = Vec::new();
    file.extend_from_slice(b"SCOOPSG1");
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&(block_size as u32).to_le_bytes());
    file.extend_from_slice(&[0u8; 8]);
    let header_crc = crc32(&file[0..24]);
    file.extend_from_slice(&header_crc.to_le_bytes());
    file.extend_from_slice(&[0u8; 4]);
    assert_eq!(file.len(), HEADER_LEN);

    file.extend_from_slice(b"SCOOPFT1");
    for field in [0, block_count, index_offset, index_len, 0, 0] {
        file.extend_from_slice(&field.to_le_bytes());
    }
    file.extend_from_slice(&[0u8; 8]);
    let end = file.len();
    reseal(&mut file, end..end);
    assert_eq!(file.len(), HEADER_LEN + FOOTER_LEN);
    file
}

#[test]
fn a_footer_whose_geometry_wraps_is_refused_before_allocating() {
    let dir = scratch("wrap");
    let path = dir.join("seg-00000000.scoop");
    std::fs::write(&path, wrapping_geometry_file()).unwrap();
    assert_corrupt(Segment::open(&path), &path);
    match Store::open(&dir, StoreOptions::default()) {
        Err(StoreError::Corrupt { path: named, .. }) => assert_eq!(named, path),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(path.exists(), "a refused file is left alone");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replaces a sealed file's learned-index table with `lines`
/// (`start_key`, `start_pos`, `slope`), keeping its block directory, and
/// rewrites the footer to match.
fn with_learned_lines(file: &[u8], lines: &[(u64, u64, f64)]) -> Vec<u8> {
    let old = index_region(file);
    let dir_count = u32_at(file, old.start) as usize;
    let mut index =
        file[old.start..old.start + INDEX_PREFIX_LEN + dir_count * DIR_ENTRY_LEN].to_vec();
    index[4..8].copy_from_slice(&(lines.len() as u32).to_le_bytes());
    for &(start_key, start_pos, slope) in lines {
        index.extend_from_slice(&start_key.to_le_bytes());
        index.extend_from_slice(&start_pos.to_le_bytes());
        index.extend_from_slice(&slope.to_bits().to_le_bytes());
    }
    let mut out = file[..old.start].to_vec();
    out.extend_from_slice(&index);
    let footer = out.len();
    out.extend_from_slice(&file[file.len() - FOOTER_LEN..]);
    out[footer + 32..footer + 40].copy_from_slice(&(index.len() as u64).to_le_bytes());
    reseal(&mut out, old.start..footer);
    out
}

#[test]
fn a_learned_index_whose_lines_cross_is_refused_at_open() {
    let dir = scratch("crossed");
    let path = dir.join("seg-00000000.scoop");
    // Four blocks of two records, times 0, 10, …, 70.
    let times: Vec<u64> = (0..8).map(|i| i * 10).collect();
    let sealed = sealed_bytes(&path, 8 + 16 * 2, &times);

    // Line 0 starts at block 1 and line 1 at block 0: predicting t = 0
    // would clamp into [1, 0].
    std::fs::write(
        &path,
        with_learned_lines(&sealed, &[(0, 1, 0.0), (50, 0, 0.0)]),
    )
    .unwrap();
    assert_corrupt(Segment::open(&path), &path);

    // The same table in order opens and answers.
    std::fs::write(
        &path,
        with_learned_lines(&sealed, &[(0, 0, 0.0), (50, 1, 0.0)]),
    )
    .unwrap();
    let segment = Segment::open(&path).unwrap().expect("sealed");
    assert_eq!(segment.query_point(0).unwrap().records, vec![record(0, 0)]);
    drop(segment);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn directory_and_line_rules_each_refuse_a_table() {
    let dir = scratch("rules");
    let path = dir.join("seg-00000000.scoop");
    let times: Vec<u64> = (0..8).map(|i| i * 10).collect();
    let sealed = sealed_bytes(&path, 8 + 16 * 2, &times);

    for lines in [
        vec![(0, 4, 0.0)],                // starts past the 4-block directory
        vec![(0, 0, -0.5)],               // negative slope
        vec![(0, 0, f64::NAN)],           // non-finite slope
        vec![(0, 0, f64::INFINITY)],      // non-finite slope
        vec![(30, 0, 0.1), (10, 2, 0.1)], // keys go back
    ] {
        std::fs::write(&path, with_learned_lines(&sealed, &lines)).unwrap();
        assert_corrupt(Segment::open(&path), &path);
    }

    let index = index_region(&sealed);
    let entry = |i: usize| index.start + INDEX_PREFIX_LEN + i * DIR_ENTRY_LEN;
    // Entry 1 ends before it starts; then entry 2 starts before entry 1 ends.
    for (at, value) in [(entry(1) + 8, 15u64), (entry(2), 25)] {
        let mut bad = sealed.clone();
        bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
        reseal(&mut bad, index.clone());
        std::fs::write(&path, &bad).unwrap();
        assert_corrupt(Segment::open(&path), &path);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Edge values for a field: the integer extremes, the sign bit, and the
/// bit patterns of NaN and ±∞. A 4-byte field takes the high half of a
/// pattern that does not fit in it.
const EDGES: [u64; 7] = [
    0,
    1,
    u64::MAX,
    1 << 63,
    0x7FF8_0000_0000_0000, // NaN
    0x7FF0_0000_0000_0000, // +∞
    0xFFF0_0000_0000_0000, // −∞
];

/// Every mutable field of a sealed file as `(offset, width)`: the footer's
/// six `u64`s, the index prefix, each directory entry and each learned line.
fn fields(file: &[u8]) -> Vec<(usize, usize)> {
    let footer = file.len() - FOOTER_LEN;
    let mut out: Vec<(usize, usize)> = (1..7).map(|k| (footer + 8 * k, 8)).collect();
    let index = index_region(file);
    out.extend((0..4).map(|k| (index.start + 4 * k, 4)));
    let dir_count = u32_at(file, index.start) as usize;
    let pla_count = u32_at(file, index.start + 4) as usize;
    for i in 0..dir_count {
        let at = index.start + INDEX_PREFIX_LEN + i * DIR_ENTRY_LEN;
        out.extend([(at, 8), (at + 8, 8), (at + 16, 4)]);
    }
    let lines = index.start + INDEX_PREFIX_LEN + dir_count * DIR_ENTRY_LEN;
    for j in 0..pla_count {
        let at = lines + j * PLA_ENTRY_LEN;
        out.extend([(at, 8), (at + 8, 8), (at + 16, 8)]);
    }
    out
}

/// Writes `value` into a field of `width` bytes: whole if it fits, else its
/// high bytes, so a narrow field still sees the sign bit and the float
/// exponents.
fn overwrite(file: &mut [u8], (at, width): (usize, usize), value: u64) {
    let bits = 8 * width as u32;
    let narrow = if bits == 64 || value >> bits == 0 {
        value
    } else {
        value >> (64 - bits)
    };
    file[at..at + width].copy_from_slice(&narrow.to_le_bytes()[..width]);
}

/// The header's version, block size and reserved word as `(offset, width)`.
const HEADER_FIELDS: [(usize, usize); 3] = [(8, 4), (12, 4), (16, 8)];

/// Every field of every data block but its checksum, as `(offset, width)`:
/// the record count and reserved half-word, then each stored record's node,
/// attribute, reserved byte, value and time.
fn block_fields(file: &[u8], block_size: usize) -> Vec<(usize, usize)> {
    let index = index_region(file);
    let mut out = Vec::new();
    for at in (HEADER_LEN..index.start).step_by(block_size) {
        out.extend([(at, 2), (at + 2, 2)]);
        let count = u16::from_le_bytes([file[at], file[at + 1]]) as usize;
        for r in (0..count).map(|i| at + BLOCK_HEADER_LEN + i * RECORD_LEN) {
            out.extend([(r, 2), (r + 2, 1), (r + 3, 1), (r + 4, 4), (r + 8, 8)]);
        }
    }
    out
}

/// Recomputes the header CRC and the CRC of every data block, laid out
/// with the file's original `block_size` (whatever the header now says).
fn reseal_header_and_blocks(file: &mut [u8], block_size: usize) {
    let header_crc = crc32(&file[0..24]);
    file[24..28].copy_from_slice(&header_crc.to_le_bytes());
    for at in (HEADER_LEN..index_region(file).start).step_by(block_size) {
        let crc = crc32(&file[at + BLOCK_HEADER_LEN..at + block_size]);
        file[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Opens the file and, if it opens, looks up across its span: every path
/// must come back as a value or a typed error.
fn open_and_query(path: &Path) {
    let Ok(Some(segment)) = Segment::open(path) else {
        return;
    };
    let (lo, hi) = (segment.min_time_ms(), segment.max_time_ms());
    for t in [0, lo, lo / 2 + hi / 2, hi, hi.saturating_add(1), u64::MAX] {
        if let Ok(found) = segment.query_point(t) {
            assert!(found.records.iter().all(|r| r.time_ms == t));
        }
    }
    for (t0, t1) in [(lo, hi), (0, u64::MAX), (hi, lo)] {
        if let Ok(found) = segment.query_range(t0, t1) {
            assert!(found.records.iter().all(|r| (t0..=t1).contains(&r.time_ms)));
        }
    }
    let _ = segment.scan_all();
}

/// `per_block` records to a block and the times `steps` walk through, step
/// 5 a jump so that some directories need several learned lines.
fn sealed_from_steps(path: &Path, per_block: usize, steps: &[u64]) -> (Vec<u8>, usize) {
    let times: Vec<u64> = steps
        .iter()
        .scan(0u64, |t, &d| {
            *t += if d == 5 { 100_000 } else { d };
            Some(*t)
        })
        .collect();
    let block_size = 8 + 16 * per_block;
    (sealed_bytes(path, block_size, &times), block_size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every field of a random small sealed segment, overwritten with every
    /// edge value under re-sealed CRCs, opens and answers without a panic.
    #[test]
    fn edge_values_in_any_field_never_panic_the_reader(
        per_block in 1usize..5,
        steps in proptest::collection::vec(0u64..6, 1..24),
    ) {
        let dir = scratch(&format!("mutate-{per_block}-{}", steps.len()));
        let path = dir.join("seg-00000000.scoop");
        let (sealed, _) = sealed_from_steps(&path, per_block, &steps);
        let index = index_region(&sealed);
        for field in fields(&sealed) {
            for value in EDGES {
                let mut bad = sealed.clone();
                overwrite(&mut bad, field, value);
                reseal(&mut bad, index.clone());
                std::fs::write(&path, &bad).unwrap();
                open_and_query(&path);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every header field (version, block size, reserved) and every field of
    /// every data block, overwritten with every edge value under re-sealed
    /// header and block CRCs, opens and answers without a panic.
    #[test]
    fn edge_values_in_header_and_block_fields_never_panic_the_reader(
        per_block in 1usize..5,
        steps in proptest::collection::vec(0u64..6, 1..24),
    ) {
        let dir = scratch(&format!("blocks-{per_block}-{}", steps.len()));
        let path = dir.join("seg-00000000.scoop");
        let (sealed, block_size) = sealed_from_steps(&path, per_block, &steps);
        // Re-sealing an untouched file reproduces its checksums, so a mutant
        // reaches the field checks behind them.
        let mut resealed = sealed.clone();
        reseal_header_and_blocks(&mut resealed, block_size);
        prop_assert!(resealed == sealed);
        let fields = HEADER_FIELDS.into_iter().chain(block_fields(&sealed, block_size));
        for field in fields {
            for value in EDGES {
                let mut bad = sealed.clone();
                overwrite(&mut bad, field, value);
                reseal_header_and_blocks(&mut bad, block_size);
                std::fs::write(&path, &bad).unwrap();
                open_and_query(&path);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
