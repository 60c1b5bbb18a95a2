//! Compaction's contract, pinned at the byte level: the merged segment is the
//! file that "read every input record, sort canonically, write, seal" would
//! produce. That algorithm lives on here as the test-only [`oracle_bytes`];
//! the store's own merge streams its inputs a block at a time and must not be
//! distinguishable from it.
//!
//! Inputs are written straight through [`SegmentWriter`] so their shape is
//! under the test's control: tiny blocks, short blocks left by mid-stream
//! `sync`s, equal-time runs in *non*-canonical order (legal inside a segment,
//! which is only time-ordered) that straddle block and input boundaries,
//! overlapping and rolled-back time ranges, and exact duplicates.

use proptest::prelude::*;
use scoop_store::{Segment, SegmentWriter, Store, StoreError, StoreOptions, HEADER_LEN};
use scoop_types::{DurableRecord, NodeId};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scoop-compact-id-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn record(t: u64, node: u16, attribute: u8, value: i32) -> DurableRecord {
    DurableRecord {
        time_ms: t,
        node: NodeId(node),
        attribute,
        value,
    }
}

/// Never compacts on its own; `compact_all_blocking` is called explicitly.
fn options(per_block: usize) -> StoreOptions {
    StoreOptions {
        block_size: 8 + 16 * per_block,
        seal_after_records: u64::MAX,
        compact_tier_segments: 0,
    }
}

/// The sealed segment files of `db`, in id order.
fn segment_files(db: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(db)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "scoop"))
        .collect();
    files.sort();
    files
}

fn leftovers(db: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(db)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
        .collect()
}

/// One input segment: records in time order, `true` = `sync` after it (which
/// flushes a short block).
type Input = Vec<(DurableRecord, bool)>;

fn write_inputs(db: &Path, per_block: usize, inputs: &[Input]) {
    for (id, input) in inputs.iter().enumerate() {
        let path = db.join(format!("seg-{id:08}.scoop"));
        let mut writer = SegmentWriter::create(&path, 8 + 16 * per_block).unwrap();
        for &(record, sync) in input {
            writer.append(record).unwrap();
            if sync {
                writer.sync().unwrap();
            }
        }
        writer.seal().unwrap();
    }
}

/// The reference compaction: every record of every input in one `Vec`, one
/// full canonical sort, one writer, one seal. Returns the sealed file's bytes.
fn oracle_bytes(inputs: &[PathBuf], block_size: usize, scratch_file: &Path) -> Vec<u8> {
    let mut records = Vec::new();
    for path in inputs {
        let segment = Segment::open(path).unwrap().expect("input holds records");
        records.extend(segment.scan_all().unwrap().records);
    }
    records.sort();
    let mut writer = SegmentWriter::create(scratch_file, block_size).unwrap();
    writer.append_batch(&records).unwrap();
    drop(writer.seal().unwrap());
    let bytes = std::fs::read(scratch_file).unwrap();
    std::fs::remove_file(scratch_file).unwrap();
    bytes
}

/// Writes `inputs` as sealed segments, compacts them through the store and
/// checks the one surviving file against the oracle.
fn assert_compaction_matches_oracle(name: &str, per_block: usize, inputs: &[Input]) {
    let root = scratch(name);
    let db = root.join("db");
    std::fs::create_dir_all(&db).unwrap();
    write_inputs(&db, per_block, inputs);
    let files = segment_files(&db);
    assert_eq!(files.len(), inputs.len());
    let expected = oracle_bytes(&files, 8 + 16 * per_block, &root.join("oracle.scoop"));

    let mut store = Store::open(&db, options(per_block)).unwrap();
    let compacted = store.compact_all_blocking().unwrap();
    assert_eq!(compacted, inputs.len() >= 2, "one segment is left alone");
    let after = segment_files(&db);
    assert_eq!(after.len(), 1, "inputs retired, one output: {after:?}");
    assert!(leftovers(&db).is_empty());
    let merged = std::fs::read(&after[0]).unwrap();
    if compacted {
        assert_eq!(
            after[0],
            db.join(format!("seg-{:08}.scoop", inputs.len())),
            "the output takes the next id"
        );
        assert!(
            merged == expected,
            "merged file differs from the oracle ({} vs {} bytes)",
            merged.len(),
            expected.len()
        );
        // The store answers from the merged file it just installed.
        let total: usize = inputs.iter().map(Vec::len).sum();
        assert_eq!(store.scan_all().unwrap().records.len(), total);
    }
    drop(store);
    std::fs::remove_dir_all(&root).unwrap();
}

/// `(start time, [(time step, node, attribute, value, dice)])` per input:
/// a small time domain and tiny value domains, so inputs overlap, roll back
/// behind each other, share timestamps and repeat records exactly. `dice`
/// 0 = `sync` after this record, 1 = repeat the previous record verbatim.
type Shape = Vec<(u64, Vec<(u64, u16, u8, i32, u8)>)>;

fn inputs_of(shape: &Shape) -> Vec<Input> {
    shape
        .iter()
        .map(|(start, steps)| {
            let mut t = *start;
            let mut input: Input = Vec::with_capacity(steps.len());
            for &(dt, node, attribute, value, dice) in steps {
                match input.last() {
                    Some(&(previous, _)) if dice == 1 => input.push((previous, false)),
                    _ => {
                        t += dt;
                        input.push((record(t, node, attribute, value), dice == 0));
                    }
                }
            }
            input
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// k in 1..=9 inputs of 1..40 records in 2..=7-record blocks.
    #[test]
    fn compaction_writes_the_oracles_bytes(
        per_block in 2usize..8,
        shape in proptest::collection::vec(
            (
                0u64..24,
                proptest::collection::vec((0u64..3, 0u16..3, 0u8..2, 0i32..2, 0u8..8), 1..40),
            ),
            1..10,
        ),
    ) {
        assert_compaction_matches_oracle("prop", per_block, &inputs_of(&shape));
    }
}

#[test]
fn hand_built_edge_cases_match_the_oracle() {
    // One timestamp everywhere, descending node order inside each input (time
    // order holds, canonical order does not): the equal-time run straddles
    // every block and every input boundary, and the whole output is one run.
    let one_run: Vec<Input> = (0..3u16)
        .map(|i| {
            (0..7u16)
                .map(|j| (record(5, 20 - 7 * i - j, 0, 1), false))
                .collect()
        })
        .collect();
    assert_compaction_matches_oracle("one-run", 3, &one_run);

    // Every record `sync`ed on its own: one-record blocks only.
    let short_blocks: Vec<Input> = (0..4u64)
        .map(|i| (0..6).map(|j| (record(j * 4 + i, 1, 0, 0), true)).collect())
        .collect();
    assert_compaction_matches_oracle("short-blocks", 4, &short_blocks);

    // An input whose last block is its only block, between two longer ones;
    // the second rolls back behind the first and repeats its records exactly.
    let long: Input = (10..31).map(|t| (record(t, 2, 1, 7), false)).collect();
    let lone: Input = vec![(record(20, 2, 1, 7), false)];
    let behind: Input = (0..21).map(|t| (record(t, 2, 1, 7), t == 9)).collect();
    assert_compaction_matches_oracle("lone-block", 5, &[long, lone, behind]);

    // A run of equal times that ends exactly on a block boundary in one input
    // and continues in the next input's first block, out of canonical order.
    let a: Input = [(1, 9), (2, 9), (2, 8), (2, 7)]
        .map(|(t, n)| (record(t, n, 0, 0), false))
        .to_vec();
    let b: Input = [(2, 6), (2, 5), (3, 1), (3, 0)]
        .map(|(t, n)| (record(t, n, 0, 0), false))
        .to_vec();
    assert_compaction_matches_oracle("boundary-run", 2, &[a, b]);
}

/// 64 inputs whose timestamps interleave perfectly (input `i` holds
/// `i, i + 64, i + 128, …`): every record comes from a different input than
/// its predecessor, the worst case for choosing the next input.
#[test]
fn sixty_four_fully_interleaved_inputs_match_the_oracle() {
    let inputs: Vec<Input> = (0..64u64)
        .map(|i| {
            (0..48u64)
                .map(|j| (record(i + 64 * j, i as u16, 0, j as i32), false))
                .collect()
        })
        .collect();
    assert_compaction_matches_oracle("k64", 7, &inputs);
}

/// A small deterministic generator for the fixed schedule below.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A fixed adversarial ingest through the store's own front door, tiered
/// compaction on: unsorted batches of 1..90 records over a clock that mostly
/// advances, often stalls (equal-time runs across batches, hence across
/// blocks and segments) and sometimes rolls back (a fresh segment behind the
/// last). The digests below were recorded on the collect-sort-write merge
/// this crate shipped before the streaming one, and re-recorded once when
/// the writer stopped storing learned-index lines: the shorter files fall
/// into different log4 size tiers, so the schedule leaves 9 files before
/// the final merge instead of 11.
#[test]
fn fixed_adversarial_schedule_reproduces_the_recorded_digests() {
    let root = scratch("schedule");
    let db = root.join("db");
    let options = StoreOptions {
        block_size: 8 + 16 * 5,
        seal_after_records: 37,
        compact_tier_segments: 4,
    };
    let mut store = Store::open(&db, options).unwrap();
    let mut rng = SplitMix(0x5c00_9000 + 23);
    let (mut clock, mut written) = (1_000u64, 0usize);
    for _ in 0..400 {
        match rng.below(10) {
            0 => clock = clock.saturating_sub(rng.below(300)), // roll back
            1..=3 => {}                                        // stall
            _ => clock += rng.below(12),
        }
        let len = 1 + rng.below(90) as usize;
        let batch: Vec<DurableRecord> = (0..len)
            .map(|_| {
                record(
                    clock + rng.below(4),
                    rng.below(5) as u16,
                    rng.below(2) as u8,
                    rng.below(3) as i32,
                )
            })
            .collect();
        store.append_batch(&batch).unwrap();
        written += len;
        if rng.below(7) == 0 {
            store.commit().unwrap();
        }
    }
    store.commit().unwrap();

    // Every tiered merge so far, by name (ids count seals + merges) and bytes.
    let files = segment_files(&db);
    let tiered = files.iter().fold(FNV_OFFSET, |h, path| {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        fnv1a(fnv1a(h, name.as_bytes()), &std::fs::read(path).unwrap())
    });
    let expected = oracle_bytes(&files, options.block_size, &root.join("oracle.scoop"));
    assert!(store.compact_all_blocking().unwrap());
    let after = segment_files(&db);
    assert_eq!(after.len(), 1);
    let merged = std::fs::read(&after[0]).unwrap();
    assert!(merged == expected, "final merge differs from the oracle");
    assert_eq!(store.scan_all().unwrap().records.len(), written);

    let seen = (
        written,
        files.len(),
        after[0].file_name().unwrap().to_string_lossy().into_owned(),
        format!("{tiered:016x}"),
        format!("{:016x}", fnv1a(FNV_OFFSET, &merged)),
    );
    assert_eq!(
        seen,
        (
            19_372,
            9,
            "seg-00000852.scoop".to_string(),
            "06f8e82ccd681db1".to_string(),
            "52188be65e557fce".to_string()
        )
    );
    drop(store);
    std::fs::remove_dir_all(&root).unwrap();
}

/// The streaming merge meets a damaged input block after it has started
/// writing. Nothing of that may survive: the error names the block, every
/// input stays installed and answers its healthy windows, no output and no
/// temporary is left, and once the byte is restored a retry produces exactly
/// the oracle's file.
#[test]
fn a_damaged_input_block_fails_the_merge_and_leaves_nothing_behind() {
    let root = scratch("damaged");
    let db = root.join("db");
    let per_block = 4;
    let options = StoreOptions {
        block_size: 8 + 16 * per_block,
        seal_after_records: 32,
        compact_tier_segments: 4,
    };
    let batch = |from: u64, to: u64| -> Vec<DurableRecord> {
        (from..to)
            .map(|t| record(t, (t % 5) as u16, 0, t as i32))
            .collect()
    };
    let mut store = Store::open(&db, options).unwrap();
    store.append_batch(&batch(0, 96)).unwrap();
    assert_eq!(store.stats().unwrap().segments, 3, "one short of the tier");

    // Flip one payload byte in block 5 of the second input (times 52..56).
    let victim = db.join("seg-00000001.scoop");
    let offset = HEADER_LEN + 5 * options.block_size + 8 + 3;
    let healthy = std::fs::read(&victim).unwrap();
    let mut damaged = healthy.clone();
    damaged[offset] ^= 0x40;
    std::fs::write(&victim, &damaged).unwrap();

    // The fourth seal makes the tier due; the merge trips over the block.
    let error = store.append_batch(&batch(96, 128)).unwrap_err();
    match &error {
        StoreError::Corrupt { path, detail } => {
            assert_eq!(path, &victim);
            assert!(
                detail.starts_with("block 5: payload checksum mismatch"),
                "{detail}"
            );
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    let files = segment_files(&db);
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        [
            "seg-00000000.scoop",
            "seg-00000001.scoop",
            "seg-00000002.scoop",
            "seg-00000003.scoop"
        ],
        "every input still on disk, no output"
    );
    assert!(leftovers(&db).is_empty(), "the temporary was removed");
    assert_eq!(store.stats().unwrap().segments, 4, "every input installed");
    assert_eq!(store.query_range(0, 51).unwrap().records, batch(0, 52));
    assert_eq!(store.query_range(56, 200).unwrap().records, batch(56, 128));
    assert!(matches!(
        store.query_point(53),
        Err(StoreError::Corrupt { .. })
    ));
    drop(store);

    // A temporary that did get left behind (a crash, not an error return) is
    // swept by the next open, which installs the same four inputs.
    let stale = db.join("seg-00000004.scoop.tmp");
    std::fs::write(&stale, b"half a merge").unwrap();
    let mut store = Store::open(&db, options).unwrap();
    assert!(!stale.exists());
    assert_eq!(store.stats().unwrap().segments, 4);

    // Restore the byte: the retry compacts to the oracle's bytes.
    std::fs::write(&victim, &healthy).unwrap();
    let expected = oracle_bytes(&files, options.block_size, &root.join("oracle.scoop"));
    assert!(store.compact_all_blocking().unwrap());
    let after = segment_files(&db);
    assert_eq!(after.len(), 1);
    assert!(std::fs::read(&after[0]).unwrap() == expected);
    assert_eq!(store.scan_all().unwrap().records, batch(0, 128));
    drop(store);
    std::fs::remove_dir_all(&root).unwrap();
}
