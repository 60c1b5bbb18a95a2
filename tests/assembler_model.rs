//! Differential test of the flat `ChunkAssembler` against the per-chunk
//! `Vec<Option<Vec<T>>>` assembler it replaced, kept here verbatim as the
//! reference.
//!
//! The two differ in one defined place: the flat assembler releases its
//! storage when a version completes and delivers each version at most once,
//! so every later chunk of a delivered version is ignored. The reference
//! kept the completed chunks and handed the whole object out again for every
//! duplicate (and restarted on a changed `total`). The harness below applies
//! that rule on the reference's side, and everything else must agree.

use proptest::prelude::*;
use scoop::trickle::{Chunk, ChunkAssembler};

/// The assembler as it was before the flat buffer: one `Option<Vec<T>>` per
/// chunk, kept until a newer version arrives.
struct ReferenceAssembler<T> {
    version: u64,
    total: u32,
    received: Vec<Option<Vec<T>>>,
}

impl<T: Clone> ReferenceAssembler<T> {
    fn new() -> Self {
        ReferenceAssembler {
            version: 0,
            total: 0,
            received: Vec::new(),
        }
    }

    fn assembling_version(&self) -> u64 {
        self.version
    }

    fn missing(&self) -> u32 {
        if self.total == 0 {
            return 0;
        }
        self.total - self.received.iter().filter(|c| c.is_some()).count() as u32
    }

    fn accept(&mut self, chunk: &Chunk<T>) -> Option<Vec<T>> {
        if chunk.total == 0 || chunk.index >= chunk.total {
            return None;
        }
        if chunk.version < self.version {
            return None;
        }
        if chunk.version > self.version || self.received.len() != chunk.total as usize {
            self.version = chunk.version;
            self.total = chunk.total;
            self.received = vec![None; chunk.total as usize];
        }
        let slot = &mut self.received[chunk.index as usize];
        if slot.is_none() {
            *slot = Some(chunk.items.clone());
        }
        if self.received.iter().all(|c| c.is_some()) {
            let assembled = self
                .received
                .iter()
                .flat_map(|c| c.as_ref().unwrap().iter().cloned())
                .collect();
            Some(assembled)
        } else {
            None
        }
    }
}

/// One chunk of an arbitrary stream. `kind` picks a malformed chunk (0:
/// `total == 0`, 1: `index >= total`), a chunk whose `total` differs from
/// the one its version usually announces (2), or a well-formed one. Items
/// carry a tag so that duplicates can differ from the first copy.
fn chunk_of(kind: u8, version: u64, index: u32, len: usize, tag: u32) -> Chunk<u32> {
    let usual_total = 1 + (version % 4) as u32;
    let (total, index) = match kind {
        0 => (0, index),
        1 => (usual_total, usual_total + index),
        2 => (usual_total + 1, index % (usual_total + 1)),
        _ => (usual_total, index % usual_total),
    };
    Chunk {
        version,
        index,
        total,
        items: (0..len as u32)
            .map(|k| tag * 1_000 + index * 10 + k)
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every `accept` result, `missing()` and `assembling_version()` agree
    /// with the reference over streams with duplicates, out-of-order and
    /// stale chunks, newer-version preemption, a `total` that changes within
    /// a version and malformed chunks.
    #[test]
    fn flat_assembler_matches_the_reference(
        stream in proptest::collection::vec((0u8..12, 0u64..6, 0u32..5, 0usize..4, 0u32..3), 1..80),
    ) {
        let mut flat: ChunkAssembler<u32> = ChunkAssembler::new();
        let mut reference = ReferenceAssembler::new();
        let mut delivered: Option<u64> = None;
        for (kind, version, index, len, tag) in stream {
            let chunk = chunk_of(kind, version, index, len, tag);
            let got = flat.accept(&chunk);
            let want = if delivered == Some(chunk.version) {
                // The defined difference: a delivered version's chunks are
                // ignored, and the reference is not fed them.
                None
            } else {
                let want = reference.accept(&chunk);
                if want.is_some() {
                    delivered = Some(chunk.version);
                }
                want
            };
            prop_assert_eq!(&got, &want, "accept({:?})", chunk);
            prop_assert_eq!(flat.missing(), reference.missing());
            prop_assert_eq!(flat.assembling_version(), reference.assembling_version());
        }
    }
}

#[test]
fn a_delivered_version_ignores_duplicates_and_changed_totals() {
    let chunk = |index, total, items: Vec<u32>| Chunk {
        version: 7,
        index,
        total,
        items,
    };
    let mut asm = ChunkAssembler::new();
    assert_eq!(asm.accept(&chunk(1, 2, vec![3])), None);
    assert_eq!(asm.accept(&chunk(0, 2, vec![1, 2])), Some(vec![1, 2, 3]));
    assert_eq!(asm.missing(), 0);
    // The reference handed the object out again here, and restarted on the
    // changed total; the flat assembler has released it and ignores both.
    assert_eq!(asm.accept(&chunk(0, 2, vec![1, 2])), None);
    assert_eq!(asm.accept(&chunk(0, 1, vec![9])), None);
    assert_eq!((asm.missing(), asm.assembling_version()), (0, 7));
    // A newer version assembles as usual.
    let newer = Chunk {
        version: 8,
        index: 0,
        total: 1,
        items: vec![4],
    };
    assert_eq!(asm.accept(&newer), Some(vec![4]));
}
