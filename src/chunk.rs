//! Splitting a list of items into packet-sized chunks and reassembling
//! them in any order. Kept for `bench/` only: the simulator sends each
//! mapping chunk as a window onto the sink's one copy of the index and
//! counts chunks instead of reassembling them (see `scoop-sim`'s
//! dissemination module).

/// One packet-sized piece of a disseminated object of some version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk<T> {
    /// Version of the object this chunk belongs to.
    pub version: u64,
    /// Index of this chunk within the object.
    pub index: u32,
    /// Total number of chunks the object was split into.
    pub total: u32,
    /// The items carried by this chunk.
    pub items: Vec<T>,
}

/// Splits a list of items into chunks of at most `items_per_chunk`.
#[derive(Clone, Copy, Debug)]
pub struct Chunker {
    items_per_chunk: usize,
}

impl Chunker {
    /// Creates a chunker. `items_per_chunk` is clamped to at least 1.
    pub fn new(items_per_chunk: usize) -> Self {
        Chunker {
            items_per_chunk: items_per_chunk.max(1),
        }
    }

    /// Splits `items` into chunks labelled with `version`.
    ///
    /// An empty item list still produces a single (empty) chunk so that the
    /// version can be disseminated and assembled.
    pub fn split<T: Clone>(&self, version: u64, items: &[T]) -> Vec<Chunk<T>> {
        if items.is_empty() {
            return vec![Chunk {
                version,
                index: 0,
                total: 1,
                items: Vec::new(),
            }];
        }
        let total = items.len().div_ceil(self.items_per_chunk) as u32;
        items
            .chunks(self.items_per_chunk)
            .enumerate()
            .map(|(i, slice)| Chunk {
                version,
                index: i as u32,
                total,
                items: slice.to_vec(),
            })
            .collect()
    }
}

/// Where one received chunk's items sit in [`ChunkAssembler`]'s buffer.
#[derive(Clone, Copy, Debug)]
struct Span {
    index: u32,
    start: u32,
    len: u32,
}

/// Reassembles chunks of the newest version seen so far.
///
/// The assembler only tracks one version at a time: when it sees a chunk of a
/// newer version it abandons the partial older assembly (matching the paper's
/// behaviour of nodes that keep using their last *complete* index while a new
/// one trickles in). A chunk of the same version that announces a different
/// `total` also restarts the assembly.
///
/// Received items sit in one buffer in arrival order, with a span per chunk,
/// and both are released the moment the version completes. Each version is
/// therefore delivered at most once: after completion, every further chunk of
/// that version — a duplicate included — is ignored until a newer one
/// arrives.
#[derive(Clone, Debug, Default)]
pub struct ChunkAssembler<T> {
    version: u64,
    /// Chunks in the version being assembled; 0 when none is in progress.
    total: u32,
    /// Whether `version` has been assembled and handed out.
    delivered: bool,
    items: Vec<T>,
    /// One span per received chunk, sorted by chunk index.
    spans: Vec<Span>,
}

impl<T: Clone> ChunkAssembler<T> {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        ChunkAssembler {
            version: 0,
            total: 0,
            delivered: false,
            items: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The version currently being assembled, or last delivered (0 if none
    /// yet).
    pub fn assembling_version(&self) -> u64 {
        self.version
    }

    /// Number of chunks still missing for the version being assembled (0
    /// once it has been delivered).
    pub fn missing(&self) -> u32 {
        self.total - self.spans.len() as u32
    }

    /// Feeds one received chunk. Returns `Some(items)` with the fully
    /// reassembled object the moment the last missing chunk of the current
    /// version arrives; otherwise `None`.
    pub fn accept(&mut self, chunk: &Chunk<T>) -> Option<Vec<T>> {
        if chunk.total == 0 || chunk.index >= chunk.total {
            return None;
        }
        if chunk.version < self.version || (chunk.version == self.version && self.delivered) {
            // A stale chunk, or one of the version already handed out.
            return None;
        }
        if chunk.version > self.version || chunk.total != self.total {
            // Start assembling the newer version from scratch.
            self.version = chunk.version;
            self.total = chunk.total;
            self.delivered = false;
            self.items = Vec::new();
            self.spans = Vec::with_capacity(chunk.total as usize);
        }
        let at = match self.spans.binary_search_by_key(&chunk.index, |s| s.index) {
            Ok(_) => return None, // a duplicate: the first copy stands
            Err(at) => at,
        };
        if self.items.capacity() - self.items.len() < chunk.items.len() {
            // Grow by a quarter, not `Vec`'s doubling: where dissemination
            // stalls, partial assemblies stay resident for the whole run.
            let grow = (self.items.len() / 4).max(chunk.items.len());
            self.items.reserve_exact(grow);
        }
        let span = Span {
            index: chunk.index,
            start: self.items.len() as u32,
            len: chunk.items.len() as u32,
        };
        self.spans.insert(at, span);
        self.items.extend_from_slice(&chunk.items);
        if self.spans.len() < self.total as usize {
            return None;
        }
        let mut assembled = Vec::with_capacity(self.items.len());
        for s in &self.spans {
            let start = s.start as usize;
            assembled.extend_from_slice(&self.items[start..start + s.len as usize]);
        }
        self.total = 0;
        self.delivered = true;
        self.items = Vec::new();
        self.spans = Vec::new();
        Some(assembled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_sizes_and_counts() {
        let chunker = Chunker::new(3);
        let items: Vec<u32> = (0..8).collect();
        let chunks = chunker.split(5, &items);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.total == 3 && c.version == 5));
        assert_eq!(chunks[0].items, vec![0, 1, 2]);
        assert_eq!(chunks[2].items, vec![6, 7]);
    }

    #[test]
    fn empty_object_still_produces_one_chunk() {
        let chunker = Chunker::new(4);
        let chunks = chunker.split::<u32>(9, &[]);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].total, 1);
        let mut asm = ChunkAssembler::new();
        assert_eq!(asm.accept(&chunks[0]), Some(vec![]));
    }

    #[test]
    fn in_order_reassembly() {
        let chunker = Chunker::new(2);
        let items: Vec<u32> = (0..7).collect();
        let chunks = chunker.split(1, &items);
        let mut asm = ChunkAssembler::new();
        let mut result = None;
        for c in &chunks {
            result = asm.accept(c);
        }
        assert_eq!(result, Some(items));
    }

    #[test]
    fn out_of_order_and_duplicate_chunks() {
        let chunker = Chunker::new(2);
        let items: Vec<u32> = (0..6).collect();
        let mut chunks = chunker.split(1, &items);
        chunks.reverse();
        let mut asm = ChunkAssembler::new();
        assert_eq!(asm.accept(&chunks[0]), None);
        assert_eq!(asm.accept(&chunks[0]), None, "duplicates are harmless");
        assert_eq!(asm.accept(&chunks[1]), None);
        assert_eq!(asm.missing(), 1);
        assert_eq!(asm.accept(&chunks[2]), Some(items));
    }

    #[test]
    fn newer_version_preempts_partial_older_one() {
        let chunker = Chunker::new(2);
        let old = chunker.split(1, &(0..6).collect::<Vec<u32>>());
        let new_items: Vec<u32> = (100..104).collect();
        let new = chunker.split(2, &new_items);
        let mut asm = ChunkAssembler::new();
        asm.accept(&old[0]);
        asm.accept(&new[0]);
        assert_eq!(asm.assembling_version(), 2);
        // Old chunks are now ignored entirely.
        assert_eq!(asm.accept(&old[1]), None);
        assert_eq!(asm.accept(&old[2]), None);
        assert_eq!(asm.accept(&new[1]), Some(new_items));
    }

    #[test]
    fn malformed_chunks_are_rejected() {
        let mut asm: ChunkAssembler<u32> = ChunkAssembler::new();
        assert_eq!(
            asm.accept(&Chunk {
                version: 1,
                index: 5,
                total: 2,
                items: vec![]
            }),
            None
        );
        assert_eq!(
            asm.accept(&Chunk {
                version: 1,
                index: 0,
                total: 0,
                items: vec![]
            }),
            None
        );
        assert_eq!(asm.assembling_version(), 0);
    }

    #[test]
    fn single_item_chunking() {
        let chunker = Chunker::new(1);
        let chunks = chunker.split(3, &[10u32, 20, 30]);
        assert_eq!(chunks.len(), 3);
        let mut asm = ChunkAssembler::new();
        let mut out = None;
        for c in &chunks {
            out = asm.accept(c);
        }
        assert_eq!(out, Some(vec![10, 20, 30]));
    }
}
