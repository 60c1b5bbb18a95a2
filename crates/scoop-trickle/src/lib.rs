//! Chunking and reassembly of disseminated objects.
//!
//! Scoop disseminates each storage index from the basestation to every node
//! as "mapping messages" (Section 5.3). The paper carries them with Trickle
//! (Levis et al. \[13\]); the simulator floods each chunk once and repairs a
//! loss when a child's summary shows its parent that it holds an older index
//! (see `scoop-sim`'s dissemination module). This crate holds the part both
//! designs share: splitting an index into packet-sized [`Chunk`]s
//! ([`Chunker`]) and reassembling them in any order ([`ChunkAssembler`]).

#![warn(missing_docs)]

pub mod chunker;

pub use chunker::{Chunk, ChunkAssembler, Chunker};
