//! Workspace-root facade crate.
//!
//! Re-exports the public API of every member crate so that examples and
//! integration tests can write `use scoop::...`. Library users normally
//! depend on the individual crates instead.
//!
//! A few names here exist in no member crate: the benchmark (`bench/`)
//! still imports them, so the facade keeps each one as a shim over the
//! crate API that replaced it. Every such item is documented "kept for
//! `bench/` only"; once `bench/` is ported off a name, its shim goes.

#![warn(missing_docs)]

pub use scoop_core as core;
pub use scoop_lab as lab;
pub use scoop_routing as routing;
pub use scoop_serve as serve;
pub use scoop_workload as workload;

/// [`scoop_types`], plus the legacy `ExperimentConfig` name.
pub mod types {
    pub use scoop_types::*;

    /// The legacy name of [`ScenarioSpec`]. Kept for `bench/` only.
    pub type ExperimentConfig = ScenarioSpec;
}

/// [`scoop_net`], plus the generator traits that `Topology::connected` and
/// `LinkModel::from_spec` replaced.
pub mod net {
    pub use scoop_net::*;
    use scoop_types::{LinkSpec, ScoopError, TopologySpec};

    /// Builds a [`Topology`] from a [`TopologySpec`]. Kept for `bench/` only.
    pub trait TopologyGen: Send + Sync {
        /// Generates the placement for `num_nodes` sensors plus the
        /// basestation.
        fn generate(
            &self,
            spec: &TopologySpec,
            num_nodes: usize,
            seed: u64,
        ) -> Result<Topology, ScoopError>;
    }

    /// Builds a [`LinkModel`] over a topology from a [`LinkSpec`]. Kept for
    /// `bench/` only.
    pub trait LinkGen: Send + Sync {
        /// Derives per-directed-pair link quality for `topo`.
        fn generate(
            &self,
            spec: &LinkSpec,
            topo: &Topology,
            seed: u64,
        ) -> Result<LinkModel, ScoopError>;
    }

    /// [`Topology::connected`] behind [`TopologyGen`]. Kept for `bench/` only.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct StdTopologyGen;

    impl TopologyGen for StdTopologyGen {
        fn generate(
            &self,
            spec: &TopologySpec,
            num_nodes: usize,
            seed: u64,
        ) -> Result<Topology, ScoopError> {
            Topology::connected(spec, num_nodes, seed)
        }
    }

    /// [`LinkModel::from_spec`] behind [`LinkGen`]. Kept for `bench/` only.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct StdLinkGen;

    impl LinkGen for StdLinkGen {
        fn generate(
            &self,
            spec: &LinkSpec,
            topo: &Topology,
            seed: u64,
        ) -> Result<LinkModel, ScoopError> {
            LinkModel::from_spec(spec, topo, seed)
        }
    }
}

/// [`scoop_sim`], plus the `SimBuilder` that [`scoop_sim::build_engine`]
/// replaced.
pub mod sim {
    use scoop_net::Engine;
    pub use scoop_sim::*;
    use scoop_types::{ScenarioSpec, ScoopError};

    /// Holds a spec until [`SimBuilder::build`]. Kept for `bench/` only.
    pub struct SimBuilder {
        spec: ScenarioSpec,
    }

    impl SimBuilder {
        /// A builder over `spec`. Kept for `bench/` only.
        pub fn new(spec: ScenarioSpec) -> Self {
            SimBuilder { spec }
        }

        /// [`build_engine`] over the spec. Kept for `bench/` only.
        pub fn build(&self) -> Result<Engine<SimNode>, ScoopError> {
            build_engine(&self.spec)
        }
    }
}

/// [`scoop_store`], plus `block::decode_block` and the `TimeIndex` trait.
pub mod store {
    pub use scoop_store::*;

    /// The time-index lookup a segment once took from a learned model, now
    /// [`first_block_for`] over the block directory. Kept for `bench/` only.
    pub trait TimeIndex {
        /// [`first_block_for`]`(dir, t)`. Kept for `bench/` only.
        fn first_block_for(&self, t: u64, dir: &[BlockMeta]) -> usize;

        /// This segment's lookup. Kept for `bench/` only.
        fn learned_index(&self) -> &dyn TimeIndex
        where
            Self: Sized,
        {
            self
        }

        /// This segment's lookup. Kept for `bench/` only.
        fn reference_index(&self) -> &dyn TimeIndex
        where
            Self: Sized,
        {
            self
        }
    }

    impl TimeIndex for Segment {
        fn first_block_for(&self, t: u64, dir: &[BlockMeta]) -> usize {
            first_block_for(dir, t)
        }
    }

    /// [`scoop_store::block`], plus `decode_block`.
    pub mod block {
        pub use scoop_store::block::*;
        use scoop_store::Result;
        use scoop_types::DurableRecord;
        use std::path::Path;

        /// [`decode_block_into`] a fresh `Vec`. Kept for `bench/` only.
        pub fn decode_block(
            bytes: &[u8],
            block_size: usize,
            path: &Path,
            block_index: usize,
        ) -> Result<Vec<DurableRecord>> {
            let mut records = Vec::new();
            decode_block_into(bytes, block_size, path, block_index, &mut records)?;
            Ok(records)
        }
    }
}

mod chunk;

/// The chunk splitter and assembler under their old crate's name. Kept for
/// `bench/` only.
pub mod trickle {
    /// The items of the facade's chunk module. Kept for `bench/` only.
    pub use crate::chunk::{Chunk, ChunkAssembler, Chunker};
}

/// The sensor data buffer under its old crate's name. Kept for `bench/`
/// only.
pub mod storage {
    /// [`scoop_sim::DataBuffer`]. Kept for `bench/` only.
    pub use scoop_sim::DataBuffer;
}
