//! The comparison policies: BASE, LOCAL, and HASH.
//!
//! BASE ("send-to-base") and LOCAL ("store-local, flood queries") need no
//! index and are fully simulated. HASH — a static, uniform value-to-node
//! mapping in the spirit of geographic hash tables — is the policy the paper
//! could only evaluate analytically; this module provides it as a concrete
//! [`StorageIndex`] so it can be simulated too. (The basestation's
//! store-local fallback prices LOCAL with [`CostModel`](crate::CostModel).)

use crate::index::StorageIndex;
use scoop_types::{NodeId, SimTime, StorageIndexId, ValueRange};

/// Builds the static HASH index: value `v` is owned by node
/// `1 + (hash(v) mod n_sensors)`, independent of any statistics. The same
/// mapping is used for the whole experiment (id 1).
pub fn hash_index(domain: ValueRange, num_sensors: usize, created_at: SimTime) -> StorageIndex {
    let owners = domain
        .values()
        .map(|v| NodeId((1 + (splitmix(v as u64) as usize % num_sensors.max(1))) as u16));
    StorageIndex::coalesced(StorageIndexId(1), domain, owners, created_at)
}

/// A small, deterministic integer hash (SplitMix64 finalizer) so the HASH
/// baseline does not depend on the experiment seed. Public because the
/// multi-sink federation reuses it to partition attribute ownership across
/// basestations (the "existing hash" of the fault-model contract).
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_is_complete_deterministic_and_spread_out() {
        let domain = ValueRange::new(0, 99);
        let a = hash_index(domain, 30, SimTime::ZERO);
        let b = hash_index(domain, 30, SimTime::ZERO);
        assert_eq!(
            a.entries(),
            b.entries(),
            "static hash must be deterministic"
        );
        assert!(a.is_complete());
        // No value maps to the basestation, and many distinct owners exist.
        assert!(a.owners().iter().all(|o| !o.is_basestation()));
        assert!(a.owners().len() > 15, "uniform hash should spread values");
    }

    #[test]
    fn hash_index_single_sensor_degenerates_gracefully() {
        let idx = hash_index(ValueRange::new(0, 9), 1, SimTime::ZERO);
        assert!(idx.owners().iter().all(|&o| o == NodeId(1)));
    }
}
