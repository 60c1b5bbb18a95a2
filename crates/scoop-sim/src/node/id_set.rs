//! The "already seen" sets of gossip deduplication, stored as bits.
//!
//! A node remembers every query id and mapping chunk it has seen, for the
//! whole run. Both key spaces arrive in dense ascending runs (query ids step
//! by the sink count; a chunk stream is indices `0..total` of one version),
//! so one 64-bit word usually covers a run of 64 ids: 16 bytes where a hash
//! set spends a bucket per id.

/// An exact set of `u64` ids: sorted `(id >> 6, word)` pairs, where bit
/// `id & 63` of the word marks `id` present.
#[derive(Clone, Debug, Default)]
pub(super) struct SparseIdSet {
    words: Vec<(u64, u64)>,
}

impl SparseIdSet {
    /// Adds `id`. Returns whether it was newly inserted, exactly as
    /// `HashSet::insert` does.
    pub(super) fn insert(&mut self, id: u64) -> bool {
        let (key, bit) = (id >> 6, 1u64 << (id & 63));
        match self.words.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                let word = &mut self.words[i].1;
                let new = *word & bit == 0;
                *word |= bit;
                new
            }
            Err(i) => {
                self.words.insert(i, (key, bit));
                true
            }
        }
    }

    #[cfg(test)]
    fn contains(&self, id: u64) -> bool {
        self.words
            .binary_search_by_key(&(id >> 6), |&(k, _)| k)
            .is_ok_and(|i| self.words[i].1 & (1 << (id & 63)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// One id of a shape the simulator produces, or an edge of the key
    /// space: small dense ids, the top of the range, chunk keys
    /// (`version << 32 | index`) with indices past one word, ids scattered
    /// over all 64 bits, and the first and last id of a word.
    fn id_of_shape(shape: u8, a: u64, b: u32) -> u64 {
        match shape {
            0 => a,
            1 => u64::MAX - a,
            2 => (a % 8) << 32 | u64::from(b),
            3 => a.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            _ => a << 6 | if b.is_multiple_of(2) { 0 } else { 63 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential against `HashSet<u64>`: the same `insert` result
        /// after every op, and the same membership for every id inserted so
        /// far, its neighbours and the edges of the key space.
        #[test]
        fn matches_a_hash_set(
            ops in proptest::collection::vec((0u8..5, 0u64..200, 0u32..300), 1..120),
        ) {
            let mut set = SparseIdSet::default();
            let mut model: HashSet<u64> = HashSet::new();
            let mut probes = vec![0, 1, 63, 64, u64::MAX - 64, u64::MAX - 1, u64::MAX];
            for (shape, a, b) in ops {
                let id = id_of_shape(shape, a, b);
                prop_assert_eq!(set.insert(id), model.insert(id), "insert({})", id);
                probes.extend([id, id.wrapping_sub(1), id.wrapping_add(1), id ^ 1 << 32]);
                for &p in &probes {
                    prop_assert_eq!(set.contains(p), model.contains(&p), "contains({})", p);
                }
                prop_assert!(set.words.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert!(set.words.iter().all(|&(_, word)| word != 0));
            }
        }
    }

    #[test]
    fn a_dense_run_of_ids_shares_words() {
        let mut set = SparseIdSet::default();
        assert!((0..640).all(|id| set.insert(id)));
        assert!((0..640).all(|id| !set.insert(id)));
        assert_eq!(set.words.len(), 10);
    }
}
