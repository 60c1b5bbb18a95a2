//! The storage index: representation, compaction, lookup, diffing, and the
//! construction algorithm of Figure 2 ([`IndexBuilder::build`]).
//!
//! A storage index is "a value to node ID mapping" (Figure 1): every value in
//! the attribute's domain is owned by exactly one node, and consecutive
//! values owned by the same node are coalesced into a single range entry to
//! keep the disseminated representation small (Section 5.3).

use crate::cost::{CostModel, CostParams};
use crate::stats_store::StatsStore;
use scoop_types::{NodeId, ScoopError, SimTime, StorageIndexId, Value, ValueRange};
use serde::{Deserialize, Serialize};

/// One range entry of a storage index: every value in `range` is stored on
/// `owner`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexEntry {
    /// The covered value range.
    pub range: ValueRange,
    /// The node that stores readings with these values.
    pub owner: NodeId,
}

/// A complete storage index for one attribute and one time period.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StorageIndex {
    id: StorageIndexId,
    domain: ValueRange,
    /// Sorted, non-overlapping, contiguous entries covering `domain`.
    entries: Vec<IndexEntry>,
    created_at: SimTime,
}

impl StorageIndex {
    /// Builds an index from a per-value owner assignment. `owners[i]` is the
    /// owner of value `domain.lo + i`; consecutive values with the same owner
    /// are coalesced.
    pub fn from_owners(
        id: StorageIndexId,
        domain: ValueRange,
        owners: &[NodeId],
        created_at: SimTime,
    ) -> Result<Self, ScoopError> {
        if owners.len() as u64 != domain.width() {
            return Err(ScoopError::InvalidConfig(format!(
                "owner vector has {} entries but the domain holds {} values",
                owners.len(),
                domain.width()
            )));
        }
        Ok(Self::coalesced(
            id,
            domain,
            owners.iter().copied(),
            created_at,
        ))
    }

    /// The index assigning the domain's values, lowest first, to `owners` in
    /// turn, consecutive values with the same owner coalesced.
    pub(crate) fn coalesced(
        id: StorageIndexId,
        domain: ValueRange,
        owners: impl Iterator<Item = NodeId>,
        created_at: SimTime,
    ) -> Self {
        let mut entries: Vec<IndexEntry> = Vec::new();
        for (v, owner) in domain.values().zip(owners) {
            match entries.last_mut() {
                Some(last) if last.owner == owner && last.range.hi + 1 == v => {
                    last.range.hi = v;
                }
                _ => entries.push(IndexEntry {
                    range: ValueRange::point(v),
                    owner,
                }),
            }
        }
        StorageIndex {
            id,
            domain,
            entries,
            created_at,
        }
    }

    /// Builds an index directly from (already coalesced) entries, such as a
    /// federation sink's owned share of its index. Entries must be sorted
    /// and non-overlapping; gaps are tolerated (lookups in a gap return
    /// `None`, and the node falls back to local storage).
    pub fn from_entries(
        id: StorageIndexId,
        domain: ValueRange,
        entries: Vec<IndexEntry>,
        created_at: SimTime,
    ) -> Self {
        StorageIndex {
            id,
            domain,
            entries,
            created_at,
        }
    }

    /// The "send everything to the basestation" index (what the algorithm
    /// degenerates to when query rates dominate).
    pub fn send_to_base(id: StorageIndexId, domain: ValueRange, created_at: SimTime) -> Self {
        StorageIndex {
            id,
            domain,
            entries: vec![IndexEntry {
                range: domain,
                owner: NodeId::BASESTATION,
            }],
            created_at,
        }
    }

    /// This index's epoch id.
    pub fn id(&self) -> StorageIndexId {
        self.id
    }

    /// The attribute domain the index covers.
    pub fn domain(&self) -> ValueRange {
        self.domain
    }

    /// When the basestation created the index.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// The coalesced range entries.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// The owner of value `v`, or `None` if `v` falls outside every entry.
    pub fn lookup(&self, v: Value) -> Option<NodeId> {
        // Entries are sorted by range start; binary search for the candidate.
        let idx = self.entries.partition_point(|e| e.range.hi < v);
        self.entries.get(idx).and_then(|e| {
            if e.range.contains(v) {
                Some(e.owner)
            } else {
                None
            }
        })
    }

    /// Every distinct owner of any value in `range`, deduplicated.
    pub fn owners_for_range(&self, range: &ValueRange) -> Vec<NodeId> {
        let mut owners: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|e| e.range.overlaps(range))
            .map(|e| e.owner)
            .collect();
        owners.sort();
        owners.dedup();
        owners
    }

    /// All distinct owners in the index.
    pub fn owners(&self) -> Vec<NodeId> {
        let mut owners: Vec<NodeId> = self.entries.iter().map(|e| e.owner).collect();
        owners.sort();
        owners.dedup();
        owners
    }

    /// Fraction of domain values whose owner differs between `self` and
    /// `other` (values unassigned in either count as different). The
    /// basestation uses this to suppress dissemination of near-identical
    /// indices (Section 5.3).
    pub fn difference_fraction(&self, other: &StorageIndex) -> f64 {
        let domain = if self.domain.width() >= other.domain.width() {
            self.domain
        } else {
            other.domain
        };
        let total = domain.width() as f64;
        let mut differing = 0u64;
        for v in domain.values() {
            if self.lookup(v) != other.lookup(v) {
                differing += 1;
            }
        }
        differing as f64 / total
    }

    /// Returns `true` if every value of the domain is assigned an owner.
    pub fn is_complete(&self) -> bool {
        self.domain.values().all(|v| self.lookup(v).is_some())
    }
}

/// Configuration of the index construction algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IndexBuilderConfig {
    /// If `true`, the basestation also evaluates the expected cost of a
    /// "store-local" policy and, when it is cheaper than the best index, the
    /// builder reports that (Section 4). Disabled in the paper's SCOOP
    /// experiments and by default here.
    pub allow_store_local_fallback: bool,
}

/// What the builder decided.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexDecision {
    /// Use the constructed storage index.
    UseIndex(StorageIndex),
    /// The store-local policy is expected to be cheaper than any index
    /// (only possible when the fallback is enabled).
    StoreLocal {
        /// The index that would have been used.
        index: StorageIndex,
        /// Expected cost of that index.
        index_cost: f64,
        /// Expected cost of store-local.
        store_local_cost: f64,
    },
}

/// Builds storage indices from the basestation's statistics.
#[derive(Clone, Debug, Default)]
pub struct IndexBuilder {
    config: IndexBuilderConfig,
}

impl IndexBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: IndexBuilderConfig) -> Self {
        IndexBuilder { config }
    }

    /// Runs the algorithm of Figure 2: for every value in the domain, try
    /// every node as owner and keep the one minimizing the expected number of
    /// messages. The loop runs producer-major
    /// ([`CostModel::best_owners`]): one Dijkstra per producer whose
    /// histogram reaches into the domain plus `O(n)` work per (producer,
    /// covered value) pair, in a `V × n` cost matrix — the same owners and
    /// the same costs, to the bit, as Figure 2's value-major `O(V · n²)`
    /// order (`crate::cost` states the argument; the `properties` tests
    /// check it against [`CostModel::best_owner`]).
    pub fn build(
        &self,
        stats: &StatsStore,
        params: CostParams,
        id: StorageIndexId,
        now: SimTime,
    ) -> IndexDecision {
        let cost_model = CostModel::new(stats, params);
        // One `(owner, cost)` per domain value, so the index is complete.
        let best = cost_model.best_owners();
        let total_cost = best.iter().fold(0.0, |total, &(_, cost)| total + cost);
        let owners = best.iter().map(|&(owner, _)| owner);
        let index = StorageIndex::coalesced(id, stats.domain(), owners, now);

        if self.config.allow_store_local_fallback {
            let store_local = cost_model.store_local_cost();
            if store_local < total_cost {
                return IndexDecision::StoreLocal {
                    index,
                    index_cost: total_cost,
                    store_local_cost: store_local,
                };
            }
        }
        IndexDecision::UseIndex(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_domain() -> ValueRange {
        ValueRange::new(0, 9)
    }

    #[test]
    fn from_owners_coalesces_consecutive_runs() {
        let owners = vec![
            NodeId(1),
            NodeId(1),
            NodeId(2),
            NodeId(2),
            NodeId(2),
            NodeId(1),
            NodeId(3),
            NodeId(3),
            NodeId(3),
            NodeId(3),
        ];
        let idx =
            StorageIndex::from_owners(StorageIndexId(1), base_domain(), &owners, SimTime::ZERO)
                .unwrap();
        assert_eq!(idx.entries().len(), 4);
        assert_eq!(
            idx.entries()[0],
            IndexEntry {
                range: ValueRange::new(0, 1),
                owner: NodeId(1)
            }
        );
        assert_eq!(
            idx.entries()[1],
            IndexEntry {
                range: ValueRange::new(2, 4),
                owner: NodeId(2)
            }
        );
        assert_eq!(
            idx.entries()[2],
            IndexEntry {
                range: ValueRange::new(5, 5),
                owner: NodeId(1)
            }
        );
        assert_eq!(
            idx.entries()[3],
            IndexEntry {
                range: ValueRange::new(6, 9),
                owner: NodeId(3)
            }
        );
        assert!(idx.is_complete());
    }

    #[test]
    fn from_owners_rejects_wrong_length() {
        assert!(StorageIndex::from_owners(
            StorageIndexId(1),
            base_domain(),
            &[NodeId(1); 3],
            SimTime::ZERO
        )
        .is_err());
    }

    #[test]
    fn lookup_matches_assignment() {
        let owners: Vec<NodeId> = (0..10).map(|i| NodeId((i % 3 + 1) as u16)).collect();
        let idx =
            StorageIndex::from_owners(StorageIndexId(1), base_domain(), &owners, SimTime::ZERO)
                .unwrap();
        for (i, &expected) in owners.iter().enumerate() {
            assert_eq!(idx.lookup(i as Value), Some(expected), "value {i}");
        }
        assert_eq!(idx.lookup(-1), None);
        assert_eq!(idx.lookup(10), None);
    }

    #[test]
    fn owners_for_range_deduplicates() {
        let owners = vec![
            NodeId(1),
            NodeId(1),
            NodeId(2),
            NodeId(2),
            NodeId(1),
            NodeId(1),
            NodeId(1),
            NodeId(1),
            NodeId(1),
            NodeId(1),
        ];
        let idx =
            StorageIndex::from_owners(StorageIndexId(1), base_domain(), &owners, SimTime::ZERO)
                .unwrap();
        assert_eq!(
            idx.owners_for_range(&ValueRange::new(0, 4)),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(
            idx.owners_for_range(&ValueRange::new(6, 9)),
            vec![NodeId(1)]
        );
        assert_eq!(idx.owners(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn send_to_base_index() {
        let idx = StorageIndex::send_to_base(StorageIndexId(2), base_domain(), SimTime::ZERO);
        assert!(idx.is_complete());
        assert_eq!(idx.lookup(5), Some(NodeId::BASESTATION));
        assert_eq!(idx.entries().len(), 1);
    }

    #[test]
    fn difference_fraction() {
        let a = StorageIndex::from_owners(
            StorageIndexId(1),
            base_domain(),
            &[NodeId(1); 10],
            SimTime::ZERO,
        )
        .unwrap();
        let mut owners = vec![NodeId(1); 10];
        owners[0] = NodeId(2);
        owners[1] = NodeId(2);
        let b = StorageIndex::from_owners(StorageIndexId(2), base_domain(), &owners, SimTime::ZERO)
            .unwrap();
        assert!((a.difference_fraction(&b) - 0.2).abs() < 1e-9);
        assert_eq!(a.difference_fraction(&a), 0.0);
    }

    #[test]
    fn incomplete_index_from_entries() {
        let idx = StorageIndex::from_entries(
            StorageIndexId(1),
            base_domain(),
            vec![IndexEntry {
                range: ValueRange::new(0, 4),
                owner: NodeId(2),
            }],
            SimTime::ZERO,
        );
        assert!(!idx.is_complete());
        assert_eq!(idx.lookup(3), Some(NodeId(2)));
        assert_eq!(idx.lookup(7), None);
    }
}
