//! The per-node routing facade.
//!
//! [`RoutingState`] bundles the tree state, link estimator, neighbor table,
//! and descendants list of one node and exposes the decisions the rest of the
//! system needs: who is my parent, can I reach node X directly, which child
//! branch leads down to X, and which neighbors should my summary report.

use crate::descendants::DescendantsList;
use crate::link_estimator::LinkEstimator;
use crate::neighbor_table::{Admission, NeighborEntry, NeighborTable};
use crate::tree::{Beacon, TreeState};
use scoop_net::PacketMeta;
use scoop_types::{NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the routing layer (capacities and timeouts).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoutingConfig {
    /// Neighbor table capacity (paper: 32).
    pub neighbor_cap: usize,
    /// Descendants list capacity (paper: 32).
    pub descendants_cap: usize,
    /// How many best-connected neighbors a summary reports (paper: 12).
    pub summary_neighbors: usize,
    /// Neighbors and descendants silent for longer than this are evicted.
    pub stale_timeout: SimDuration,
    /// EWMA smoothing factor for the link estimator.
    pub estimator_alpha: f64,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            neighbor_cap: 32,
            descendants_cap: 32,
            summary_neighbors: 12,
            stale_timeout: SimDuration::from_secs(300),
            estimator_alpha: 0.1,
        }
    }
}

/// Where to send a packet next in order to reach some destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextHop {
    /// The destination is this node itself.
    Local,
    /// The destination is a direct radio neighbor; send straight to it
    /// (routing rule 3's shortcut).
    Neighbor(NodeId),
    /// The destination is a known descendant; send down the given child
    /// branch (routing rule 5).
    DownTree(NodeId),
    /// Not known locally; send up to the parent (routing rule 6).
    UpTree(NodeId),
    /// The node is not attached to the tree and has no way to make progress.
    Stuck,
}

/// The complete routing state of one node.
#[derive(Clone, Debug)]
pub struct RoutingState {
    id: NodeId,
    tree: TreeState,
    estimator: LinkEstimator,
    neighbors: NeighborTable,
    descendants: DescendantsList,
    /// One allocation per run: every node of a simulation shares it.
    config: Arc<RoutingConfig>,
}

impl RoutingState {
    /// Creates routing state for node `id`.
    pub fn new(id: NodeId, config: RoutingConfig) -> Self {
        Self::with_shared_config(id, Arc::new(config))
    }

    /// Creates routing state for node `id` over a configuration shared with
    /// the other nodes of its run.
    pub fn with_shared_config(id: NodeId, config: Arc<RoutingConfig>) -> Self {
        RoutingState {
            id,
            tree: TreeState::new(id),
            estimator: LinkEstimator::new(),
            neighbors: NeighborTable::new(),
            descendants: DescendantsList::new(),
            config,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The routing configuration in use.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// Current parent in the routing tree.
    pub fn parent(&self) -> Option<NodeId> {
        self.tree.parent()
    }

    /// Hop distance from the basestation.
    pub fn hops(&self) -> u16 {
        self.tree.hops()
    }

    /// `true` once the node has joined the routing tree.
    pub fn is_attached(&self) -> bool {
        self.tree.is_attached()
    }

    /// The tree-join beacon this node would broadcast right now.
    pub fn my_beacon(&self) -> Beacon {
        self.tree.my_beacon()
    }

    /// Cumulative expected transmissions from this node to the basestation.
    pub fn path_etx(&self) -> f64 {
        self.tree.path_etx()
    }

    /// Lays out the link estimator's records for the ascending list of
    /// transmitters this node can hear; see [`LinkEstimator::announce`].
    /// Call it before anything is heard.
    pub fn announce_senders(&mut self, senders: &[NodeId]) {
        self.estimator.announce(senders);
    }

    /// The link estimator, which tracks every sender heard and not since
    /// evicted.
    pub fn estimator(&self) -> &LinkEstimator {
        &self.estimator
    }

    /// Records that a packet with header `meta` was heard (addressed or
    /// snooped). Updates the link estimator and neighbor table, and — if the
    /// packet's origin lists us as its parent — the descendants list.
    ///
    /// The estimator's record of the sender says whether it is already
    /// listed, so only an unlisted sender is offered to the table. This is
    /// the one place the records' table bits are set or cleared: an admitted
    /// sender's is set, and the entry it replaces in place has its cleared.
    pub fn observe_packet(&mut self, meta: &PacketMeta, now: SimTime) {
        self.observe_packet_at(meta, usize::MAX, now);
    }

    /// [`observe_packet`](Self::observe_packet) with the sender's index in
    /// the list given to [`announce_senders`](Self::announce_senders): the
    /// estimator updates that record in place, and falls back to a search
    /// when `slot` does not name the sender.
    pub fn observe_packet_at(&mut self, meta: &PacketMeta, slot: usize, now: SimTime) {
        let src = meta.link_src;
        if src == self.id {
            return;
        }
        let config = &self.config;
        let listed = self
            .estimator
            .observe_at(slot, src, meta.seqno, now, config.estimator_alpha);
        if !listed {
            match self
                .neighbors
                .admit(src, &self.estimator, config.neighbor_cap)
            {
                Admission::Dropped => {}
                Admission::Added => self.estimator.set_in_table(src, true),
                Admission::Replaced(evicted) => {
                    self.estimator.set_in_table(evicted, false);
                    self.estimator.set_in_table(src, true);
                }
            }
        }
        if meta.origin_parent == Some(self.id) && meta.origin != self.id {
            // The origin is our direct child: it is trivially a descendant
            // reached through itself.
            self.descendants
                .note(meta.origin, meta.origin, now, config.descendants_cap);
        }
    }

    /// Processes a tree-join beacon heard from `from`.
    /// Returns `true` if the parent changed.
    pub fn on_beacon(&mut self, from: NodeId, beacon: &Beacon, now: SimTime) -> bool {
        self.on_beacon_at(from, usize::MAX, beacon, now)
    }

    /// [`on_beacon`](Self::on_beacon) reading `from`'s link quality at its
    /// announced `slot`, as [`observe_packet_at`](Self::observe_packet_at)
    /// finds it.
    pub fn on_beacon_at(
        &mut self,
        from: NodeId,
        slot: usize,
        beacon: &Beacon,
        now: SimTime,
    ) -> bool {
        let quality = self.estimator.quality_at(slot, from).unwrap_or(0.0);
        self.tree.on_beacon(from, beacon, quality, now)
    }

    /// Records that this node forwarded a packet up the tree on behalf of
    /// `origin`, which arrived from the immediate child `from_child`.
    pub fn note_routed_up(&mut self, origin: NodeId, from_child: NodeId, now: SimTime) {
        if origin != self.id {
            self.descendants
                .note(origin, from_child, now, self.config.descendants_cap);
        }
    }

    /// Declares the current parent unusable after repeated send failures.
    pub fn drop_parent(&mut self) {
        self.tree.drop_parent();
    }

    /// Estimated inbound link quality from `node`, if it has been heard.
    pub fn quality_of(&self, node: NodeId) -> Option<f64> {
        self.estimator.quality(node)
    }

    /// Returns `true` if `node` is currently in the neighbor table (read
    /// from the table bit on its link record).
    pub fn is_neighbor(&self, node: NodeId) -> bool {
        self.estimator.in_table(node)
    }

    /// Returns `true` if `node` is a known descendant.
    pub fn is_descendant(&self, node: NodeId) -> bool {
        self.descendants.contains(node)
    }

    /// The best-connected neighbors to report in a summary message.
    pub fn summary_neighbors(&self) -> Vec<NeighborEntry> {
        self.neighbors
            .best(self.config.summary_neighbors, &self.estimator)
    }

    /// The full neighbor table (bounded at the configuration's
    /// `neighbor_cap`).
    pub fn neighbor_table(&self) -> &NeighborTable {
        &self.neighbors
    }

    /// The descendants list.
    pub fn descendants(&self) -> &DescendantsList {
        &self.descendants
    }

    /// Decides the next hop for a packet that must reach `dst`, applying the
    /// neighbor-shortcut and down-tree rules before falling back to the
    /// parent. `allow_neighbor_shortcut` corresponds to routing rule 3 and
    /// can be disabled for ablation experiments.
    pub fn next_hop_for(&self, dst: NodeId, allow_neighbor_shortcut: bool) -> NextHop {
        if dst == self.id {
            return NextHop::Local;
        }
        if allow_neighbor_shortcut && self.is_neighbor(dst) {
            return NextHop::Neighbor(dst);
        }
        if let Some(child) = self.descendants.next_hop(dst) {
            return NextHop::DownTree(child);
        }
        // With no parent (the basestation, or a detached sensor) there is no
        // way left to make progress.
        self.parent().map_or(NextHop::Stuck, NextHop::UpTree)
    }

    /// Periodic maintenance: evicts neighbors and descendants that have been
    /// silent longer than the stale timeout.
    pub fn maintenance(&mut self, now: SimTime) {
        let cutoff = SimTime::from_millis(
            now.as_millis()
                .saturating_sub(self.config.stale_timeout.as_millis()),
        );
        // The table reads last-heard times from the estimator: it goes first.
        // The estimator then drops the same ids' records at the same cutoff,
        // and with them their table bits, so no bit outlives its entry.
        let evicted = self.neighbors.evict_silent_since(cutoff, &self.estimator);
        self.estimator.evict_silent_since(cutoff);
        self.descendants.evict(cutoff, None);
        for gone in evicted {
            self.descendants.evict(SimTime::ZERO, Some(gone));
            if self.parent() == Some(gone) {
                self.tree.drop_parent();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_net::LinkDst;
    use scoop_types::{MessageKind, SeqNo};

    fn meta(src: NodeId, origin: NodeId, origin_parent: Option<NodeId>, seq: u32) -> PacketMeta {
        PacketMeta {
            link_src: src,
            link_dst: LinkDst::Broadcast,
            origin,
            origin_parent,
            seqno: SeqNo(seq),
            kind: MessageKind::Data,
            hops: 0,
        }
    }

    fn hear(rs: &mut RoutingState, from: NodeId, n: u32) {
        for i in 0..n {
            rs.observe_packet(&meta(from, from, None, i), SimTime::from_secs(i as u64));
        }
    }

    #[test]
    fn observing_packets_builds_neighbor_table() {
        let mut rs = RoutingState::new(NodeId(5), RoutingConfig::default());
        hear(&mut rs, NodeId(2), 10);
        hear(&mut rs, NodeId(3), 10);
        assert!(rs.is_neighbor(NodeId(2)));
        assert!(rs.is_neighbor(NodeId(3)));
        assert!(!rs.is_neighbor(NodeId(9)));
        assert!(rs.quality_of(NodeId(2)).unwrap() > 0.5);
    }

    #[test]
    fn beacon_attaches_and_next_hop_defaults_to_parent() {
        let mut rs = RoutingState::new(NodeId(5), RoutingConfig::default());
        hear(&mut rs, NodeId(1), 20);
        let attached = rs.on_beacon(
            NodeId(1),
            &Beacon {
                hops: 0,
                path_etx: 0.0,
                parent: None,
            },
            SimTime::from_secs(30),
        );
        assert!(attached);
        assert_eq!(rs.parent(), Some(NodeId(1)));
        assert_eq!(rs.hops(), 1);
        // An unknown destination goes up the tree.
        assert_eq!(
            rs.next_hop_for(NodeId(40), true),
            NextHop::UpTree(NodeId(1))
        );
    }

    #[test]
    fn beacons_from_unheard_nodes_are_ignored() {
        let mut rs = RoutingState::new(NodeId(5), RoutingConfig::default());
        let attached = rs.on_beacon(
            NodeId(1),
            &Beacon {
                hops: 0,
                path_etx: 0.0,
                parent: None,
            },
            SimTime::from_secs(1),
        );
        assert!(
            !attached,
            "cannot attach over a link with no quality estimate"
        );
    }

    #[test]
    fn neighbor_shortcut_and_descendant_routing() {
        let mut rs = RoutingState::new(NodeId(5), RoutingConfig::default());
        hear(&mut rs, NodeId(1), 10);
        rs.on_beacon(
            NodeId(1),
            &Beacon {
                hops: 0,
                path_etx: 0.0,
                parent: None,
            },
            SimTime::from_secs(20),
        );
        hear(&mut rs, NodeId(7), 10);
        rs.note_routed_up(NodeId(30), NodeId(7), SimTime::from_secs(25));

        // A direct neighbor takes the shortcut (rule 3)...
        assert_eq!(
            rs.next_hop_for(NodeId(7), true),
            NextHop::Neighbor(NodeId(7))
        );
        // ...unless the shortcut is disabled, in which case it is still a
        // descendant of nobody so it goes up the tree.
        assert_eq!(
            rs.next_hop_for(NodeId(7), false),
            NextHop::UpTree(NodeId(1))
        );
        // Known descendants go down the right branch (rule 5).
        assert_eq!(
            rs.next_hop_for(NodeId(30), true),
            NextHop::DownTree(NodeId(7))
        );
        // Our own id is local (rule 2).
        assert_eq!(rs.next_hop_for(NodeId(5), true), NextHop::Local);
    }

    #[test]
    fn children_are_learned_from_origin_parent_header() {
        let mut rs = RoutingState::new(NodeId(5), RoutingConfig::default());
        rs.observe_packet(
            &meta(NodeId(9), NodeId(9), Some(NodeId(5)), 0),
            SimTime::from_secs(1),
        );
        assert!(rs.is_descendant(NodeId(9)));
        assert_eq!(
            rs.next_hop_for(NodeId(9), false),
            NextHop::DownTree(NodeId(9))
        );
    }

    #[test]
    fn unattached_node_with_no_route_is_stuck() {
        let rs = RoutingState::new(NodeId(5), RoutingConfig::default());
        assert_eq!(rs.next_hop_for(NodeId(9), true), NextHop::Stuck);
    }

    #[test]
    fn basestation_routes_down_only() {
        let mut rs = RoutingState::new(NodeId::BASESTATION, RoutingConfig::default());
        rs.observe_packet(
            &meta(NodeId(2), NodeId(2), Some(NodeId(0)), 0),
            SimTime::from_secs(1),
        );
        assert_eq!(
            rs.next_hop_for(NodeId(2), false),
            NextHop::DownTree(NodeId(2))
        );
        assert_eq!(rs.next_hop_for(NodeId(99), false), NextHop::Stuck);
        assert!(rs.is_attached());
    }

    #[test]
    fn maintenance_evicts_stale_parent_and_neighbors() {
        let mut rs = RoutingState::new(NodeId(5), RoutingConfig::default());
        hear(&mut rs, NodeId(1), 5);
        rs.on_beacon(
            NodeId(1),
            &Beacon {
                hops: 0,
                path_etx: 0.0,
                parent: None,
            },
            SimTime::from_secs(5),
        );
        assert!(rs.is_attached());
        // A long time passes with no traffic from node 1.
        rs.maintenance(SimTime::from_secs(2000));
        assert!(!rs.is_neighbor(NodeId(1)));
        assert!(
            !rs.is_attached(),
            "losing the parent neighbor detaches the node"
        );
    }

    #[test]
    fn summary_neighbors_limited_and_sorted() {
        let cfg = RoutingConfig {
            summary_neighbors: 2,
            ..RoutingConfig::default()
        };
        let mut rs = RoutingState::new(NodeId(5), cfg);
        hear(&mut rs, NodeId(1), 30);
        // Node 2 is heard with many gaps: lower quality.
        for i in 0..10u32 {
            rs.observe_packet(
                &meta(NodeId(2), NodeId(2), None, i * 5),
                SimTime::from_secs(i as u64),
            );
        }
        hear(&mut rs, NodeId(3), 30);
        let best = rs.summary_neighbors();
        assert_eq!(best.len(), 2);
        assert!(best.iter().all(|e| e.node != NodeId(2)));
    }

    #[test]
    fn a_routing_state_stays_within_144_bytes() {
        // One per node of a 32k-node run. It was 184 B while the tree held
        // its hysteresis and parent timeout, and the estimator and both
        // tables their own copies of the smoothing factor and capacities.
        assert!(std::mem::size_of::<RoutingState>() <= 144);
    }

    #[test]
    fn own_packets_are_not_observed() {
        let mut rs = RoutingState::new(NodeId(5), RoutingConfig::default());
        rs.observe_packet(&meta(NodeId(5), NodeId(5), None, 0), SimTime::from_secs(1));
        assert!(rs.neighbor_table().is_empty());
    }
}
