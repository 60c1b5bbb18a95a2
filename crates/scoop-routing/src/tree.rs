//! Spanning-tree formation by beaconing.
//!
//! "The basic idea is to repeatedly broadcast a tree-join message from the
//! root down the tree. Nodes pick as their parent one of the nodes from which
//! they heard the tree-join message." (Section 2.2). As in Woo et al., our
//! beacons advertise the sender's cumulative path cost (expected
//! transmissions to the root); a node picks the parent minimizing that cost
//! plus the cost of the link to the parent, with hysteresis so marginal
//! improvements do not cause route churn.

use scoop_types::{NodeId, SimTime};
use serde::{Deserialize, Serialize};

/// A candidate must beat the current route by this much (in expected
/// transmissions) before a node switches parents.
const HYSTERESIS: f64 = 0.5;

/// How long a node keeps a parent it has not heard from before declaring the
/// route stale.
const PARENT_TIMEOUT_MS: u64 = 90_000;

/// The content of a tree-join (heartbeat) message.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Beacon {
    /// The sender's hop distance from the basestation (0 for the root).
    pub hops: u16,
    /// The sender's cumulative expected-transmission cost to reach the root
    /// (0 for the root).
    pub path_etx: f64,
    /// The sender's current parent, if any (lets the basestation and
    /// neighbors learn tree edges passively).
    pub parent: Option<NodeId>,
}

/// Parent-selection state for one node.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TreeState {
    id: NodeId,
    parent: Option<NodeId>,
    hops: u16,
    path_etx: f64,
    last_parent_heard: SimTime,
}

impl TreeState {
    /// Creates tree state for `id`. The basestation is its own root with cost
    /// zero; everyone else starts unattached.
    pub fn new(id: NodeId) -> Self {
        let is_root = id.is_basestation();
        TreeState {
            id,
            parent: None,
            hops: if is_root { 0 } else { u16::MAX },
            path_etx: if is_root { 0.0 } else { f64::INFINITY },
            last_parent_heard: SimTime::ZERO,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current parent, or `None` if the node has not joined the tree.
    pub fn parent(&self) -> Option<NodeId> {
        if self.id.is_basestation() {
            None
        } else {
            self.parent
        }
    }

    /// Hop distance from the root (`0` for the root itself, `u16::MAX` if
    /// unattached).
    pub fn hops(&self) -> u16 {
        self.hops
    }

    /// Cumulative expected transmissions to the root along the current route.
    pub fn path_etx(&self) -> f64 {
        self.path_etx
    }

    /// `true` once the node has a route to the root (always true for the
    /// basestation).
    pub fn is_attached(&self) -> bool {
        self.id.is_basestation() || self.parent.is_some()
    }

    /// The beacon this node would broadcast right now.
    pub fn my_beacon(&self) -> Beacon {
        Beacon {
            hops: self.hops,
            path_etx: self.path_etx,
            parent: self.parent(),
        }
    }

    /// Processes a beacon heard from `from` over a link whose inbound quality
    /// we estimate as `link_quality` (probability in `(0, 1]`). Returns
    /// `true` if the parent changed.
    pub fn on_beacon(
        &mut self,
        from: NodeId,
        beacon: &Beacon,
        link_quality: f64,
        now: SimTime,
    ) -> bool {
        if self.id.is_basestation() || from == self.id {
            return false;
        }
        // Never pick a node that routes through us (simple loop avoidance).
        if beacon.parent == Some(self.id) {
            return false;
        }
        let link_etx = if link_quality > 0.0 {
            1.0 / link_quality
        } else {
            f64::INFINITY
        };
        let candidate_cost = beacon.path_etx + link_etx;
        if !candidate_cost.is_finite() {
            return false;
        }

        if self.parent == Some(from) {
            // Refresh the existing route.
            self.path_etx = candidate_cost;
            self.hops = beacon.hops.saturating_add(1);
            self.last_parent_heard = now;
            return false;
        }

        let current_stale = now
            .as_millis()
            .saturating_sub(self.last_parent_heard.as_millis())
            > PARENT_TIMEOUT_MS;
        let better = candidate_cost + HYSTERESIS < self.path_etx;
        if self.parent.is_none() || current_stale || better {
            self.parent = Some(from);
            self.path_etx = candidate_cost;
            self.hops = beacon.hops.saturating_add(1);
            self.last_parent_heard = now;
            return true;
        }
        false
    }

    /// Declares the current parent unusable (e.g. repeated send failures) so
    /// the next beacon from anyone can re-attach the node.
    pub fn drop_parent(&mut self) {
        if !self.id.is_basestation() {
            self.parent = None;
            self.hops = u16::MAX;
            self.path_etx = f64::INFINITY;
        }
    }

    /// When the current parent was last heard.
    pub fn last_parent_heard(&self) -> SimTime {
        self.last_parent_heard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root_beacon() -> Beacon {
        Beacon {
            hops: 0,
            path_etx: 0.0,
            parent: None,
        }
    }

    #[test]
    fn basestation_is_always_attached_with_zero_cost() {
        let t = TreeState::new(NodeId::BASESTATION);
        assert!(t.is_attached());
        assert_eq!(t.hops(), 0);
        assert_eq!(t.path_etx(), 0.0);
        assert_eq!(t.parent(), None);
    }

    #[test]
    fn first_beacon_attaches_node() {
        let mut t = TreeState::new(NodeId(5));
        assert!(!t.is_attached());
        let changed = t.on_beacon(
            NodeId::BASESTATION,
            &root_beacon(),
            0.8,
            SimTime::from_secs(1),
        );
        assert!(changed);
        assert_eq!(t.parent(), Some(NodeId::BASESTATION));
        assert_eq!(t.hops(), 1);
        assert!((t.path_etx() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn better_route_causes_switch_with_hysteresis() {
        let mut t = TreeState::new(NodeId(5));
        t.on_beacon(
            NodeId(2),
            &Beacon {
                hops: 2,
                path_etx: 4.0,
                parent: Some(NodeId(1)),
            },
            0.5,
            SimTime::from_secs(1),
        );
        assert_eq!(t.parent(), Some(NodeId(2)));
        // Marginally better candidate (6.0 - 5.9 = 0.1 < hysteresis): no switch.
        let switched = t.on_beacon(
            NodeId(3),
            &Beacon {
                hops: 1,
                path_etx: 4.9,
                parent: Some(NodeId(0)),
            },
            1.0,
            SimTime::from_secs(2),
        );
        assert!(!switched);
        assert_eq!(t.parent(), Some(NodeId(2)));
        // Clearly better candidate: switch.
        let switched = t.on_beacon(
            NodeId(4),
            &Beacon {
                hops: 1,
                path_etx: 1.0,
                parent: Some(NodeId(0)),
            },
            1.0,
            SimTime::from_secs(3),
        );
        assert!(switched);
        assert_eq!(t.parent(), Some(NodeId(4)));
        assert_eq!(t.hops(), 2);
    }

    #[test]
    fn refreshing_current_parent_updates_cost_without_switch() {
        let mut t = TreeState::new(NodeId(5));
        t.on_beacon(
            NodeId(2),
            &Beacon {
                hops: 1,
                path_etx: 1.0,
                parent: None,
            },
            1.0,
            SimTime::from_secs(1),
        );
        let before = t.path_etx();
        let switched = t.on_beacon(
            NodeId(2),
            &Beacon {
                hops: 1,
                path_etx: 3.0,
                parent: None,
            },
            1.0,
            SimTime::from_secs(2),
        );
        assert!(!switched);
        assert!(t.path_etx() > before);
        assert_eq!(t.last_parent_heard(), SimTime::from_secs(2));
    }

    #[test]
    fn ignores_children_as_parents() {
        let mut t = TreeState::new(NodeId(5));
        t.on_beacon(
            NodeId(2),
            &Beacon {
                hops: 1,
                path_etx: 1.0,
                parent: None,
            },
            1.0,
            SimTime::from_secs(1),
        );
        // Node 9 claims node 5 as its parent; it must not become 5's parent.
        let switched = t.on_beacon(
            NodeId(9),
            &Beacon {
                hops: 2,
                path_etx: 0.1,
                parent: Some(NodeId(5)),
            },
            1.0,
            SimTime::from_secs(2),
        );
        assert!(!switched);
        assert_eq!(t.parent(), Some(NodeId(2)));
    }

    #[test]
    fn stale_parent_is_replaced_even_by_worse_route() {
        let mut t = TreeState::new(NodeId(5));
        t.on_beacon(
            NodeId(2),
            &Beacon {
                hops: 1,
                path_etx: 1.0,
                parent: None,
            },
            1.0,
            SimTime::from_secs(1),
        );
        // Long silence from the parent; a worse candidate shows up.
        let switched = t.on_beacon(
            NodeId(3),
            &Beacon {
                hops: 3,
                path_etx: 6.0,
                parent: None,
            },
            0.5,
            SimTime::from_secs(500),
        );
        assert!(switched);
        assert_eq!(t.parent(), Some(NodeId(3)));
    }

    #[test]
    fn drop_parent_detaches() {
        let mut t = TreeState::new(NodeId(5));
        t.on_beacon(NodeId(2), &root_beacon(), 1.0, SimTime::from_secs(1));
        t.drop_parent();
        assert!(!t.is_attached());
        assert_eq!(t.hops(), u16::MAX);
    }

    #[test]
    fn dead_links_are_never_selected() {
        let mut t = TreeState::new(NodeId(5));
        let switched = t.on_beacon(NodeId(2), &root_beacon(), 0.0, SimTime::from_secs(1));
        assert!(!switched);
        assert!(!t.is_attached());
    }
}
