//! The in-network aggregation role (LOCAL aggregate workloads): partials held
//! at a sensor for a depth-scaled delay so its descendants' partials can merge
//! in before one message climbs to the parent (TAG-style). Only sensors of
//! such runs carry an [`Aggregation`].

use super::{SharedPayload, SimNode, MAX_FORWARD_HOPS, TICK_AGG};
use scoop_core::{ReplyMessage, ScoopPayload};
use scoop_net::NodeCtx;
use scoop_types::{MessageKind, PartialAggregate, SimDuration};
use std::sync::Arc;

/// Per-hop step of the aggregation hold timer: a node at depth `d` flushes
/// its merged partial after `(MAX_FORWARD_HOPS - d) * AGG_HOLD_STEP_MS`, so
/// deeper nodes flush first and each parent can fold its children's partials
/// into one upward message (TAG-style epoch scheduling). The worst-case hold
/// (depth 0 is the sink itself, depth 1 waits ~3.5 s) stays far below the
/// 15-second query interval.
const AGG_HOLD_STEP_MS: u64 = 150;

/// Partials held at this node waiting for the depth-scaled flush timer, in
/// arming order. All entries share the same fixed hold delay, so the front is
/// always the one whose `TICK_AGG` fires next.
#[derive(Default)]
pub(super) struct Aggregation {
    held: Vec<(u32, PartialAggregate)>,
}

impl SimNode {
    /// Tree aggregation: an intermediate still holding its own partial for
    /// `reply`'s query folds the child's partial into it (arrival order —
    /// deterministic) instead of forwarding it; the merged result climbs on
    /// this node's own flush. `false` if no partial is held.
    pub(super) fn merge_held(&mut self, reply: &ReplyMessage) -> bool {
        let (Some(agg), Some(partial)) = (self.aggregation.as_mut(), &reply.aggregate) else {
            return false;
        };
        let Some((_, held)) = agg.held.iter_mut().find(|(id, _)| *id == reply.query_id) else {
            return false;
        };
        held.merge(partial);
        true
    }

    /// Answers an aggregate query with this node's `partial`. With tree
    /// aggregation, hold it for a fixed depth-scaled delay so descendants'
    /// partials can merge in, then flush one message to the parent; no
    /// jitter — the RNG stream must match the seed workloads. Under value
    /// routing (SCOOP / HASH) the owner's partial is already the whole answer
    /// for its bucket: send it towards the sink immediately, unmerged.
    pub(super) fn answer_aggregate(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        query_id: u32,
        partial: PartialAggregate,
    ) {
        let Some(agg) = self.aggregation.as_mut() else {
            return self.send_aggregate(ctx, query_id, partial);
        };
        let depth = self.routing.hops().min(MAX_FORWARD_HOPS as u16) as u64;
        let hold = SimDuration::from_millis(AGG_HOLD_STEP_MS * (MAX_FORWARD_HOPS as u64 - depth));
        agg.held.push((query_id, partial));
        ctx.set_timer(hold, TICK_AGG);
    }

    /// `TICK_AGG`: one flush per arming; entries share a fixed hold delay, so
    /// the front is the one this firing belongs to.
    pub(super) fn flush_aggregate(&mut self, ctx: &mut NodeCtx<'_, SharedPayload>) {
        let Some(agg) = self.aggregation.as_mut().filter(|a| !a.held.is_empty()) else {
            return;
        };
        let (query_id, partial) = agg.held.remove(0);
        self.send_aggregate(ctx, query_id, partial);
    }

    /// Sends one partial aggregate towards the sink that issued `query_id`,
    /// as a [`MessageKind::Aggregate`] message (counted with query/reply in
    /// the cost breakdown), routed exactly like a reply.
    fn send_aggregate(
        &mut self,
        ctx: &mut NodeCtx<'_, SharedPayload>,
        query_id: u32,
        partial: PartialAggregate,
    ) {
        let reply = ReplyMessage {
            query_id,
            node: self.id,
            readings: Vec::new(),
            aggregate: Some(partial),
        };
        self.metrics.replies_sent += 1;
        if let Some(hop) = self.reply_hop(query_id) {
            ctx.send_unicast(
                hop,
                MessageKind::Aggregate,
                self.routing.parent(),
                Arc::new(ScoopPayload::Reply(reply)),
            );
        }
    }
}
