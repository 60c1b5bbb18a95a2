//! The discrete-event queue.
//!
//! Events are ordered by simulated time; ties are broken by insertion order
//! so the simulation is fully deterministic.
//!
//! # One entry per transmission
//!
//! A transmission attempt is heard by many listeners at the same instant, so
//! it is queued as one [`Event::Arrivals`] per 32-listener word of the
//! transmitter's neighbour row — a bit mask of who heard it plus the packet —
//! not as one entry per listener. Dispatch delivers to the set bits in
//! ascending order. This is the order a per-listener queue produces, by
//! construction: the engine rolls loss for a row front to back, so
//! per-listener entries of one attempt would receive consecutive `seq`
//! values at one `time`; a batch occupies exactly that contiguous block of
//! `(time, seq)` keys, nothing else can sort between its members, and
//! whatever a listener's callback schedules is pushed after the batch was —
//! it gets a later `seq` (and never an earlier `time`) in both designs, so it
//! runs after the rest of the batch either way. The random stream is
//! untouched because loss is still rolled once per listener per attempt, at
//! transmit time.
//!
//! # Sharding
//!
//! The engine runs one heap ([`EventQueue::with_capacity`]).
//! [`EventQueue::sharded`] partitions the queue into per-region shards —
//! contiguous node-id ranges each backed by their own binary heap, events
//! routed to the shard of their node — and exists only so the benchmark
//! harness can time it against the single heap. Popping takes the minimum
//! across shard heads ordered by `(time, seq, shard)`. Because `seq` is a
//! *global* insertion counter shared by all shards, every event has a unique
//! `(time, seq)` key, and the cross-shard minimum is exactly the element a
//! single merged heap would pop, whatever the shard count. (The shard index
//! in the ordering key is the documented tie-breaker, but it is never
//! reached: global `seq` uniqueness decides every tie first.)

use crate::packet::Packet;
use scoop_types::{NodeId, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending simulation event.
#[derive(Clone, Debug)]
pub enum Event<P> {
    /// One transmission attempt arrives at the radios that heard it (see the
    /// module docs). The transmitter is `packet.meta.link_src`; a listener
    /// is *addressed* if the packet is a broadcast or a unicast to it, and
    /// merely overhears it (snoop) otherwise.
    Arrivals {
        /// Index, in the transmitter's neighbour row, of the listener that
        /// bit 0 of `heard` stands for (a multiple of 32).
        first: u16,
        /// Bit `i` is set if the listener at row index `first + i` heard the
        /// attempt. One 32-bit word keeps the event at 40 bytes with an
        /// `Arc` payload; wider rows are split across several events.
        heard: u32,
        /// The packet as transmitted.
        packet: Packet<P>,
    },
    /// A timer set by `node` fires.
    TimerFire {
        /// The node whose timer fires.
        node: NodeId,
        /// The opaque token the node supplied when arming the timer.
        token: u32,
    },
}

impl<P> Event<P> {
    /// The node whose region shard queues this event: the node a timer is
    /// delivered to, the *transmitter* of a batch of arrivals (its listeners
    /// are its radio neighbours, so they share its region or border it).
    pub fn node(&self) -> NodeId {
        match self {
            Event::Arrivals { packet, .. } => packet.meta.link_src,
            Event::TimerFire { node, .. } => *node,
        }
    }
}

struct QueueEntry<P> {
    time: SimTime,
    seq: u64,
    event: Event<P>,
}

impl<P> PartialEq for QueueEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P> Eq for QueueEntry<P> {}
impl<P> PartialOrd for QueueEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for QueueEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of pending events, sharded by destination region.
pub struct EventQueue<P> {
    /// One heap per contiguous node-id region. A single-shard queue is the
    /// classic global heap.
    shards: Vec<BinaryHeap<QueueEntry<P>>>,
    /// Width of each region: events for node `i` route to shard
    /// `i / nodes_per_shard` (clamped to the last shard).
    nodes_per_shard: usize,
    /// Global insertion counter shared by every shard — the key to the
    /// byte-identity argument in the module docs.
    next_seq: u64,
}

impl<P> EventQueue<P> {
    /// An empty single-shard queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty single-shard queue with room for `cap` events before
    /// reallocating. The backing storage only ever grows, so capacity
    /// established during warm-up is recycled across the whole simulation.
    pub fn with_capacity(cap: usize) -> Self {
        Self::sharded(1, usize::MAX, cap)
    }

    /// An empty queue with `num_shards` region shards of `nodes_per_shard`
    /// consecutive node ids each, every shard pre-sized to `cap_per_shard`.
    pub fn sharded(num_shards: usize, nodes_per_shard: usize, cap_per_shard: usize) -> Self {
        let num_shards = num_shards.max(1);
        EventQueue {
            shards: (0..num_shards)
                .map(|_| BinaryHeap::with_capacity(cap_per_shard))
                .collect(),
            nodes_per_shard: nodes_per_shard.max(1),
            next_seq: 0,
        }
    }

    /// Number of region shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, event: &Event<P>) -> usize {
        (event.node().index() / self.nodes_per_shard).min(self.shards.len() - 1)
    }

    /// Total number of queue entries the shards can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(BinaryHeap::capacity).sum()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: Event<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = self.shard_of(&event);
        self.shards[shard].push(QueueEntry { time, seq, event });
    }

    /// The shard holding the globally earliest event, by `(time, seq,
    /// shard)`. `seq` is globally unique, so this is exactly the element a
    /// single merged heap would surface.
    #[inline]
    fn earliest_shard(&self) -> Option<usize> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (s, heap) in self.shards.iter().enumerate() {
            if let Some(head) = heap.peek() {
                let key = (head.time, head.seq, s);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, s)| s)
    }

    /// Removes and returns the earliest event, along with its time.
    pub fn pop(&mut self) -> Option<(SimTime, Event<P>)> {
        let s = self.earliest_shard()?;
        self.shards[s].pop().map(|e| (e.time, e.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest_shard()
            .and_then(|s| self.shards[s].peek().map(|e| e.time))
    }

    /// Number of pending queue entries (a transmission's arrivals count once
    /// per 32-listener word, not once per listener).
    pub fn len(&self) -> usize {
        self.shards.iter().map(BinaryHeap::len).sum()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(BinaryHeap::is_empty)
    }
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{LinkDst, PacketMeta};
    use scoop_types::{MessageKind, SeqNo};

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(
            SimTime::from_secs(5),
            Event::TimerFire {
                node: NodeId(1),
                token: 5,
            },
        );
        q.push(
            SimTime::from_secs(1),
            Event::TimerFire {
                node: NodeId(1),
                token: 1,
            },
        );
        q.push(
            SimTime::from_secs(3),
            Event::TimerFire {
                node: NodeId(1),
                token: 3,
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        for token in 0..10 {
            q.push(
                SimTime::from_secs(2),
                Event::TimerFire {
                    node: NodeId(0),
                    token,
                },
            );
        }
        let tokens: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::TimerFire { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(
            SimTime::from_secs(9),
            Event::TimerFire {
                node: NodeId(2),
                token: 0,
            },
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn sharded_pop_order_matches_single_queue() {
        // Any shard count must reproduce the single global heap's pop order
        // exactly — the global `seq` counter makes every (time, seq) key
        // unique, so the cross-shard minimum is the merged-heap minimum.
        let mut events = Vec::new();
        let mut state = 0x9e37_79b9_u64;
        for k in 0..500u32 {
            // Cheap deterministic pseudo-random times/nodes, many ties.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = SimTime::from_secs((state >> 33) % 17);
            let node = NodeId(((state >> 17) % 40) as u16);
            events.push((t, node, k));
        }
        let drain = |num_shards: usize| -> Vec<(u64, u32)> {
            let mut q: EventQueue<()> =
                EventQueue::sharded(num_shards, 40usize.div_ceil(num_shards), 0);
            for &(t, node, token) in &events {
                q.push(t, Event::TimerFire { node, token });
            }
            std::iter::from_fn(|| q.pop())
                .map(|(t, e)| match e {
                    Event::TimerFire { token, .. } => (t.as_secs(), token),
                    _ => unreachable!(),
                })
                .collect()
        };
        let single = drain(1);
        assert_eq!(single.len(), events.len());
        for shards in [2, 3, 4, 7, 64] {
            assert_eq!(drain(shards), single, "{shards} shards diverged");
        }
    }

    #[test]
    fn sharded_routing_and_interleaved_push_pop() {
        let mut q: EventQueue<()> = EventQueue::sharded(4, 10, 0);
        assert_eq!(q.num_shards(), 4);
        // Nodes beyond the last region clamp into the final shard instead of
        // panicking.
        q.push(
            SimTime::from_secs(1),
            Event::TimerFire {
                node: NodeId(999),
                token: 0,
            },
        );
        q.push(
            SimTime::from_secs(1),
            Event::TimerFire {
                node: NodeId(0),
                token: 1,
            },
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        // Same time → global insertion order decides, across shards.
        let (_, first) = q.pop().unwrap();
        assert_eq!(first.node(), NodeId(999));
        let (_, second) = q.pop().unwrap();
        assert_eq!(second.node(), NodeId(0));
        assert!(q.is_empty());
    }

    #[test]
    fn event_node_accessor() {
        let e: Event<()> = Event::TimerFire {
            node: NodeId(7),
            token: 1,
        };
        assert_eq!(e.node(), NodeId(7));
        // A batch of arrivals is routed by its transmitter.
        let batch: Event<()> = Event::Arrivals {
            first: 32,
            heard: 0b101,
            packet: Packet {
                meta: PacketMeta {
                    link_src: NodeId(9),
                    link_dst: LinkDst::Broadcast,
                    origin: NodeId(3),
                    origin_parent: None,
                    seqno: SeqNo(1),
                    kind: MessageKind::Heartbeat,
                    hops: 0,
                },
                payload: (),
            },
        };
        assert_eq!(batch.node(), NodeId(9));
    }

    #[test]
    fn an_event_with_a_shared_payload_stays_within_40_bytes() {
        // The queue entry is the unit of the 32k-node run's heap footprint; a
        // 64-bit listener mask would grow this to 48.
        assert!(std::mem::size_of::<Event<std::sync::Arc<u64>>>() <= 40);
    }
}
