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
//! # Two heaps
//!
//! Almost every pending entry is a timer: each node keeps its periodic
//! timers armed, while only the few transmissions in flight wait as
//! arrivals. A timer needs 22 bytes with its key, a batch of arrivals 56, so
//! the queue keeps them in two binary heaps — timers as 24-byte entries,
//! arrivals as full events — and [`EventQueue::pop`] takes whichever head has
//! the smaller `(time, seq)`. `seq` is one insertion counter shared by both
//! heaps, so every entry has a unique `(time, seq)` key, each heap's head is
//! the minimum of its own entries, and the smaller of the two heads is
//! exactly the entry one heap over both would pop: the pop order is the
//! single heap's order, ties included.

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

/// One heap entry: an item under its `(time, seq)` key.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other.key().cmp(&self.key())
    }
}

/// A queued timer, `(node, token)`: 24 bytes with its key.
type TimerEntry = Entry<(NodeId, u32)>;

/// A time-ordered queue of pending events: one heap of timers, one of
/// arrivals (see the module docs).
pub struct EventQueue<P> {
    timers: BinaryHeap<TimerEntry>,
    /// Holds only [`Event::Arrivals`].
    arrivals: BinaryHeap<Entry<Event<P>>>,
    /// Insertion counter shared by both heaps — the key to the pop-order
    /// argument in the module docs.
    next_seq: u64,
}

impl<P> EventQueue<P> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty queue with room for `timers` timers and `arrivals` batches
    /// of arrivals before reallocating. The backing storage only ever grows,
    /// so capacity established during warm-up is recycled across the whole
    /// simulation.
    pub fn with_capacity(timers: usize, arrivals: usize) -> Self {
        EventQueue {
            timers: BinaryHeap::with_capacity(timers),
            arrivals: BinaryHeap::with_capacity(arrivals),
            next_seq: 0,
        }
    }

    /// An empty queue with room for `num_shards * cap_per_shard` timers.
    /// Kept for `bench/` only, whose queue-hold measurement still names
    /// region shards; the queue has none, so the region arguments only size
    /// the timer heap.
    pub fn sharded(num_shards: usize, _nodes_per_shard: usize, cap_per_shard: usize) -> Self {
        Self::with_capacity(num_shards.max(1) * cap_per_shard, 0)
    }

    /// Total number of queue entries both heaps can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.timers.capacity() + self.arrivals.capacity()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: Event<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match event {
            Event::TimerFire { node, token } => self.timers.push(Entry {
                time,
                seq,
                item: (node, token),
            }),
            arrivals => self.arrivals.push(Entry {
                time,
                seq,
                item: arrivals,
            }),
        }
    }

    /// Whether the earliest entry is a timer; `None` when both heaps are
    /// empty.
    #[inline]
    fn timer_is_next(&self) -> Option<bool> {
        match (self.timers.peek(), self.arrivals.peek()) {
            (Some(t), Some(a)) => Some(t.key() < a.key()),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Removes and returns the earliest event, along with its time.
    pub fn pop(&mut self) -> Option<(SimTime, Event<P>)> {
        if self.timer_is_next()? {
            self.timers.pop().map(|e| {
                let (node, token) = e.item;
                (e.time, Event::TimerFire { node, token })
            })
        } else {
            self.arrivals.pop().map(|e| (e.time, e.item))
        }
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let timer = self.timers.peek().map(|e| e.time);
        let arrival = self.arrivals.peek().map(|e| e.time);
        timer.into_iter().chain(arrival).min()
    }

    /// Number of pending queue entries (a transmission's arrivals count once
    /// per 32-listener word, not once per listener).
    pub fn len(&self) -> usize {
        self.timers.len() + self.arrivals.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty() && self.arrivals.is_empty()
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
    use proptest::prelude::*;
    use scoop_types::{MessageKind, SeqNo};
    use std::cmp::Reverse;

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

    /// A batch of arrivals carrying `id` as its payload.
    fn arrivals(id: u64) -> Event<u64> {
        Event::Arrivals {
            first: 0,
            heard: 1,
            packet: Packet {
                meta: PacketMeta {
                    link_src: NodeId(9),
                    link_dst: LinkDst::Broadcast,
                    origin: NodeId(9),
                    origin_parent: None,
                    seqno: SeqNo(1),
                    kind: MessageKind::Heartbeat,
                    hops: 0,
                },
                payload: id,
            },
        }
    }

    /// `(time, is a timer, id)` of a popped event: a timer's id is its
    /// token, a batch's its payload.
    fn observed((time, event): (SimTime, Event<u64>)) -> (SimTime, bool, u64) {
        match event {
            Event::TimerFire { token, .. } => (time, true, u64::from(token)),
            Event::Arrivals { packet, .. } => (time, false, packet.payload),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of timer pushes, arrival pushes and pops, over a
        /// handful of distinct times (so most pushes tie with another), pops
        /// in the order of one heap keyed by `(time, seq)` over both kinds.
        #[test]
        fn two_heaps_pop_in_one_heaps_order(
            ops in proptest::collection::vec((0u8..5, 0u64..4), 1..300),
        ) {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut reference = BinaryHeap::new();
            for (seq, &(op, t)) in ops.iter().enumerate() {
                let time = SimTime::from_secs(t);
                let id = seq as u64;
                match op {
                    0 | 1 => {
                        queue.push(time, Event::TimerFire { node: NodeId(1), token: seq as u32 });
                        reference.push(Reverse((time, seq, true, id)));
                    }
                    2 | 3 => {
                        queue.push(time, arrivals(id));
                        reference.push(Reverse((time, seq, false, id)));
                    }
                    _ => {
                        let want = reference.pop().map(|Reverse((t, _, timer, id))| (t, timer, id));
                        prop_assert_eq!(queue.pop().map(observed), want);
                    }
                }
                prop_assert_eq!(queue.len(), reference.len());
                let head = reference.peek().map(|Reverse((t, ..))| *t);
                prop_assert_eq!(queue.peek_time(), head);
            }
            while let Some(Reverse((t, _, timer, id))) = reference.pop() {
                prop_assert_eq!(queue.pop().map(observed), Some((t, timer, id)));
            }
            prop_assert!(queue.pop().is_none());
        }
    }

    #[test]
    fn a_queued_timer_is_24_bytes() {
        // Timers are nearly every pending entry of a large run; in an entry
        // sized for a packet, as arrivals are, each took 56 bytes.
        assert_eq!(std::mem::size_of::<TimerEntry>(), 24);
    }

    #[test]
    fn an_event_with_a_shared_payload_stays_within_40_bytes() {
        // The queue entry is the unit of the 32k-node run's heap footprint; a
        // 64-bit listener mask would grow this to 48.
        assert!(std::mem::size_of::<Event<std::sync::Arc<u64>>>() <= 40);
    }
}
