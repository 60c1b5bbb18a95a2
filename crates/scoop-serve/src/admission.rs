//! Bounded query admission with typed backpressure.
//!
//! Requests wait in a fixed-capacity queue until the next server tick drains
//! them into the event loop. When the queue is full, `submit` returns a typed
//! [`Overloaded`] — the caller turns it into a response frame, so every
//! request gets exactly one reply: rows, or an explicit rejection. Nothing
//! is ever dropped silently and nothing buffers without bound.

use crate::transport::ClientId;
use scoop_types::{Overloaded, ServeRequest};
use std::collections::VecDeque;

/// The bounded admission queue in front of the server tick.
pub struct AdmissionQueue {
    capacity: usize,
    queue: VecDeque<(ClientId, ServeRequest)>,
    /// Requests accepted over this queue's life.
    pub admitted: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected: u64,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` requests per drain.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity,
            queue: VecDeque::new(),
            admitted: 0,
            rejected: 0,
        }
    }

    /// The queue's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a request, or rejects it with a typed [`Overloaded`] if the
    /// queue is full.
    pub fn submit(&mut self, client: ClientId, req: ServeRequest) -> Result<(), Overloaded> {
        if self.queue.len() >= self.capacity {
            self.rejected += 1;
            return Err(Overloaded {
                id: req.id,
                queued: self.queue.len() as u32,
                capacity: self.capacity as u32,
            });
        }
        self.admitted += 1;
        self.queue.push_back((client, req));
        Ok(())
    }

    /// Moves every waiting request into `out`, in arrival order.
    pub fn drain_into(&mut self, out: &mut Vec<(ClientId, ServeRequest)>) {
        out.extend(self.queue.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{SimTime, ValueRange};

    fn req(id: u64) -> ServeRequest {
        ServeRequest {
            id,
            values: ValueRange::new(0, 1),
            time_lo: SimTime::ZERO,
            time_hi: SimTime::from_secs(1),
        }
    }

    #[test]
    fn fills_to_capacity_then_rejects_with_typed_overloaded() {
        let mut q = AdmissionQueue::new(3);
        for id in 0..3 {
            assert!(q.submit(7, req(id)).is_ok());
        }
        let err = q.submit(7, req(99)).unwrap_err();
        assert_eq!(err.id, 99);
        assert_eq!(err.queued, 3);
        assert_eq!(err.capacity, 3);
        assert_eq!(q.admitted, 3);
        assert_eq!(q.rejected, 1);

        // Draining frees the whole capacity again, in arrival order.
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(
            out.iter().map(|(_, r)| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(q.is_empty());
        assert!(q.submit(7, req(100)).is_ok());
    }
}
