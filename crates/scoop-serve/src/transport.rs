//! The transport seam between clients and a serving process.
//!
//! [`Transport`] is deliberately tiny: poll for whole decoded requests,
//! deliver whole encoded response frames. The in-memory implementation is the
//! default — hermetic and deterministic, which is what CI's golden smoke and
//! the byte-identity proofs run on. The TCP implementation (`tcp` module)
//! carries the same frames length-prefixed over a socket; nothing above the
//! trait can tell the difference, which is the point.

use scoop_types::{ScoopError, ServeRequest, ServeResponse};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifies a connected client within one transport.
pub type ClientId = u64;

/// How requests reach the server and response frames leave it.
pub trait Transport {
    /// Drains every request that arrived since the last poll, in arrival
    /// order, as `(client, request)` pairs.
    fn poll(&mut self, out: &mut Vec<(ClientId, ServeRequest)>) -> Result<(), ScoopError>;

    /// Delivers one encoded response frame to `client`.
    fn deliver(&mut self, client: ClientId, frame: &[u8]) -> Result<(), ScoopError>;
}

#[derive(Default)]
struct HubInner {
    requests: Vec<(ClientId, ServeRequest)>,
    responses: HashMap<ClientId, Vec<Vec<u8>>>,
    next_client: ClientId,
}

/// Locks the hub.
fn lock(inner: &Mutex<HubInner>) -> MutexGuard<'_, HubInner> {
    // Invariant: no critical section can panic (each only moves whole values
    // in or out of a collection), so no holder ever poisons the lock.
    inner.lock().expect("hub lock")
}

/// The in-memory rendezvous between clients and the server half.
///
/// Clone-cheap handles: [`InMemoryHub::client`] mints client handles,
/// [`InMemoryHub::transport`] hands the server its [`Transport`]. Everything
/// is ordered: requests drain in submission order, responses per client in
/// delivery order, so a fixed submission schedule yields a fixed byte
/// stream.
#[derive(Clone, Default)]
pub struct InMemoryHub {
    inner: Arc<Mutex<HubInner>>,
}

impl InMemoryHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new client and returns its handle.
    pub fn client(&self) -> InMemoryClient {
        let mut inner = lock(&self.inner);
        let id = inner.next_client;
        inner.next_client += 1;
        inner.responses.insert(id, Vec::new());
        InMemoryClient {
            id,
            inner: Arc::clone(&self.inner),
        }
    }

    /// The server-side transport for this hub.
    pub fn transport(&self) -> InMemoryTransport {
        InMemoryTransport {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// A client handle on an [`InMemoryHub`].
pub struct InMemoryClient {
    id: ClientId,
    inner: Arc<Mutex<HubInner>>,
}

impl InMemoryClient {
    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Submits a request; it reaches the server at its next poll.
    pub fn submit(&self, req: ServeRequest) {
        lock(&self.inner).requests.push((self.id, req));
    }

    /// Takes every raw response frame delivered to this client so far.
    pub fn drain_frames(&self) -> Vec<Vec<u8>> {
        let mut inner = lock(&self.inner);
        inner
            .responses
            .get_mut(&self.id)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Takes and decodes every response delivered to this client so far.
    pub fn drain_responses(&self) -> Result<Vec<ServeResponse>, ScoopError> {
        self.drain_frames()
            .iter()
            .map(|f| ServeResponse::decode(f))
            .collect()
    }
}

/// The server half of an [`InMemoryHub`].
pub struct InMemoryTransport {
    inner: Arc<Mutex<HubInner>>,
}

impl Transport for InMemoryTransport {
    fn poll(&mut self, out: &mut Vec<(ClientId, ServeRequest)>) -> Result<(), ScoopError> {
        let mut inner = lock(&self.inner);
        out.append(&mut inner.requests);
        Ok(())
    }

    fn deliver(&mut self, client: ClientId, frame: &[u8]) -> Result<(), ScoopError> {
        let mut inner = lock(&self.inner);
        match inner.responses.get_mut(&client) {
            Some(frames) => {
                frames.push(frame.to_vec());
                Ok(())
            }
            None => Err(ScoopError::Simulation(format!(
                "in-memory transport: delivery to unknown client {client}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{Overloaded, SimTime, ValueRange};

    fn req(id: u64) -> ServeRequest {
        ServeRequest {
            id,
            values: ValueRange::new(0, 1),
            time_lo: SimTime::ZERO,
            time_hi: SimTime::from_secs(1),
        }
    }

    #[test]
    fn requests_drain_in_submission_order_across_clients() {
        let hub = InMemoryHub::new();
        let a = hub.client();
        let b = hub.client();
        a.submit(req(1));
        b.submit(req(2));
        a.submit(req(3));
        let mut transport = hub.transport();
        let mut out = Vec::new();
        transport.poll(&mut out).unwrap();
        assert_eq!(
            out.iter().map(|(c, r)| (*c, r.id)).collect::<Vec<_>>(),
            vec![(a.id(), 1), (b.id(), 2), (a.id(), 3)]
        );
        out.clear();
        transport.poll(&mut out).unwrap();
        assert!(out.is_empty(), "poll drains");
    }

    #[test]
    fn responses_route_to_their_client() {
        let hub = InMemoryHub::new();
        let a = hub.client();
        let b = hub.client();
        let mut transport = hub.transport();
        let mut frame = Vec::new();
        scoop_types::serve::append_overloaded_frame(
            &Overloaded {
                id: 5,
                queued: 1,
                capacity: 1,
            },
            &mut frame,
        );
        transport.deliver(b.id(), &frame).unwrap();
        assert!(a.drain_responses().unwrap().is_empty());
        let got = b.drain_responses().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id(), 5);
        assert!(b.drain_responses().unwrap().is_empty(), "drain takes");
        assert!(transport.deliver(999, &frame).is_err(), "unknown client");
    }
}
