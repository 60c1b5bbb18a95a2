//! Length-prefixed TCP carrying the serve wire schema.
//!
//! Framing is a little-endian `u32` byte length followed by that many bytes:
//! requests are [`SERVE_REQUEST_LEN`]-byte encoded [`ServeRequest`]s, responses
//! are the frames [`ServeResponse`] encodes. The server side is fully
//! non-blocking and single-threaded — [`TcpServerTransport::poll`] accepts new
//! connections, reads whatever bytes are available, and surfaces every
//! complete request; partial reads and writes simply resume on the next poll.
//! Everything above the [`Transport`] trait is byte-for-byte the code the
//! in-memory transport runs, which is what keeps the hermetic CI proofs
//! meaningful for the socket path.

use crate::transport::{ClientId, Transport};
use scoop_types::{
    Overloaded, ScoopError, ServeRequest, ServeResponse, ServeRows, SERVE_REQUEST_LEN,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on a framed payload; anything larger is a corrupt or hostile
/// stream and drops the connection.
const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

fn io_err(what: &str, e: std::io::Error) -> ScoopError {
    ScoopError::Simulation(format!("tcp transport: {what}: {e}"))
}

/// Appends `payload` as one length-prefixed frame.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into whole frames.
    inbuf: Vec<u8>,
    /// Frames queued for this connection but not yet fully written.
    outbuf: Vec<u8>,
    /// How much of `outbuf` is already on the wire.
    written: usize,
    /// Set when the peer vanished; reaped at the end of the poll.
    dead: bool,
}

impl Conn {
    /// Moves every complete frame out of `inbuf` as a decoded request.
    fn parse_requests(&mut self, client: ClientId, out: &mut Vec<(ClientId, ServeRequest)>) {
        let mut consumed = 0;
        while let Some(prefix) = self.inbuf[consumed..].first_chunk::<4>() {
            let len = u32::from_le_bytes(*prefix);
            if len > MAX_FRAME_BYTES || len as usize != SERVE_REQUEST_LEN {
                self.dead = true;
                break;
            }
            let end = consumed + 4 + SERVE_REQUEST_LEN;
            // A frame whose body has not fully arrived waits for the next fill.
            let Some(body) = self.inbuf[consumed + 4..].first_chunk::<SERVE_REQUEST_LEN>() else {
                break;
            };
            match ServeRequest::decode(body) {
                Ok(req) => out.push((client, req)),
                Err(_) => {
                    // A malformed request poisons the stream: drop the
                    // connection rather than guess at resynchronization.
                    self.dead = true;
                    break;
                }
            }
            consumed = end;
        }
        if consumed > 0 {
            self.inbuf.drain(..consumed);
        }
    }

    /// Reads whatever the socket has; true EOF marks the connection dead.
    fn fill(&mut self) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Writes as much of the pending output as the socket will take.
    fn flush_pending(&mut self) {
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.written > 0 && self.written == self.outbuf.len() {
            self.outbuf.clear();
            self.written = 0;
        }
    }
}

/// The server half of the TCP transport: accepts connections and frames.
pub struct TcpServerTransport {
    listener: TcpListener,
    conns: HashMap<ClientId, Conn>,
    next_client: ClientId,
}

impl TcpServerTransport {
    /// Binds a non-blocking listener on `addr`.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, ScoopError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err("bind", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("set_nonblocking", e))?;
        Ok(TcpServerTransport {
            listener,
            conns: HashMap::new(),
            next_client: 0,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, ScoopError> {
        self.listener
            .local_addr()
            .map_err(|e| io_err("local_addr", e))
    }

    /// Connections currently open.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let id = self.next_client;
                    self.next_client += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            inbuf: Vec::new(),
                            outbuf: Vec::new(),
                            written: 0,
                            dead: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
}

impl Transport for TcpServerTransport {
    fn poll(&mut self, out: &mut Vec<(ClientId, ServeRequest)>) -> Result<(), ScoopError> {
        self.accept_new();
        // Deterministic order within one server: iterate clients by id.
        let mut conns: Vec<(&ClientId, &mut Conn)> = self.conns.iter_mut().collect();
        conns.sort_unstable_by_key(|(id, _)| **id);
        for (&id, conn) in conns {
            conn.flush_pending();
            conn.fill();
            conn.parse_requests(id, out);
        }
        self.conns.retain(|_, c| !c.dead);
        Ok(())
    }

    fn deliver(&mut self, client: ClientId, frame: &[u8]) -> Result<(), ScoopError> {
        // A client that disconnected mid-flight just misses its answer;
        // sockets are lossy and that is not a server error.
        if let Some(conn) = self.conns.get_mut(&client) {
            push_frame(&mut conn.outbuf, frame);
            conn.flush_pending();
        }
        Ok(())
    }
}

/// A simple blocking client for tests and the load generator's TCP mode.
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connects (blocking) to a serving process.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ScoopError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| io_err("set_nodelay", e))?;
        Ok(TcpClient { stream })
    }

    /// Sends one request as a length-prefixed frame.
    pub fn send(&mut self, req: &ServeRequest) -> Result<(), ScoopError> {
        let mut frame = Vec::with_capacity(4 + SERVE_REQUEST_LEN);
        let mut body = [0u8; SERVE_REQUEST_LEN];
        req.encode_into(&mut body);
        push_frame(&mut frame, &body);
        self.stream.write_all(&frame).map_err(|e| io_err("send", e))
    }

    /// Sends `req` and retries on `Overloaded` under `policy`: each
    /// rejection sleeps the next seeded-jittered backoff delay and resends.
    ///
    /// Returns the rows together with the number of attempts made, or a
    /// typed [`QueryError`]: either the transport failed outright, or the
    /// retry budget ran out and [`RetriesExhausted`] carries the last
    /// rejection. With `policy.max_retries == 0` this is exactly
    /// [`send`](Self::send) + [`recv`](Self::recv) — the first `Overloaded`
    /// surfaces immediately as the typed give-up error, never a silent drop.
    pub fn query_with_retry(
        &mut self,
        req: &ServeRequest,
        policy: &RetryPolicy,
    ) -> Result<(ServeRows, u32), QueryError> {
        for attempt in 0..=policy.max_retries {
            self.send(req).map_err(QueryError::Transport)?;
            let response = self.recv().map_err(QueryError::Transport)?;
            if response.id() != req.id {
                return Err(QueryError::Transport(ScoopError::Simulation(format!(
                    "tcp transport: response id {} does not answer request {}",
                    response.id(),
                    req.id
                ))));
            }
            match response {
                ServeResponse::Rows(rows) => return Ok((rows, attempt + 1)),
                ServeResponse::Overloaded(last) => {
                    if attempt == policy.max_retries {
                        return Err(QueryError::RetriesExhausted(RetriesExhausted {
                            id: req.id,
                            attempts: attempt + 1,
                            last,
                        }));
                    }
                    std::thread::sleep(policy.backoff(attempt));
                }
            }
        }
        unreachable!("the loop returns on every path")
    }

    /// Blocks until one whole response frame arrives and decodes it.
    pub fn recv(&mut self) -> Result<ServeResponse, ScoopError> {
        let mut len = [0u8; 4];
        self.stream
            .read_exact(&mut len)
            .map_err(|e| io_err("recv length", e))?;
        let len = u32::from_le_bytes(len);
        if len > MAX_FRAME_BYTES {
            return Err(ScoopError::Simulation(format!(
                "tcp transport: oversized response frame ({len} bytes)"
            )));
        }
        let mut body = vec![0u8; len as usize];
        self.stream
            .read_exact(&mut body)
            .map_err(|e| io_err("recv body", e))?;
        ServeResponse::decode(&body)
    }
}

/// Bounded retry with seeded, jittered exponential backoff for `Overloaded`
/// rejections. Opt-in: the default budget of zero retries reproduces the
/// plain send/recv behavior exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt; `0` means never retry.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt up to `cap`.
    pub base: Duration,
    /// Ceiling on any single backoff delay.
    pub cap: Duration,
    /// Seeds the jitter so a retry schedule is reproducible.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with `max_retries` retries under the given jitter seed,
    /// backing off from 50 ms up to 2 s.
    pub fn new(max_retries: u32, seed: u64) -> Self {
        RetryPolicy {
            max_retries,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed,
        }
    }

    /// The delay before retry number `attempt` (0-based): exponential
    /// `base << attempt` capped at `cap`, scaled by a deterministic jitter
    /// factor in `[0.5, 1.0)` drawn from `(seed, attempt)`. Full-throttle
    /// synchronization is what kills an overloaded server, so every client
    /// seed spreads its retries differently — but the same seed always
    /// produces the same schedule.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let jitter =
            0.5 + (mix64(self.seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        exp.mul_f64(jitter)
    }
}

/// SplitMix64 finalizer: one 64-bit hash step, for jitter only.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The typed give-up error: every attempt in the retry budget was rejected
/// `Overloaded`. Carries the last rejection so the caller can see the queue
/// pressure it lost to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetriesExhausted {
    /// The request that never got through.
    pub id: u64,
    /// Attempts made (initial try plus retries).
    pub attempts: u32,
    /// The final `Overloaded` rejection.
    pub last: Overloaded,
}

impl std::fmt::Display for RetriesExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request {} gave up after {} attempts: {}",
            self.id, self.attempts, self.last
        )
    }
}

/// Why [`TcpClient::query_with_retry`] did not return rows.
#[derive(Debug)]
pub enum QueryError {
    /// The socket or the wire protocol failed; retrying cannot help.
    Transport(ScoopError),
    /// The server kept rejecting until the retry budget ran out.
    RetriesExhausted(RetriesExhausted),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Transport(e) => write!(f, "{e}"),
            QueryError::RetriesExhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{SimTime, ValueRange};

    fn req(id: u64) -> ServeRequest {
        ServeRequest {
            id,
            values: ValueRange::new(0, 5),
            time_lo: SimTime::ZERO,
            time_hi: SimTime::from_secs(60),
        }
    }

    /// Polls until `want` requests arrived or the deadline passes. The
    /// kernel delivers loopback bytes asynchronously, so one poll may race
    /// the client's write.
    fn poll_until(
        transport: &mut TcpServerTransport,
        out: &mut Vec<(ClientId, ServeRequest)>,
        want: usize,
    ) {
        for _ in 0..2000 {
            transport.poll(out).unwrap();
            if out.len() >= want {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("requests never arrived: got {} of {want}", out.len());
    }

    #[test]
    fn requests_and_responses_round_trip_over_a_real_socket() {
        let mut server = TcpServerTransport::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TcpClient::connect(addr).unwrap();
        client.send(&req(7)).unwrap();
        client.send(&req(8)).unwrap();

        let mut out = Vec::new();
        poll_until(&mut server, &mut out, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1.id, 7);
        assert_eq!(out[1].1.id, 8);
        let cid = out[0].0;
        assert_eq!(out[1].0, cid, "same connection, same client id");

        // Echo back two frames; the blocking client reads them in order.
        let mut frame = Vec::new();
        scoop_types::append_rows_frame(
            7,
            &{
                let mut p = Vec::new();
                scoop_types::append_rows_payload(&[], &mut p);
                p
            },
            &mut frame,
        );
        server.deliver(cid, &frame).unwrap();
        let got = client.recv().unwrap();
        assert_eq!(got.id(), 7);

        // Unknown client delivery is a no-op, not an error.
        server.deliver(9999, &frame).unwrap();
    }

    #[test]
    fn malformed_frames_drop_the_connection_not_the_server() {
        let mut server = TcpServerTransport::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut bad = TcpStream::connect(addr).unwrap();
        // A frame whose length is not SERVE_REQUEST_LEN.
        bad.write_all(&3u32.to_le_bytes()).unwrap();
        bad.write_all(&[1, 2, 3]).unwrap();
        bad.flush().unwrap();

        let mut out = Vec::new();
        for _ in 0..2000 {
            server.poll(&mut out).unwrap();
            if server.connections() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(out.is_empty());
        assert_eq!(server.connections(), 0, "poisoned connection reaped");

        // The server still accepts and serves a well-formed client.
        let mut good = TcpClient::connect(addr).unwrap();
        good.send(&req(1)).unwrap();
        poll_until(&mut server, &mut out, 1);
        assert_eq!(out[0].1.id, 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy::new(8, 42);
        let again = RetryPolicy::new(8, 42);
        let other = RetryPolicy::new(8, 43);
        let mut any_seed_difference = false;
        for attempt in 0..8 {
            let d = policy.backoff(attempt);
            assert_eq!(d, again.backoff(attempt), "same seed, same schedule");
            any_seed_difference |= d != other.backoff(attempt);
            // Jitter stays inside [exp/2, exp), and exp itself is capped.
            let exp = policy.base.saturating_mul(1 << attempt).min(policy.cap);
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} under the floor");
            assert!(d < exp, "attempt {attempt}: {d:?} over the ceiling");
        }
        assert!(any_seed_difference, "different seeds must spread retries");
        // Far-out attempts saturate at the cap instead of overflowing.
        assert!(policy.backoff(60) <= policy.cap);
    }

    /// A scripted responder: answers each request `Overloaded` until its id
    /// has been seen `relent_after` times, then answers empty rows. Runs the
    /// real server transport on a background thread until dropped.
    struct Responder {
        stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
        handle: Option<std::thread::JoinHandle<HashMap<u64, u32>>>,
        addr: SocketAddr,
    }

    impl Responder {
        fn start(relent_after: u32) -> Self {
            let mut server = TcpServerTransport::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap();
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flag = std::sync::Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                let mut seen: HashMap<u64, u32> = HashMap::new();
                let mut out = Vec::new();
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    out.clear();
                    server.poll(&mut out).unwrap();
                    for (client, request) in out.drain(..) {
                        let attempts = seen.entry(request.id).or_insert(0);
                        *attempts += 1;
                        let mut frame = Vec::new();
                        if *attempts <= relent_after {
                            scoop_types::append_overloaded_frame(
                                &Overloaded {
                                    id: request.id,
                                    queued: 9,
                                    capacity: 9,
                                },
                                &mut frame,
                            );
                        } else {
                            let mut payload = Vec::new();
                            scoop_types::append_rows_payload(&[], &mut payload);
                            scoop_types::append_rows_frame(request.id, &payload, &mut frame);
                        }
                        server.deliver(client, &frame).unwrap();
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                seen
            });
            Responder {
                stop,
                handle: Some(handle),
                addr,
            }
        }

        fn finish(mut self) -> HashMap<u64, u32> {
            self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
            self.handle.take().expect("not yet joined").join().unwrap()
        }
    }

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(5),
            seed: 7,
        }
    }

    #[test]
    fn retry_rides_out_transient_overload() {
        let responder = Responder::start(2);
        let mut client = TcpClient::connect(responder.addr).unwrap();
        let (rows, attempts) = client
            .query_with_retry(&req(11), &fast_policy(5))
            .expect("relents on the third attempt");
        assert_eq!(rows.id, 11);
        assert_eq!(attempts, 3, "two rejections, then rows");
        let seen = responder.finish();
        assert_eq!(seen.get(&11), Some(&3), "server saw every attempt");
    }

    #[test]
    fn exhausted_retries_surface_the_typed_give_up_error() {
        let responder = Responder::start(u32::MAX);
        let mut client = TcpClient::connect(responder.addr).unwrap();
        let err = client
            .query_with_retry(&req(5), &fast_policy(3))
            .expect_err("the responder never relents");
        match err {
            QueryError::RetriesExhausted(gave_up) => {
                assert_eq!(gave_up.id, 5);
                assert_eq!(gave_up.attempts, 4, "initial try plus three retries");
                assert_eq!(gave_up.last.capacity, 9);
                let shown = gave_up.to_string();
                assert!(shown.contains("gave up after 4 attempts"), "{shown}");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        // Zero retries: the first rejection is the typed error, immediately.
        let err = client
            .query_with_retry(&req(6), &fast_policy(0))
            .expect_err("no budget");
        match err {
            QueryError::RetriesExhausted(gave_up) => assert_eq!(gave_up.attempts, 1),
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        responder.finish();
    }
}
