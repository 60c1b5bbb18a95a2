//! The TCP framer (`parse_requests` behind [`TcpServerTransport::poll`]) fed
//! raw bytes through a real loopback socket.
//!
//! * A valid frame split at every byte boundary across two writes yields
//!   exactly one request, and only once it is complete.
//! * A length prefix other than [`SERVE_REQUEST_LEN`] — 0, one either side
//!   of it, one past the transport's 16 MiB frame bound and `u32::MAX` —
//!   drops its connection with no request delivered, while a second
//!   connection is still served.
//! * A valid frame followed by one whose time window is inverted delivers
//!   the first request, then drops the connection.
//!
//! Nothing here may panic the server.

use scoop_serve::{ClientId, TcpClient, TcpServerTransport, Transport};
use scoop_types::{ServeRequest, SimTime, ValueRange, SERVE_REQUEST_LEN};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// The transport's private bound on one frame's payload.
const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

type Delivered = Vec<(ClientId, ServeRequest)>;

fn req(id: u64) -> ServeRequest {
    ServeRequest {
        id,
        values: ValueRange::new(0, 5),
        time_lo: SimTime::ZERO,
        time_hi: SimTime::from_secs(60),
    }
}

/// `request` as it travels: the little-endian length, then the body.
fn frame(request: &ServeRequest) -> Vec<u8> {
    let mut body = [0u8; SERVE_REQUEST_LEN];
    request.encode_into(&mut body);
    let mut out = (SERVE_REQUEST_LEN as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&body);
    out
}

/// Polls until `done` holds, or panics after about two seconds. Loopback
/// bytes arrive asynchronously, so one poll may race the peer's write.
fn poll_until(
    server: &mut TcpServerTransport,
    out: &mut Delivered,
    what: &str,
    done: impl Fn(&TcpServerTransport, &Delivered) -> bool,
) {
    for _ in 0..2000 {
        server.poll(out).unwrap();
        if done(server, out) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("{what}: never happened ({} delivered)", out.len());
}

/// A raw client, connected and accepted: the server lists one more
/// connection than before.
fn connect_raw(server: &mut TcpServerTransport, out: &mut Delivered) -> TcpStream {
    let before = server.connections();
    let stream = TcpStream::connect(server.local_addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();
    poll_until(server, out, "accept", |s, _| s.connections() == before + 1);
    stream
}

#[test]
fn a_frame_split_at_every_byte_boundary_yields_one_request_once_complete() {
    let mut server = TcpServerTransport::bind("127.0.0.1:0").unwrap();
    let mut out = Vec::new();
    for split in 1..4 + SERVE_REQUEST_LEN {
        let bytes = frame(&req(split as u64));
        let mut raw = connect_raw(&mut server, &mut out);
        raw.write_all(&bytes[..split]).unwrap();
        raw.flush().unwrap();
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(1));
            server.poll(&mut out).unwrap();
        }
        assert!(out.is_empty(), "split {split}: a prefix yielded {out:?}");
        raw.write_all(&bytes[split..]).unwrap();
        raw.flush().unwrap();
        poll_until(&mut server, &mut out, "the completed frame", |_, o| {
            !o.is_empty()
        });
        // Nothing more arrives on a stream that holds exactly one frame.
        server.poll(&mut out).unwrap();
        assert_eq!(out.len(), 1, "split {split}");
        assert_eq!(out[0].1, req(split as u64), "split {split}");
        assert_eq!(server.connections(), 1, "split {split}: connection kept");
        out.clear();
        drop(raw);
        poll_until(&mut server, &mut out, "reap on EOF", |s, _| {
            s.connections() == 0
        });
    }
}

#[test]
fn a_bad_length_prefix_drops_only_its_connection() {
    let mut server = TcpServerTransport::bind("127.0.0.1:0").unwrap();
    let mut out = Vec::new();
    for (i, len) in [
        0,
        SERVE_REQUEST_LEN as u32 - 1,
        SERVE_REQUEST_LEN as u32 + 1,
        MAX_FRAME_BYTES + 1,
        u32::MAX,
    ]
    .into_iter()
    .enumerate()
    {
        let mut good = TcpClient::connect(server.local_addr().unwrap()).unwrap();
        poll_until(&mut server, &mut out, "accept the good client", |s, _| {
            s.connections() == 1
        });
        let mut bad = connect_raw(&mut server, &mut out);
        // The prefix, then one body byte more than a request has: enough to
        // complete the 0-, 31- and 33-byte frames, were the framer to wait
        // for them.
        bad.write_all(&len.to_le_bytes()).unwrap();
        bad.write_all(&[0xA5; SERVE_REQUEST_LEN + 1]).unwrap();
        bad.flush().unwrap();
        poll_until(&mut server, &mut out, "drop the bad client", |s, _| {
            s.connections() == 1
        });
        assert!(out.is_empty(), "length {len}: delivered {out:?}");

        let id = 100 + i as u64;
        good.send(&req(id)).unwrap();
        poll_until(&mut server, &mut out, "serve the good client", |_, o| {
            !o.is_empty()
        });
        assert_eq!(out.len(), 1, "length {len}");
        assert_eq!(out[0].1, req(id), "length {len}");
        out.clear();
        drop(good);
        poll_until(&mut server, &mut out, "reap the good client", |s, _| {
            s.connections() == 0
        });
    }
}

#[test]
fn a_valid_frame_then_an_inverted_window_delivers_the_first_then_drops() {
    let mut server = TcpServerTransport::bind("127.0.0.1:0").unwrap();
    let mut out = Vec::new();
    let mut raw = connect_raw(&mut server, &mut out);
    let inverted = ServeRequest {
        time_lo: SimTime::from_secs(60),
        time_hi: SimTime::ZERO,
        ..req(2)
    };
    let mut bytes = frame(&req(1));
    bytes.extend_from_slice(&frame(&inverted));
    raw.write_all(&bytes).unwrap();
    raw.flush().unwrap();
    poll_until(
        &mut server,
        &mut out,
        "drop after the inverted frame",
        |s, _| s.connections() == 0,
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1, req(1));
}
