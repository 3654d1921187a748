//! Fuzz gate for the request reader: mutated request heads and bodies,
//! sent over loopback to a running server, must always get a reply with
//! a well-formed status line, and the server must stay healthy.

use multipath_serve::{ServeConfig, Server};
use multipath_testkit::{fuzz, http, prop_assert, prop_test, TestRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// Valid requests the mutations start from. None can turn into a
/// simulation under a few byte edits: the run and sweep bodies name no
/// kernel, and no path is near `/v1/explain/<kernel>`.
const CORPUS: [&str; 4] = [
    "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: */*\r\n\r\n",
    "POST /v1/run HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
     Content-Length: 31\r\n\r\n{\"benches\": [], \"commits\": 100}",
    "POST /v1/sweep HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 34\r\n\r\n\
     {\"cells\": [], \"deadline_ms\": 1000}",
    "GET /metrics?x=%20&y HTTP/1.1\r\nHost: 127.0.0.1\r\nTransfer-Encoding: identity\r\n\r\n",
];

/// One server for every case; it lives until the test process exits.
fn server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let handle = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("bind loopback")
        .start();
        let addr = handle.addr();
        std::mem::forget(handle);
        addr
    })
}

/// Sends `bytes`, closes the sending side, and returns everything the
/// server answers.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    // The server may answer and stop reading before the request ends.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    Ok(reply)
}

/// Whether `reply` opens with `HTTP/1.1 <3 digits> <reason>\r\n`.
fn well_formed_status_line(reply: &[u8]) -> bool {
    let Some(end) = reply.windows(2).position(|w| w == b"\r\n") else {
        return false;
    };
    let Ok(line) = std::str::from_utf8(&reply[..end]) else {
        return false;
    };
    let mut parts = line.splitn(3, ' ');
    matches!(
        (parts.next(), parts.next(), parts.next()),
        (Some("HTTP/1.1"), Some(code), Some(reason))
            if code.len() == 3
                && code.bytes().all(|b| b.is_ascii_digit())
                && (b'1'..=b'5').contains(&code.as_bytes()[0])
                && !reason.is_empty()
    )
}

prop_test! {
    /// Every mutated request gets a well-formed status line, and the
    /// server still answers `/healthz` afterwards.
    fn mutated_requests_always_get_a_status_line(input in |rng: &mut TestRng| {
        let base = *rng.pick(&CORPUS);
        fuzz::mutate(rng, base.as_bytes())
    }, cases = 256) {
        let addr = server();
        let reply = exchange(addr, &input);
        prop_assert!(reply.is_ok(), "no reply to {:?}: {:?}", String::from_utf8_lossy(&input), reply);
        let reply = reply.unwrap();
        prop_assert!(
            well_formed_status_line(&reply),
            "reply {:?} to {:?}",
            String::from_utf8_lossy(&reply[..reply.len().min(200)]),
            String::from_utf8_lossy(&input)
        );
        let health = http::get(addr, "/healthz");
        prop_assert!(health.as_ref().is_ok_and(|h| h.status == 200), "unhealthy: {:?}", health.err());
    }
}

#[test]
fn the_corpus_itself_is_answered() {
    let addr = server();
    for request in CORPUS {
        let reply = exchange(addr, request.as_bytes()).unwrap();
        assert!(
            well_formed_status_line(&reply),
            "{}",
            String::from_utf8_lossy(&reply)
        );
    }
}
