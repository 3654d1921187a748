//! Server-side HTTP/1.1 plumbing: request parsing and response framing.
//!
//! Deliberately minimal — the service speaks exactly the dialect its own
//! test client ([`multipath_testkit::http`]) and `curl` speak: one request
//! per connection, bodies framed by `Content-Length`, responses framed by
//! `Content-Length` or chunked transfer encoding. Every response carries
//! `Connection: close`, which bounds graceful-drain time to the in-flight
//! request set.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// The percent-decoded path without the query string.
    pub path: String,
    /// Percent-decoded `(key, value)` query parameters in arrival order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query parameter with the given key, if any.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The declared `Content-Length` exceeds the server's body limit —
    /// answered with `413 Payload Too Large`.
    BodyTooLarge(usize),
    /// The bytes on the wire are not a well-formed HTTP/1.1 request —
    /// answered with `400 Bad Request`.
    Malformed(String),
}

/// The longest request or header line accepted, terminator included.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// The most header lines accepted.
pub const MAX_HEADERS: usize = 100;
/// The most bytes accepted for the request line and headers together.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Reads and parses one request from the connection. Bodies larger than
/// `max_body` bytes are rejected without being read; a head that breaks
/// [`MAX_LINE_BYTES`], [`MAX_HEADERS`] or [`MAX_HEAD_BYTES`] is malformed,
/// and reading stops there.
pub fn read_request(
    stream: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<Request, RequestError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let line = read_line(stream, &mut head_budget)?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && v.starts_with("HTTP/1.") => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad request line {line:?}"
            )))
        }
    };
    let _ = version;
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path);
    let query = raw_query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, &mut head_budget)?;
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(RequestError::Malformed(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(RequestError::Malformed(
            "chunked request bodies are not supported".to_owned(),
        ));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| RequestError::Malformed(format!("bad Content-Length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| RequestError::Malformed(format!("short body: {e}")))?;

    Ok(Request {
        method: method.to_owned(),
        path,
        query,
        headers,
        body,
    })
}

/// Closes the sending side after an error answered before the request was
/// read to its end, then reads and discards what the client still sends:
/// up to 4 MiB, for up to 2 s. Closing a socket with unread input resets
/// the connection, and a reset can reach the client before it has read the
/// answer.
pub fn linger(reader: &mut BufReader<TcpStream>) {
    const MAX_BYTES: usize = 4 << 20;
    let deadline = Instant::now() + Duration::from_secs(2);
    let _ = reader.get_ref().shutdown(Shutdown::Write);
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(250)));
    let mut buf = [0u8; 8192];
    let mut read = 0;
    while read < MAX_BYTES && Instant::now() < deadline {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => read += n,
        }
    }
}

/// Writes a complete `Content-Length`-framed response and flushes it.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// An in-progress chunked response — the streaming frame under
/// `POST /v1/sweep`'s NDJSON output.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head with `Transfer-Encoding: chunked` and
    /// returns a writer for the body chunks.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> std::io::Result<ChunkedWriter<'a>> {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedWriter { stream })
    }

    /// Sends one chunk (empty input is skipped — a zero-length chunk
    /// would terminate the body).
    pub fn chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", bytes.len())?;
        self.stream.write_all(bytes)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Sends the terminating zero chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Reads one CRLF-terminated line, without the terminator, charging its
/// bytes to `head_budget`. Reads at most one byte past the limit.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    head_budget: &mut usize,
) -> Result<String, RequestError> {
    let limit = MAX_LINE_BYTES.min(*head_budget);
    let mut line = String::new();
    reader
        .take(limit as u64 + 1)
        .read_line(&mut line)
        .map_err(|e| RequestError::Malformed(format!("read line: {e}")))?;
    if line.is_empty() {
        return Err(RequestError::Malformed(
            "connection closed mid-request".to_owned(),
        ));
    }
    if line.len() > limit {
        return Err(RequestError::Malformed(if limit == MAX_LINE_BYTES {
            format!("a request line or header is longer than {MAX_LINE_BYTES} bytes")
        } else {
            format!("the request head is longer than {MAX_HEAD_BYTES} bytes")
        }));
    }
    *head_budget -= line.len();
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Decodes `%XX` escapes and `+` (as space); bad escapes pass through
/// verbatim — path matching then simply fails with 404 rather than 500.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::percent_decode;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%2Fv1%2Frun"), "/v1/run");
        assert_eq!(percent_decode("bad%zzescape%2"), "bad%zzescape%2");
    }
}
