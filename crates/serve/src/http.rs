//! Hand-rolled, hard-limited HTTP/1.1 over `std::net`.
//!
//! The build environment has no crates.io access, so there is no hyper
//! to lean on; this module implements the small subset the service
//! needs — request parsing with keep-alive, `Content-Length` bodies,
//! and a response writer — with explicit limits everywhere a client
//! could otherwise make the server allocate or loop unboundedly:
//! request-line length, header-line length, header count, and body
//! size. Malformed input maps to a 4xx status and *never* panics or
//! hangs (the proptest suite in `tests/http_fuzz.rs` holds it to that).
//!
//! The parser is generic over [`std::io::Read`] so fuzzing runs over
//! in-memory cursors while the server runs it over `TcpStream`s with a
//! read timeout; timeouts surface as [`RecvError::Idle`] (no bytes of
//! the next request yet — keep-alive poll) or [`RecvError::Truncated`]
//! (stalled mid-request — 408).

use std::io::{self, Read, Write};

/// Parser limits. Defaults: 8 KiB lines, 64 headers, 1 MiB body.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Longest accepted request or header line (bytes, excluding CRLF).
    pub max_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Largest accepted `Content-Length`.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_line: 8192, max_headers: 64, max_body: 1 << 20 }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request target (`/v1/analyze`).
    pub target: String,
    /// Header `(name, value)` pairs in order; names as sent.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First header value with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// Clean EOF before the first byte of a request (keep-alive close).
    Closed,
    /// Read timeout before the first byte (idle keep-alive poll tick).
    Idle,
    /// Syntactically invalid request → 400.
    Malformed(&'static str),
    /// Request line exceeded `max_line` → 414.
    UriTooLong,
    /// Too many headers or an oversized header line → 431.
    HeaderFlood,
    /// `Content-Length` exceeds `max_body` → 413.
    BodyTooLarge,
    /// EOF or stall in the middle of a request → 408.
    Truncated,
    /// Underlying transport error.
    Io(io::Error),
}

impl RecvError {
    /// The 4xx response owed to the client, if any (`None` means just
    /// close the connection).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            RecvError::Malformed(msg) => Some((400, msg)),
            RecvError::UriTooLong => Some((414, "request line too long")),
            RecvError::HeaderFlood => Some((431, "too many or oversized headers")),
            RecvError::BodyTooLarge => Some((413, "body exceeds limit")),
            RecvError::Truncated => Some((408, "request incomplete")),
            RecvError::Closed | RecvError::Idle | RecvError::Io(_) => None,
        }
    }
}

/// Buffered connection reader; owns the parse state between keep-alive
/// requests.
pub struct Conn<R> {
    r: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes of the *current* request consumed so far (distinguishes
    /// `Closed`/`Idle` from `Truncated`).
    seen: bool,
}

impl<R: Read> Conn<R> {
    /// Wrap a transport.
    pub fn new(r: R) -> Conn<R> {
        Conn { r, buf: vec![0; 16 * 1024], start: 0, end: 0, seen: false }
    }

    /// The transport back (for writing on the same socket).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.r
    }

    /// Parse the next request from the bytes already buffered, never
    /// reading the transport: `None` while they hold no complete
    /// request. The parser reads a request front to back, so an error
    /// the buffered bytes already show is the error a blocking
    /// [`read_request`] would return, and is returned as is.
    pub fn buffered_request(&mut self, limits: &Limits) -> Option<Result<Request, RecvError>> {
        if self.start == self.end {
            return None;
        }
        let mut probe = Conn {
            r: io::empty(),
            buf: self.buf[self.start..self.end].to_vec(),
            start: 0,
            end: self.end - self.start,
            seen: false,
        };
        match read_request(&mut probe, limits) {
            Err(RecvError::Closed | RecvError::Truncated) => None,
            r => {
                self.start += probe.start;
                Some(r)
            }
        }
    }

    /// Read once from the transport into the buffer; whether any bytes
    /// arrived. On a non-blocking transport this takes only what is
    /// already there.
    pub fn fill_ready(&mut self) -> bool {
        self.fill().is_ok()
    }

    fn fill(&mut self) -> Result<(), RecvError> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            // Compact; callers bound total consumption, so this cannot
            // grow without limit.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        match self.r.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(if self.seen { RecvError::Truncated } else { RecvError::Closed }),
            Ok(n) => {
                self.end += n;
                Ok(())
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Err(if self.seen { RecvError::Truncated } else { RecvError::Idle })
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => self.fill(),
            Err(e) => Err(RecvError::Io(e)),
        }
    }

    fn next_byte(&mut self) -> Result<u8, RecvError> {
        while self.start == self.end {
            self.fill()?;
        }
        let b = self.buf[self.start];
        self.start += 1;
        self.seen = true;
        Ok(b)
    }

    /// Read one line, stripping the trailing `\n` and optional `\r`.
    fn read_line(&mut self, max: usize, over: fn() -> RecvError) -> Result<String, RecvError> {
        let mut line: Vec<u8> = Vec::with_capacity(64);
        loop {
            let b = self.next_byte()?;
            if b == b'\n' {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line)
                    .map_err(|_| RecvError::Malformed("non-UTF-8 header data"));
            }
            if line.len() >= max {
                return Err(over());
            }
            line.push(b);
        }
    }

    fn read_exact_body(&mut self, len: usize) -> Result<Vec<u8>, RecvError> {
        let mut body = Vec::with_capacity(len.min(64 * 1024));
        while body.len() < len {
            if self.start == self.end {
                self.fill()?;
            }
            let take = (self.end - self.start).min(len - body.len());
            body.extend_from_slice(&self.buf[self.start..self.start + take]);
            self.start += take;
            self.seen = true;
        }
        Ok(body)
    }
}

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().all(|b| {
            b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
        })
}

/// Read one request off the connection.
///
/// Returns [`RecvError::Idle`] when the transport timed out with no
/// request in flight (the server's keep-alive/drain poll tick) and
/// [`RecvError::Closed`] on clean EOF between requests.
pub fn read_request<R: Read>(conn: &mut Conn<R>, limits: &Limits) -> Result<Request, RecvError> {
    conn.seen = false;

    // Request line; tolerate a little leading CRLF noise (RFC 9112 §2.2).
    let mut line = String::new();
    for _ in 0..4 {
        line = conn.read_line(limits.max_line, || RecvError::UriTooLong)?;
        if !line.is_empty() {
            break;
        }
        conn.seen = false;
    }
    if line.is_empty() {
        return Err(RecvError::Malformed("empty request line"));
    }

    let mut parts = line.split(' ');
    let (method, target, version) =
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) if is_token(m) && !t.is_empty() => {
                (m.to_string(), t.to_string(), v)
            }
            _ => return Err(RecvError::Malformed("malformed request line")),
        };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(RecvError::Malformed("unsupported HTTP version")),
    };

    // Headers.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = conn.read_line(limits.max_line, || RecvError::HeaderFlood)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(RecvError::HeaderFlood);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RecvError::Malformed("header without colon"));
        };
        if !is_token(name) {
            return Err(RecvError::Malformed("invalid header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    // Body framing: strict Content-Length only.
    if headers.iter().any(|(n, _)| n.eq_ignore_ascii_case("transfer-encoding")) {
        return Err(RecvError::Malformed("transfer-encoding not supported"));
    }
    let mut content_length: Option<usize> = None;
    for (n, v) in &headers {
        if n.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err(RecvError::Malformed("duplicate content-length"));
            }
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(RecvError::Malformed("invalid content-length"));
            }
            let parsed: usize =
                v.parse().map_err(|_| RecvError::Malformed("invalid content-length"))?;
            if parsed > limits.max_body {
                return Err(RecvError::BodyTooLarge);
            }
            content_length = Some(parsed);
        }
    }
    let body = match content_length {
        Some(n) if n > 0 => conn.read_exact_body(n)?,
        _ => Vec::new(),
    };

    // Keep-alive: 1.1 defaults on, 1.0 defaults off.
    let mut keep_alive = http11;
    if let Some(c) = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("connection"))
        .map(|(_, v)| v.as_str())
    {
        if c.eq_ignore_ascii_case("close") {
            keep_alive = false;
        } else if c.eq_ignore_ascii_case("keep-alive") {
            keep_alive = true;
        }
    }

    Ok(Request { method, target, headers, body, keep_alive })
}

/// Canonical reason phrase for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write a complete response (status line, headers, body).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (n, v) in extra {
        head.push_str(n);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// `{"error": "..."}` body for non-200 responses.
pub fn error_body(msg: &str) -> String {
    serde_json::to_string(&serde_json::json!({ "error": msg })).expect("error body serializes")
}

/// A minimal blocking HTTP/1.1 client over one keep-alive connection —
/// enough for the load generator, the smoke gate, and the integration
/// tests to drive the server over real sockets.
pub mod client {
    use super::{Conn, Limits, RecvError};
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// One keep-alive client connection.
    pub struct Client {
        writer: TcpStream,
        conn: Conn<TcpStream>,
    }

    impl Client {
        /// Connect with the given I/O timeout.
        pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            let writer = stream.try_clone()?;
            Ok(Client { writer, conn: Conn::new(stream) })
        }

        /// Send raw bytes (a pre-rendered request) on the connection.
        pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.writer.write_all(bytes)?;
            self.writer.flush()
        }

        /// Issue one request and read the response.
        pub fn request(
            &mut self,
            method: &str,
            target: &str,
            headers: &[(&str, String)],
            body: &[u8],
        ) -> io::Result<(u16, Vec<u8>)> {
            let mut req = format!("{method} {target} HTTP/1.1\r\nhost: racellm\r\n");
            if !body.is_empty() || method == "POST" {
                req.push_str("content-type: application/json\r\n");
                req.push_str(&format!("content-length: {}\r\n", body.len()));
            }
            for (n, v) in headers {
                req.push_str(&format!("{n}: {v}\r\n"));
            }
            req.push_str("\r\n");
            self.writer.write_all(req.as_bytes())?;
            self.writer.write_all(body)?;
            self.writer.flush()?;
            self.read_response()
        }

        /// Read one `(status, body)` response off the connection.
        pub fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
            read_response_from(&mut self.conn)
        }
    }

    /// Parse one response from any buffered connection.
    pub fn read_response_from<R: Read>(conn: &mut Conn<R>) -> io::Result<(u16, Vec<u8>)> {
        let limits = Limits::default();
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let to_io = |e: RecvError| match e {
            RecvError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, format!("{other:?}")),
        };
        conn.seen = false;
        let status_line = conn.read_line(limits.max_line, || RecvError::UriTooLong).map_err(to_io)?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line: {status_line}")))?;
        let mut content_length = 0usize;
        loop {
            let line = conn.read_line(limits.max_line, || RecvError::HeaderFlood).map_err(to_io)?;
            if line.is_empty() {
                break;
            }
            if let Some((n, v)) = line.split_once(':') {
                if n.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let body = conn.read_exact_body(content_length).map_err(to_io)?;
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, RecvError> {
        read_request(&mut Conn::new(Cursor::new(raw.to_vec())), &Limits::default())
    }

    #[test]
    fn parses_simple_get() {
        let r = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/healthz");
        assert!(r.keep_alive);
        assert_eq!(r.header("host"), Some("x"));
    }

    #[test]
    fn parses_body_and_lf_only_lines() {
        let r = parse(b"POST /v1/analyze HTTP/1.1\nContent-Length: 4\n\nabcd").unwrap();
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn rejects_garbage_and_duplicates() {
        assert!(matches!(parse(b"NOT A REQUEST AT ALL\r\n\r\n"), Err(RecvError::Malformed(_))));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab"),
            Err(RecvError::Malformed("duplicate content-length"))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
            Err(RecvError::Malformed("invalid content-length"))
        ));
    }

    #[test]
    fn truncated_body_is_not_a_hang() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(RecvError::Truncated)
        ));
    }

    #[test]
    fn oversized_content_length_is_413() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(parse(raw.as_bytes()), Err(RecvError::Malformed(_) | RecvError::BodyTooLarge)));
        let raw = "POST / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n";
        assert!(matches!(parse(raw.as_bytes()), Err(RecvError::BodyTooLarge)));
    }

    #[test]
    fn header_flood_is_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..200 {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(raw.as_bytes()), Err(RecvError::HeaderFlood)));
    }

    #[test]
    fn eof_between_requests_is_closed() {
        assert!(matches!(parse(b""), Err(RecvError::Closed)));
    }

    /// A transport that hands out one chunk per read.
    struct Chunks(Vec<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            out[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn buffered_request_takes_only_complete_requests() {
        let first = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
        let second = b"POST /v1/fix HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec();
        let third = b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let (head, tail) = third.split_at(30);
        let limits = Limits::default();
        let mut conn =
            Conn::new(Chunks(vec![[first, second, head.to_vec()].concat(), tail.to_vec()]));

        assert!(conn.buffered_request(&limits).is_none(), "nothing read yet");
        assert!(conn.fill_ready());
        assert_eq!(conn.buffered_request(&limits).unwrap().unwrap().target, "/healthz");
        assert_eq!(conn.buffered_request(&limits).unwrap().unwrap().body, b"hello");
        assert!(conn.buffered_request(&limits).is_none(), "third request is partial");
        // The partial bytes stay buffered for the blocking read.
        let r = read_request(&mut conn, &limits).unwrap();
        assert_eq!((r.target.as_str(), r.body.as_slice()), ("/v1/analyze", &b"abc"[..]));
        assert!(matches!(read_request(&mut conn, &limits), Err(RecvError::Closed)));

        let mut conn = Conn::new(Cursor::new(b"NOT A REQUEST AT ALL\r\n".to_vec()));
        assert!(conn.fill_ready());
        assert!(matches!(conn.buffered_request(&limits), Some(Err(RecvError::Malformed(_)))));
    }

    #[test]
    fn response_writer_round_trips() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "application/json", &[("retry-after", "1".into())], b"{}", true)
            .unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        let mut conn = Conn::new(Cursor::new(out));
        let (status, body) = client::read_response_from(&mut conn).unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, b"{}");
    }
}
