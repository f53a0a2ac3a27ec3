//! Open-loop HTTP/1.1 load over two pipelined keep-alive connections.
//!
//! Two threads and no more: the calling thread sends each request at
//! its scheduled instant on the connection the phase assigns it, and
//! one receiver thread waits on both sockets with `poll(2)` and matches
//! responses to requests by connection order (HTTP/1.1 answers a
//! connection's requests in the order they were sent). Every latency
//! is measured from the request's *scheduled* send time, so a stall in
//! the server is charged to every request queued behind it, and the
//! sender's own lateness is recorded separately as lag.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long the receiver waits without any byte arriving before it
/// declares the remaining requests failed.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// One request's fate.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Receive time minus scheduled send time, in seconds.
    pub latency_s: f64,
    /// Actual send time minus scheduled send time, in seconds.
    pub lag_s: f64,
    /// HTTP status (0 when no response arrived).
    pub status: u16,
    /// Status 200 and body byte-equal to the expected body.
    pub ok: bool,
}

/// The two keep-alive connections every phase runs over.
pub struct Conns {
    streams: [TcpStream; 2],
    bufs: [RespBuf; 2],
}

impl Conns {
    /// Open both connections.
    pub fn open(addr: SocketAddr) -> io::Result<Conns> {
        let open = || -> io::Result<TcpStream> {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        };
        Ok(Conns {
            streams: [open()?, open()?],
            bufs: [RespBuf::default(), RespBuf::default()],
        })
    }

    /// One blocking request on connection 0 while no phase is running
    /// (used to scrape `/metrics` between phases).
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        let req = format!("GET {path} HTTP/1.1\r\nhost: racebench\r\n\r\n");
        self.streams[0].write_all(req.as_bytes())?;
        loop {
            if let Some(r) = self.bufs[0].take() {
                return Ok(r);
            }
            if self.bufs[0].fill(&self.streams[0])? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
        }
    }

    /// Send `reqs` open-loop at `rate` requests per second (`None`:
    /// all at once), request `i` on connection `lanes[i]`, and check
    /// each response against `expected[i]`.
    pub fn run(
        &mut self,
        reqs: &[&[u8]],
        expected: &[&[u8]],
        lanes: &[usize],
        rate: Option<f64>,
    ) -> Vec<Outcome> {
        assert_eq!(reqs.len(), expected.len(), "one expected body per request");
        assert_eq!(reqs.len(), lanes.len(), "one connection per request");
        let n = reqs.len();
        let start = Instant::now() + Duration::from_millis(2);
        let due = |i: usize| match rate {
            Some(r) => start + Duration::from_secs_f64(i as f64 / r),
            None => start,
        };
        let [s0, s1] = &self.streams;
        let readers = [s0, s1];
        let bufs = &mut self.bufs;
        let (sent, received) = std::thread::scope(|scope| {
            let rx = scope.spawn(move || receive(readers, bufs, expected, lanes));
            let mut writers = [s0, s1];
            let mut sent: Vec<Option<Instant>> = vec![None; n];
            for (i, req) in reqs.iter().enumerate() {
                let when = due(i);
                let now = Instant::now();
                if when > now {
                    std::thread::sleep(when - now);
                }
                let at = Instant::now();
                if writers[lanes[i]].write_all(req).is_err() {
                    break;
                }
                sent[i] = Some(at);
            }
            (sent, rx.join().expect("receiver thread panicked"))
        });
        (0..n)
            .map(|i| {
                let d = due(i);
                match (sent[i], received[i]) {
                    (Some(s), Some((at, status, ok))) => Outcome {
                        latency_s: at.saturating_duration_since(d).as_secs_f64(),
                        lag_s: s.saturating_duration_since(d).as_secs_f64(),
                        status,
                        ok,
                    },
                    (s, _) => Outcome {
                        latency_s: f64::INFINITY,
                        lag_s: s.map_or(f64::INFINITY, |s| {
                            s.saturating_duration_since(d).as_secs_f64()
                        }),
                        status: 0,
                        ok: false,
                    },
                }
            })
            .collect()
    }
}

type Received = Option<(Instant, u16, bool)>;

/// Receiver loop: the `k`-th response on connection `c` answers the
/// `k`-th request sent on it.
fn receive(
    streams: [&TcpStream; 2],
    bufs: &mut [RespBuf; 2],
    expected: &[&[u8]],
    lanes: &[usize],
) -> Vec<Received> {
    let n = expected.len();
    let mut out: Vec<Received> = vec![None; n];
    let order: [Vec<usize>; 2] = [0, 1].map(|c| (0..n).filter(|&i| lanes[i] == c).collect());
    let mut next = [0usize, 0usize];
    let mut done = 0usize;
    let mut last_progress = Instant::now();
    while done < n {
        for c in 0..2 {
            while let Some(&i) = order[c].get(next[c]) {
                let Some((status, body)) = bufs[c].take() else {
                    break;
                };
                out[i] = Some((Instant::now(), status, status == 200 && body == expected[i]));
                next[c] += 1;
                done += 1;
            }
        }
        if done == n {
            break;
        }
        let ready = match poll_readable(&streams, 100) {
            Ok(r) => r,
            Err(_) => break,
        };
        let mut progressed = false;
        for c in 0..2 {
            if ready[c] {
                match bufs[c].fill(streams[c]) {
                    Ok(0) | Err(_) => return out,
                    Ok(_) => progressed = true,
                }
            }
        }
        if progressed {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL_LIMIT {
            break;
        }
    }
    out
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

const POLLIN: std::os::raw::c_short = 0x1;

/// Which of the two sockets have bytes (or EOF) to read, waiting at
/// most `timeout_ms`.
fn poll_readable(streams: &[&TcpStream; 2], timeout_ms: i32) -> io::Result<[bool; 2]> {
    let mut fds = [
        PollFd {
            fd: streams[0].as_raw_fd(),
            events: POLLIN,
            revents: 0,
        },
        PollFd {
            fd: streams[1].as_raw_fd(),
            events: POLLIN,
            revents: 0,
        },
    ];
    // SAFETY: `fds` is a live, properly aligned array of two `pollfd`
    // records (`#[repr(C)]` with the libc field layout) for the whole
    // call, and `nfds` is its length; both descriptors stay open
    // because the borrowed `TcpStream`s outlive the call.
    let rc = unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            timeout_ms,
        )
    };
    if rc < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok([false; 2])
        } else {
            Err(e)
        };
    }
    Ok([fds[0].revents != 0, fds[1].revents != 0])
}

/// Incremental HTTP/1.1 response reader for one connection.
#[derive(Default)]
struct RespBuf {
    data: Vec<u8>,
    pos: usize,
}

impl RespBuf {
    /// Read whatever is available (one `read` call); returns the byte
    /// count, 0 on EOF.
    fn fill(&mut self, mut s: &TcpStream) -> io::Result<usize> {
        if self.pos > 0 && self.pos * 2 >= self.data.len() {
            self.data.drain(..self.pos);
            self.pos = 0;
        }
        let mut chunk = [0u8; 32 * 1024];
        let got = s.read(&mut chunk)?;
        self.data.extend_from_slice(&chunk[..got]);
        Ok(got)
    }

    /// Pop one complete `(status, body)` response, if buffered.
    fn take(&mut self) -> Option<(u16, Vec<u8>)> {
        let (status, range) = parse_response(&self.data[self.pos..])?;
        let body = self.data[self.pos + range.start..self.pos + range.end].to_vec();
        self.pos += range.end;
        Some((status, body))
    }
}

/// Parse one response at the front of `buf`: its status and the byte
/// range of its body (the range's end is the whole response's length).
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let body_start = head_end + 4;
    (buf.len() >= body_start + len).then_some((status, body_start..body_start + len))
}

/// A `POST` request with a JSON `{"code": …}` body, as raw bytes.
pub fn post(path: &str, code: &str) -> Vec<u8> {
    let body = serde_json::to_string(&serde_json::json!({ "code": code }))
        .expect("request body serializes");
    format!(
        "POST {path} HTTP/1.1\r\nhost: racebench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhiHTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n";
        let (s, r) = parse_response(raw).unwrap();
        assert_eq!((s, &raw[r.clone()]), (200, &b"hi"[..]));
        let (s, r2) = parse_response(&raw[r.end..]).unwrap();
        assert_eq!((s, r2.len()), (429, 0));
        assert!(parse_response(&raw[..20]).is_none());
    }
}
