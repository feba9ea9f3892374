//! A minimal blocking HTTP/1.1 client for loopback use — the determinism
//! tests and the pinned benchmark's serve workloads drive the daemon
//! through this instead of shelling out to curl.
//!
//! Supports exactly what the server speaks: `GET`/`POST`,
//! `Content-Length` bodies, keep-alive connection reuse — plus polite
//! load-shed handling: a 503 (queue full or admission-shed) is retried with
//! jittered exponential backoff honoring the server's `Retry-After` hint,
//! under a bounded retry budget (see [`RetryPolicy`]).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// One parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// The first header with this (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// How [`Client::send`] reacts to 503 responses (accept-queue overflow or
/// admission shed). The server's `Retry-After` hint, when present, replaces
/// the exponential backoff for that attempt; either way the delay is
/// jittered into `[0.5, 1.0]×` so a herd of shed clients does not return in
/// lockstep, and the total sleep across one logical request never exceeds
/// `max_total_delay`.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = fail on the first 503).
    pub max_retries: u32,
    /// Backoff for the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Retry budget: total sleep allowed across one `send`.
    pub max_total_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(50),
            max_total_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// Never retry — tests asserting raw 503 behaviour use this.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    timeout: Duration,
    retry: RetryPolicy,
    /// xorshift64 state for backoff jitter (no external RNG dependency).
    jitter_state: u64,
}

impl Client {
    /// Connects lazily on first use.
    pub fn new(addr: SocketAddr) -> Client {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
            | 1; // xorshift must not start at 0
        Client {
            addr,
            stream: None,
            timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            jitter_state: seed,
        }
    }

    /// Same client with a different 503 retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// Same client never retrying 503s.
    pub fn no_retry(self) -> Client {
        self.with_retry(RetryPolicy::none())
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        match &mut self.stream {
            Some(stream) => Ok(stream),
            slot => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(self.timeout))?;
                Ok(slot.insert(stream))
            }
        }
    }

    /// A jitter factor in `[0.5, 1.0]` (xorshift64).
    fn jitter(&mut self) -> f64 {
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        0.5 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.5
    }

    /// Sends one request and reads the response, reusing the connection
    /// when the server allows it, and retrying 503s per the
    /// [`RetryPolicy`]. I/O errors are not retried beyond the keep-alive
    /// reconnect — a shed is an explicit, safe-to-repeat answer; a broken
    /// pipe mid-POST is not.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let policy = self.retry.clone();
        let mut slept = Duration::ZERO;
        for attempt in 0.. {
            let response = self.send_reconnecting(method, path, body)?;
            if response.status != 503 || attempt >= policy.max_retries {
                return Ok(response);
            }
            let remaining = policy.max_total_delay.saturating_sub(slept);
            if remaining.is_zero() {
                return Ok(response);
            }
            // Prefer the server's hint (whole seconds per RFC 9110);
            // otherwise exponential backoff, either way jittered down.
            let hinted = response
                .header("retry-after")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_secs);
            let backoff = policy.base_delay * 2u32.saturating_pow(attempt);
            let delay = hinted.unwrap_or(backoff).mul_f64(self.jitter()).min(remaining);
            std::thread::sleep(delay);
            slept += delay;
        }
        unreachable!("the retry loop returns within max_retries + 1 attempts")
    }

    /// One attempt, with the keep-alive reconnect: retries once on a fresh
    /// connection if the reused one turned out dead.
    fn send_reconnecting(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.send_once(method, path, body) {
            Ok(response) => Ok(response),
            Err(_) if reused => {
                self.stream = None;
                self.send_once(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.send("GET", path, b"")
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send("POST", path, body)
    }

    fn send_once(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let stream = self.stream()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: spade\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        let response = read_response(stream)?;
        let close =
            response.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if close {
            self.stream = None;
        }
        Ok(response)
    }
}

/// One-shot `GET` over a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    Client::new(addr).get(path)
}

/// One-shot `POST` over a fresh connection.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Response> {
    Client::new(addr).post(path, body)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed response: {what}"))
}

fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    // —— head ——
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("header line"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| bad("content-length"))?;
        }
        headers.push((name, value));
    }

    // —— body ——
    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Response { status, headers, body })
}
