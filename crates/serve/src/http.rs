//! A hand-rolled HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The build environment vendors no external crates (no tokio, no hyper),
//! and the protocol subset a loopback exploration service needs is small:
//! `GET`/`POST`, `Content-Length` bodies, keep-alive. This module owns the
//! byte-level framing; routing and handlers live in [`crate::server`].
//!
//! Robustness over features: every limit is explicit ([`Limits`]), every
//! malformed input is a typed `HttpError` the server maps to a 4xx
//! response, and anything outside the subset (`Transfer-Encoding`, absolute
//! URIs, HTTP/2 preface, …) is rejected loudly rather than half-handled.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Byte and time caps applied while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Request line + headers (bytes, including the blank line).
    pub max_head_bytes: usize,
    /// Body bytes (`Content-Length` above this is refused with 413).
    pub max_body_bytes: usize,
    /// Hard wall-clock deadline on reading one request (head + body),
    /// measured from its first byte. The worker's 500 ms read-timeout poll
    /// tick only bounds *idle* gaps; without this cap a client trickling
    /// one byte every few hundred milliseconds would pin a worker forever
    /// (slow-loris). Exceeding it is `HttpError::ReadTimeout` → 408.
    pub read_deadline: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub(crate) struct Request {
    /// `GET`, `POST`, … (upper-case as sent).
    pub method: String,
    /// The request target, e.g. `/explore` (query strings are kept as-is).
    pub path: String,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this one.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// The peer closed the connection before sending any byte — the normal
    /// end of a keep-alive session, not an error to report.
    Closed,
    /// Socket-level failure (including read timeouts).
    Io(io::Error),
    /// Malformed or unsupported framing → 400.
    Bad(&'static str),
    /// The head exceeded [`Limits::max_head_bytes`] → 431.
    HeadTooLarge,
    /// The declared body exceeds [`Limits::max_body_bytes`] → 413.
    BodyTooLarge,
    /// One request took longer than [`Limits::read_deadline`] to arrive
    /// (slow-loris protection) → 408.
    ReadTimeout,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Bad(what) => write!(f, "malformed request: {what}"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::ReadTimeout => {
                write!(f, "request not received within the read deadline")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// A connection able to read consecutive requests (keep-alive): bytes read
/// past one request's end are carried over to the next.
pub(crate) struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
    /// When the first byte of the in-progress request arrived. Survives the
    /// `WouldBlock` re-entries of the worker's poll tick so the
    /// [`Limits::read_deadline`] clock keeps running across them; cleared
    /// once a request parses completely.
    request_started: Option<Instant>,
}

impl Conn {
    /// Wraps an accepted stream.
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn { stream, carry: Vec::new(), request_started: None }
    }

    /// The underlying stream (for writing responses).
    pub(crate) fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Reads and parses the next request.
    pub(crate) fn read_request(&mut self, limits: &Limits) -> Result<Request, HttpError> {
        // —— head: everything up to the first CRLFCRLF ——
        let head_end = loop {
            if let Some(end) = find_head_end(&self.carry) {
                break end;
            }
            if self.carry.len() > limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            self.check_read_deadline(limits)?;
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).map_err(HttpError::Io)?;
            if n == 0 {
                return if self.carry.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Bad("connection closed mid-request"))
                };
            }
            self.carry.extend_from_slice(&chunk[..n]);
            self.request_started.get_or_insert_with(Instant::now);
        };
        if head_end > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        let head = std::str::from_utf8(&self.carry[..head_end])
            .map_err(|_| HttpError::Bad("head is not UTF-8"))?
            .to_owned();
        self.carry.drain(..head_end + 4);

        // —— request line ——
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => {
                    (m, p, v)
                }
                _ => return Err(HttpError::Bad("request line is not 'METHOD PATH VERSION'")),
            };
        if !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(HttpError::Bad("method must be upper-case ASCII"));
        }
        if !path.starts_with('/') {
            return Err(HttpError::Bad("request target must be origin-form (/path)"));
        }
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return Err(HttpError::Bad("unsupported HTTP version")),
        };

        // —— headers ——
        let mut content_length: usize = 0;
        let mut keep_alive = http11;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) =
                line.split_once(':').ok_or(HttpError::Bad("header line without ':'"))?;
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            match name.as_str() {
                "content-length" => {
                    content_length = value
                        .parse::<usize>()
                        .map_err(|_| HttpError::Bad("invalid Content-Length"))?;
                }
                "transfer-encoding" => {
                    return Err(HttpError::Bad("Transfer-Encoding is not supported"));
                }
                "connection" => {
                    let v = value.to_ascii_lowercase();
                    if v.split(',').any(|t| t.trim() == "close") {
                        keep_alive = false;
                    } else if v.split(',').any(|t| t.trim() == "keep-alive") {
                        keep_alive = true;
                    }
                }
                "expect" => return Err(HttpError::Bad("Expect is not supported")),
                _ => {}
            }
        }
        if content_length > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }

        // —— body: exactly Content-Length bytes ——
        let mut body = Vec::with_capacity(content_length.min(64 * 1024));
        let take = content_length.min(self.carry.len());
        body.extend_from_slice(&self.carry[..take]);
        self.carry.drain(..take);
        while body.len() < content_length {
            self.check_read_deadline(limits)?;
            let mut chunk = [0u8; 4096];
            let want = (content_length - body.len()).min(chunk.len());
            let n = self.stream.read(&mut chunk[..want]).map_err(HttpError::Io)?;
            if n == 0 {
                return Err(HttpError::Bad("connection closed mid-body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }

        self.request_started = None;
        Ok(Request { method: method.to_owned(), path: path.to_owned(), body, keep_alive })
    }

    /// Enforces [`Limits::read_deadline`] over the in-progress request (the
    /// clock starts at its first byte; a connection idling *between*
    /// requests is governed by the server's idle timeout instead).
    fn check_read_deadline(&self, limits: &Limits) -> Result<(), HttpError> {
        match self.request_started {
            Some(started) if started.elapsed() > limits.read_deadline => {
                Err(HttpError::ReadTimeout)
            }
            _ => Ok(()),
        }
    }
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase of the status codes the server emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one response. `extra_headers` must not include the framing
/// headers this function owns (`Content-Length`, `Content-Type`,
/// `Connection`).
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8], limits: &Limits) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let out = Conn::new(stream).read_request(limits);
        writer.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body_and_keep_alive() {
        let req = roundtrip(
            b"POST /explore HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"k\":3}",
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/explore");
        assert_eq!(req.body, b"{\"k\":3}");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10() {
        let req = roundtrip(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            &Limits::default(),
        )
        .unwrap();
        assert!(!req.keep_alive);
        let req = roundtrip(b"GET / HTTP/1.0\r\n\r\n", &Limits::default()).unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn rejects_malformed() {
        for raw in [
            b"garbage\r\n\r\n".as_slice(),
            b"GET\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(roundtrip(raw, &Limits::default()), Err(HttpError::Bad(_))),
                "{:?} must be Bad",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn enforces_limits() {
        let small = Limits { max_head_bytes: 64, max_body_bytes: 8, ..Limits::default() };
        let long_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(200));
        assert!(matches!(
            roundtrip(long_header.as_bytes(), &small),
            Err(HttpError::HeadTooLarge)
        ));
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789", &small),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn trickled_request_hits_the_read_deadline() {
        // One byte every 50 ms with a 150 ms socket read timeout: the idle
        // poll tick alone never fires, so only the per-request wall-clock
        // deadline can end this request.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for b in b"GET /healthz HTTP/1.1\r\n" {
                if s.write_all(&[*b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(150))).unwrap();
        let limits = Limits { read_deadline: Duration::from_millis(300), ..Limits::default() };
        let mut conn = Conn::new(stream);
        let t = Instant::now();
        let out = loop {
            match conn.read_request(&limits) {
                Err(HttpError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue; // the worker's poll tick re-enters like this
                }
                other => break other,
            }
        };
        assert!(matches!(out, Err(HttpError::ReadTimeout)), "got {out:?}");
        assert!(t.elapsed() < Duration::from_secs(5), "deadline must cut the trickle short");
        drop(conn);
        writer.join().unwrap();
    }

    #[test]
    fn keep_alive_carries_pipelined_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Two requests in one write.
            s.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n").unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream);
        let a = conn.read_request(&Limits::default()).unwrap();
        let b = conn.read_request(&Limits::default()).unwrap();
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
        // Third read sees the clean close.
        assert!(matches!(conn.read_request(&Limits::default()), Err(HttpError::Closed)));
        writer.join().unwrap();
    }
}
