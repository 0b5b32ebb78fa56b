//! A deliberately minimal HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The build environment is offline and the workspace vendors its
//! dependencies, so the server speaks just enough HTTP for its own
//! clients, `curl`, and CI: persistent connections with
//! `Connection: keep-alive` semantics (the HTTP/1.1 default),
//! `Content-Length` bodies on requests and responses, and streaming
//! responses that end when the connection closes (the job-events
//! endpoint). Because requests are parsed from a per-connection
//! [`BufRead`], request **pipelining** works for free: a client may
//! write several requests back to back and the server answers them in
//! order from the same buffer. No chunked encoding, no TLS — it serves
//! deterministic simulator campaigns on localhost, not the open
//! internet.

use std::io::{BufRead, Read, Write};

/// Upper bound on a request body, so a stray client cannot balloon the
/// server's memory.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on one line of the request head (the request line or one
/// header, terminator included), so a client cannot grow a line without
/// limit.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Upper bound on the number of headers in one request.
pub const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request target, e.g. `/v1/jobs/3`.
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the request line spoke HTTP/1.0 (default close) rather
    /// than HTTP/1.1 (default keep-alive).
    pub http10: bool,
}

/// What reading from a persistent connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// One complete request.
    Request(Request),
    /// Clean close: EOF arrived *between* requests — the client is done
    /// with the connection. Not an error.
    Closed,
    /// The read timed out while waiting for the *start* of the next
    /// request — the keep-alive connection went idle. Not an error.
    IdleTimeout,
}

/// Reads one line of the request head into `line`, at most
/// [`MAX_LINE_BYTES`] bytes of it; returns the bytes read like
/// `read_line`.
fn read_head_line(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<usize> {
    Read::take(reader, MAX_LINE_BYTES as u64).read_line(line)
}

/// The error for a head line that stopped before its `\n` after `n`
/// bytes: either it hit [`MAX_LINE_BYTES`] or EOF cut it short.
fn unterminated(what: &str, n: usize) -> String {
    if n >= MAX_LINE_BYTES {
        format!("{what} exceeds the {MAX_LINE_BYTES}-byte limit")
    } else {
        format!("truncated {what} (EOF mid-line)")
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl Request {
    /// A header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for this exchange to be the
    /// connection's last (`Connection: close`, or HTTP/1.0 without an
    /// explicit keep-alive).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.http10,
        }
    }

    /// Reads one request from a (possibly reused) connection.
    ///
    /// A clean EOF or a timeout *before the first request byte* is a
    /// normal end of a keep-alive connection ([`ReadOutcome::Closed`] /
    /// [`ReadOutcome::IdleTimeout`]); EOF or timeout *mid-request* is a
    /// truncated request and comes back as an error — the caller must
    /// close without serving a response body it cannot trust. Other
    /// errors are one-line protocol diagnostics (answered 400), among
    /// them a head line longer than [`MAX_LINE_BYTES`] and more than
    /// [`MAX_HEADERS`] headers.
    pub fn read_from(reader: &mut impl BufRead) -> Result<ReadOutcome, String> {
        let mut line = String::new();
        match read_head_line(reader, &mut line) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(n) if !line.ends_with('\n') => return Err(unterminated("request line", n)),
            Ok(_) => {}
            Err(e) if is_timeout(&e) && line.is_empty() => return Ok(ReadOutcome::IdleTimeout),
            Err(e) => return Err(format!("read request line: {e}")),
        }
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or("empty request line")?.to_string();
        let path = parts
            .next()
            .ok_or("request line missing target")?
            .to_string();
        let version = parts.next().ok_or("request line missing version")?;
        if !version.starts_with("HTTP/1.") {
            return Err(format!("unsupported version {version:?}"));
        }
        let http10 = version == "HTTP/1.0";

        let mut headers = Vec::new();
        loop {
            let mut hline = String::new();
            match read_head_line(reader, &mut hline) {
                Ok(0) => return Err("truncated headers (EOF before blank line)".to_string()),
                Ok(n) if !hline.ends_with('\n') => return Err(unterminated("header line", n)),
                Ok(_) => {}
                Err(e) => return Err(format!("read header: {e}")),
            }
            let hline = hline.trim_end();
            if hline.is_empty() {
                break;
            }
            let (name, value) = hline
                .split_once(':')
                .ok_or_else(|| format!("malformed header {hline:?}"))?;
            if headers.len() == MAX_HEADERS {
                return Err(format!("more than {MAX_HEADERS} headers"));
            }
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let mut body = String::new();
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse::<usize>())
            .transpose()
            .map_err(|e| format!("bad content-length: {e}"))?
            .unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ));
        }
        if content_length > 0 {
            let mut buf = vec![0u8; content_length];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("read body: {e}"))?;
            body = String::from_utf8(buf).map_err(|_| "body is not UTF-8".to_string())?;
        }
        Ok(ReadOutcome::Request(Request {
            method,
            path,
            headers,
            body,
            http10,
        }))
    }
}

/// The reason phrase for the handful of statuses the server uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Builds a complete response head (through the blank line) for a
/// `Content-Length` body. Pure string assembly — the hot cache
/// precomputes these once per entry so a cache hit writes bytes it
/// never has to format again.
pub fn response_head(status: u16, content_type: &str, body_len: usize, close: bool) -> String {
    format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {body_len}\r\nconnection: {}\r\n\r\n",
        reason(status),
        if close { "close" } else { "keep-alive" },
    )
}

/// Writes a complete response with a `Content-Length` body. `close`
/// selects the `Connection:` header; the caller owns actually closing
/// (or keeping) the connection to match.
pub fn respond_bytes(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) {
    let head = response_head(status, content_type, body.len(), close);
    // The client may already be gone; that is its problem, not ours.
    let _ = w.write_all(head.as_bytes());
    let _ = w.write_all(body);
    let _ = w.flush();
}

/// Writes a complete response with a `Content-Length` body.
pub fn respond(w: &mut impl Write, status: u16, content_type: &str, body: &str, close: bool) {
    respond_bytes(w, status, content_type, body.as_bytes(), close);
}

/// Writes a JSON response.
pub fn respond_json(w: &mut impl Write, status: u16, body: &str, close: bool) {
    respond(w, status, "application/json", body, close);
}

/// Writes the head of an EOF-delimited streaming response (no
/// `Content-Length`; the body ends when the server closes the
/// connection — streaming therefore always ends the keep-alive
/// session). Returns whether the head was accepted.
pub fn start_stream(w: &mut impl Write, content_type: &str) -> bool {
    let head =
        format!("HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\nconnection: close\r\n\r\n");
    w.write_all(head.as_bytes()).is_ok() && w.flush().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips one raw request through a real socket pair.
    fn parse_raw(raw: &str) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(raw.as_bytes()).unwrap();
            c.flush().unwrap();
            // Half-close so the reader sees EOF after the payload — a
            // truncated request must end in EOF, not a hung read.
            c.shutdown(std::net::Shutdown::Write).unwrap();
            c
        });
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(server_side);
        let req = Request::read_from(&mut reader);
        drop(writer.join().unwrap());
        match req? {
            ReadOutcome::Request(r) => Ok(r),
            other => Err(format!("expected a request, got {other:?}")),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_raw("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, "{\"a\": 1}\n");
        assert!(!req.wants_close(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_raw("GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn connection_semantics_follow_the_version_and_header() {
        let req = parse_raw("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
        let req = parse_raw("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.wants_close(), "HTTP/1.0 defaults to close");
        let req = parse_raw("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.wants_close());
        let req = parse_raw("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(req.wants_close(), "header matching is case-insensitive");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_raw("NOT-HTTP\r\n\r\n").is_err());
        assert!(parse_raw("GET / SPDY/9\r\n\r\n").is_err());
        assert!(parse_raw("GET / HTTP/1.1\r\nContent-Length: nine\r\n\r\n").is_err());
        let oversized = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert!(parse_raw(&oversized).is_err());
    }

    #[test]
    fn truncation_is_an_error_not_a_request() {
        // EOF mid-request-line, mid-headers, and mid-body must all be
        // hard errors — a reused connection must never yield a request
        // assembled from a partial write.
        assert!(parse_raw("GET /v1/heal").is_err());
        assert!(parse_raw("GET / HTTP/1.1\r\nHost: x\r\n").is_err());
        assert!(parse_raw("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"a\"").is_err());
    }

    /// Parses one request from an in-memory buffer.
    fn parse_bytes(raw: &str) -> Result<Request, String> {
        match Request::read_from(&mut raw.as_bytes())? {
            ReadOutcome::Request(r) => Ok(r),
            other => Err(format!("expected a request, got {other:?}")),
        }
    }

    /// A `name: value` header line exactly `len` bytes long with its CRLF.
    fn header_line(name: &str, len: usize) -> String {
        let pad = len - name.len() - ": \r\n".len();
        format!("{name}: {}\r\n", "v".repeat(pad))
    }

    #[test]
    fn over_long_request_line_is_rejected() {
        let target = "a".repeat(MAX_LINE_BYTES);
        let err = parse_bytes(&format!("GET /{target} HTTP/1.1\r\n\r\n")).unwrap_err();
        assert!(err.contains("request line exceeds"), "{err}");
    }

    #[test]
    fn over_long_header_is_rejected() {
        let raw = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            header_line("x", MAX_LINE_BYTES + 1)
        );
        let err = parse_bytes(&raw).unwrap_err();
        assert!(err.contains("header line exceeds"), "{err}");
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let headers: String = (0..=MAX_HEADERS).map(|i| format!("h{i}: x\r\n")).collect();
        let err = parse_bytes(&format!("GET / HTTP/1.1\r\n{headers}\r\n")).unwrap_err();
        assert!(err.contains("more than"), "{err}");
    }

    #[test]
    fn request_just_under_both_limits_parses() {
        // A request line and MAX_HEADERS headers, each exactly
        // MAX_LINE_BYTES long with its CRLF.
        let fixed = "GET / HTTP/1.1\r\n".len();
        let request_line = format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_LINE_BYTES - fixed));
        assert_eq!(request_line.len(), MAX_LINE_BYTES);
        let headers: String = (0..MAX_HEADERS)
            .map(|i| header_line(&format!("h{i}"), MAX_LINE_BYTES))
            .collect();
        let req = parse_bytes(&format!("{request_line}{headers}\r\n")).unwrap();
        assert_eq!(req.headers.len(), MAX_HEADERS);
        assert_eq!(req.path.len(), MAX_LINE_BYTES - fixed + 1);
    }

    #[test]
    fn eof_between_requests_is_a_clean_close() {
        let mut empty: &[u8] = b"";
        match Request::read_from(&mut empty).unwrap() {
            ReadOutcome::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut two: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        let a = match Request::read_from(&mut two).unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(a.path, "/a");
        let b = match Request::read_from(&mut two).unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!((b.path.as_str(), b.body.as_str()), ("/b", "hi"));
        assert!(matches!(
            Request::read_from(&mut two).unwrap(),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn response_head_spells_the_connection_state() {
        let keep = response_head(200, "application/json", 2, false);
        assert!(keep.contains("connection: keep-alive\r\n"), "{keep}");
        assert!(keep.contains("content-length: 2\r\n"));
        let close = response_head(404, "application/json", 0, true);
        assert!(close.contains("connection: close\r\n"), "{close}");
        assert!(close.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(close.ends_with("\r\n\r\n"));
    }
}
