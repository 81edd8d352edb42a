//! A minimal HTTP/1.1 layer over `std::net` — just enough for the Labs
//! service wire protocol (the workspace vendors no async runtime or HTTP
//! crate, and the protocol needs nothing fancier: one request per
//! connection, JSON bodies, `Connection: close`).

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on a request body; a campaign attempt request is well under
/// a kilobyte, so anything bigger is garbage or abuse.
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Upper bound on one header line.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the header count.
const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read and parse one request from the stream. `Err` carries a human
/// message suitable for a 400 body.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_owned();
    let target = parts.next().ok_or("request line missing target")?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version}"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), parse_query(q)),
        None => (target.to_owned(), Vec::new()),
    };

    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            let mut body = vec![0u8; content_length];
            if content_length > 0 {
                reader
                    .read_exact(&mut body)
                    .map_err(|e| format!("short body: {e}"))?;
            }
            return Ok(Request {
                method,
                path,
                query,
                body,
            });
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length {:?}", value.trim()))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(format!("body of {content_length} bytes exceeds limit"));
                }
            }
        }
    }
    Err("too many headers".to_owned())
}

/// Write one response and flush. The connection is one-shot
/// (`Connection: close`), so the body length is always exact. Head and
/// body leave in a single write, so the reply is one segment whenever it
/// fits one.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = reason_phrase(status);
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Read one CRLF-terminated line, rejecting unbounded lines.
fn read_line(reader: &mut BufReader<&mut TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    let mut taken = 0usize;
    loop {
        let mut byte = [0u8; 1];
        reader
            .read_exact(&mut byte)
            .map_err(|e| format!("connection ended mid-line: {e}"))?;
        taken += 1;
        if taken > MAX_LINE_BYTES {
            return Err("header line too long".to_owned());
        }
        match byte[0] {
            b'\n' => {
                if line.ends_with('\r') {
                    line.pop();
                }
                return Ok(line);
            }
            b => line.push(b as char),
        }
    }
}

/// Split `a=1&b=two` into pairs, percent-decoding each side.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Minimal percent-decoding (`%2B`, `+` as space). Invalid escapes pass
/// through literally rather than failing the request.
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
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
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

/// Percent-encode a query value (the client half of [`percent_decode`]).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trip a raw request through a real socket pair.
    fn parse_raw(raw: &str) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_owned();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let parsed = read_request(&mut conn);
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let r = parse_raw(
            "POST /v1/attempt?trainee=ada%20b&x=1 HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/attempt");
        assert_eq!(r.param("trainee"), Some("ada b"));
        assert_eq!(r.param("x"), Some("1"));
        assert_eq!(r.param("missing"), None);
        assert_eq!(r.body, b"body");
    }

    #[test]
    fn rejects_oversized_bodies_and_bad_lengths() {
        let huge = format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 2 << 20);
        assert!(parse_raw(&huge).unwrap_err().contains("exceeds limit"));
        let bad = "POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n";
        assert!(parse_raw(bad).unwrap_err().contains("bad content-length"));
    }

    #[test]
    fn percent_codec_round_trips() {
        for s in ["plain", "with space", "a/b?c=d&e", "café"] {
            assert_eq!(percent_decode(&percent_encode(s)), s);
        }
    }

    #[test]
    fn responses_are_well_formed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            write_response(&mut conn, 429, "application/json", b"{\"x\":1}").unwrap();
        });
        let mut s = TcpStream::connect(addr).unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        t.join().unwrap();
        assert!(raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(raw.contains("content-length: 7\r\n"));
        assert!(raw.ends_with("{\"x\":1}"));
    }
}
