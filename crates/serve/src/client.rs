//! A blocking client for the serve wire protocol — one `TcpStream` per
//! request, matching the server's `Connection: close` framing. Used by
//! the CLI's remote mode, the fleet driver, and the integration tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::http::percent_encode;
use crate::proto::{
    AttemptReply, AttemptRequest, CompareReply, ErrorBody, ErrorClass, HistoryReply,
    OpenSessionRequest, SessionInfo, StatusReply,
};

/// A client-side failure: either a classified service error (the body the
/// daemon sent) or a transport/protocol problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientError {
    pub class: ErrorClass,
    pub message: String,
    /// True when the failure happened below the protocol (connect, read,
    /// malformed response) rather than as a classified service reply.
    /// The fleet driver counts these as protocol errors.
    pub transport: bool,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.class, self.message)
    }
}

impl ClientError {
    fn transport(message: impl Into<String>) -> ClientError {
        ClientError {
            class: ErrorClass::Internal,
            message: message.into(),
            transport: true,
        }
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// The blocking client. Cheap to clone; connections are per-request.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// A client for the daemon at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(120),
        }
    }

    /// Override the per-request socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> ClientResult<bool> {
        let v: serde_json::Value = self.get("/healthz")?;
        Ok(v.as_object()
            .and_then(|o| o.get("ok"))
            .and_then(|b| b.as_bool())
            .unwrap_or(false))
    }

    /// `POST /v1/session/open`.
    pub fn open_session(&self, req: &OpenSessionRequest) -> ClientResult<SessionInfo> {
        self.post("/v1/session/open", req)
    }

    /// `POST /v1/attempt`.
    pub fn attempt(&self, req: &AttemptRequest) -> ClientResult<AttemptReply> {
        self.post("/v1/attempt", req)
    }

    /// `GET /v1/status`.
    pub fn status(&self) -> ClientResult<StatusReply> {
        self.get("/v1/status")
    }

    /// `GET /v1/history`.
    pub fn history(&self, trainee: &str) -> ClientResult<HistoryReply> {
        self.get(&format!("/v1/history?trainee={}", percent_encode(trainee)))
    }

    /// `GET /v1/run` — the full persisted record as JSON.
    pub fn run_record(&self, trainee: &str, run_id: u64) -> ClientResult<serde_json::Value> {
        self.get(&format!(
            "/v1/run?trainee={}&run={run_id}",
            percent_encode(trainee)
        ))
    }

    /// `GET /v1/compare`.
    pub fn compare(&self, trainee: &str, a: u64, b: u64) -> ClientResult<CompareReply> {
        self.get(&format!(
            "/v1/compare?trainee={}&a={a}&b={b}",
            percent_encode(trainee)
        ))
    }

    /// `POST /v1/shutdown` — ask the daemon to drain and exit.
    pub fn shutdown(&self) -> ClientResult<serde_json::Value> {
        self.post(
            "/v1/shutdown",
            &serde_json::Value::Object(serde_json::Map::new()),
        )
    }

    fn get<T: serde::de::DeserializeOwned>(&self, target: &str) -> ClientResult<T> {
        self.roundtrip("GET", target, None)
    }

    fn post<B: serde::Serialize, T: serde::de::DeserializeOwned>(
        &self,
        target: &str,
        body: &B,
    ) -> ClientResult<T> {
        let json =
            serde_json::to_string(body).map_err(|e| ClientError::transport(e.to_string()))?;
        self.roundtrip("POST", target, Some(json.as_bytes()))
    }

    fn roundtrip<T: serde::de::DeserializeOwned>(
        &self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> ClientResult<T> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| ClientError::transport(format!("connect {}: {e}", self.addr)))?;
        stream.set_read_timeout(Some(self.timeout)).ok();
        stream.set_write_timeout(Some(self.timeout)).ok();
        // The request is one write; do not let Nagle hold it back.
        stream.set_nodelay(true).ok();
        let body = body.unwrap_or(b"");
        let mut message = format!(
            "{method} {target} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        stream
            .write_all(&message)
            .map_err(|e| ClientError::transport(format!("send: {e}")))?;

        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| ClientError::transport(format!("read: {e}")))?;
        let (status, payload) = split_response(&raw)?;
        let text = std::str::from_utf8(payload)
            .map_err(|_| ClientError::transport(format!("non-utf8 body (status {status})")))?;
        if (200..300).contains(&status) {
            serde_json::from_str(text).map_err(|e| {
                ClientError::transport(format!("bad response body (status {status}): {e}"))
            })
        } else {
            let body: ErrorBody = serde_json::from_str(text).map_err(|e| {
                ClientError::transport(format!("unparseable error body (status {status}): {e}"))
            })?;
            Err(ClientError {
                class: body.class,
                message: body.message,
                transport: false,
            })
        }
    }
}

/// Split a raw HTTP response into (status, body).
fn split_response(raw: &[u8]) -> ClientResult<(u16, &[u8])> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| ClientError::transport("response missing header terminator"))?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| ClientError::transport("non-utf8 response head"))?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::transport(format!("bad status line {status_line:?}")))?;
    Ok((status, &raw[header_end + 4..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_splitting_handles_statuses_and_garbage() {
        let (status, body) =
            split_response(b"HTTP/1.1 429 Too Many\r\nx: y\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, b"{\"a\":1}");
        assert!(split_response(b"no terminator").unwrap_err().transport);
        assert!(split_response(b"GARBAGE\r\n\r\n").unwrap_err().transport);
    }

    #[test]
    fn connect_failure_is_a_transport_error() {
        // A port nothing listens on: connect must fail fast and be marked
        // as transport, not as a classified service rejection.
        let client = Client::new("127.0.0.1:1").with_timeout(Duration::from_millis(200));
        let err = client.healthz().unwrap_err();
        assert!(err.transport);
    }
}
