//! A minimal HTTP/1.1 client: request bytes, an incremental response
//! parser for keep-alive and pipelined connections, and one-shot calls.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response. Headers other than the one the benchmark reads
/// are dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `X-Offchip-Cache` (hit, miss, degraded), if present. A coalesced
    /// waiter reports `hit`.
    pub cache: Option<String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// The bytes of one request. `trace` adds `X-Offchip-Trace`; `close`
/// asks the server to close the connection after answering.
pub fn request(method: &str, path: &str, body: &str, trace: Option<u64>, close: bool) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\n");
    if let Some(t) = trace {
        out.push_str(&format!("X-Offchip-Trace: {t:016x}\r\n"));
    }
    out.push_str("Host: bench\r\n");
    if close {
        out.push_str("Connection: close\r\n");
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    out.into_bytes()
}

/// `template` with an `X-Offchip-Trace: id` header after its request line.
pub fn with_trace(template: &[u8], id: u64) -> Vec<u8> {
    let line_end = template
        .windows(2)
        .position(|w| w == b"\r\n")
        .map_or(0, |p| p + 2);
    let mut out = Vec::with_capacity(template.len() + 36);
    out.extend_from_slice(&template[..line_end]);
    out.extend_from_slice(format!("X-Offchip-Trace: {id:016x}\r\n").as_bytes());
    out.extend_from_slice(&template[line_end..]);
    out
}

/// Accumulates bytes from a connection and yields complete responses in
/// arrival order.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if the buffer holds one.
    pub fn next_response(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let (mut len, mut cache) = (None, None);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => len = value.parse::<usize>().ok(),
                "x-offchip-cache" => cache = Some(value.to_string()),
                _ => {}
            }
        }
        let len = len.ok_or("response without Content-Length")?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            cache,
            body,
        }))
    }
}

/// Reads from `stream` until one complete response is parsed.
pub fn read_response(
    stream: &mut TcpStream,
    parser: &mut ResponseParser,
) -> Result<Response, String> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(r) = parser.next_response()? {
            return Ok(r);
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        parser.feed(&chunk[..n]);
    }
}

/// Opens a connection with the benchmark's socket settings.
pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, String> {
    let s = TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    s.set_read_timeout(Some(timeout))
        .map_err(|e| format!("timeout: {e}"))?;
    s.set_write_timeout(Some(timeout))
        .map_err(|e| format!("timeout: {e}"))?;
    Ok(s)
}

/// A keep-alive client: one connection, one request at a time.
pub struct Client {
    stream: TcpStream,
    parser: ResponseParser,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Client, String> {
        Ok(Client {
            stream: connect(addr, timeout)?,
            parser: ResponseParser::default(),
        })
    }

    /// Sends `req` and waits for its response.
    pub fn call(&mut self, req: &[u8]) -> Result<Response, String> {
        self.stream
            .write_all(req)
            .map_err(|e| format!("write: {e}"))?;
        read_response(&mut self.stream, &mut self.parser)
    }

    /// Sends `count` pipelined requests in one write and reads their
    /// `count` responses, in order.
    pub fn pipeline(&mut self, reqs: &[u8], count: usize) -> Result<Vec<Response>, String> {
        self.stream
            .write_all(reqs)
            .map_err(|e| format!("write: {e}"))?;
        (0..count)
            .map(|_| read_response(&mut self.stream, &mut self.parser))
            .collect()
    }
}

/// One request on a fresh connection: connect, send, read the answer,
/// close.
pub fn fresh_call(addr: SocketAddr, req: &[u8], timeout: Duration) -> Result<Response, String> {
    let mut s = connect(addr, timeout)?;
    s.write_all(req).map_err(|e| format!("write: {e}"))?;
    read_response(&mut s, &mut ResponseParser::default())
}

/// A `/predict` body.
pub fn predict_body(machine: &str, program: &str, n: usize) -> String {
    format!(r#"{{"machine":"{machine}","program":"{program}","n":{n}}}"#)
}

/// A `/sweep` body.
pub fn sweep_body(machine: &str, program: &str, from: usize, to: usize) -> String {
    format!(r#"{{"machine":"{machine}","program":"{program}","n_from":{from},"n_to":{to}}}"#)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_trace_inserts_the_header_after_the_request_line() {
        let plain = request("POST", "/p", "{}", None, false);
        assert_eq!(
            with_trace(&plain, 0xcafe),
            request("POST", "/p", "{}", Some(0xcafe), false)
        );
    }

    #[test]
    fn parser_splits_pipelined_responses_across_reads() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Offchip-Cache: hit\r\n\r\nokHTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        let mut p = ResponseParser::default();
        p.feed(&wire[..20]);
        assert_eq!(p.next_response().unwrap(), None);
        p.feed(&wire[20..]);
        let a = p.next_response().unwrap().unwrap();
        assert_eq!(
            (a.status, a.cache.as_deref(), a.body.as_slice()),
            (200, Some("hit"), &b"ok"[..])
        );
        let b = p.next_response().unwrap().unwrap();
        assert_eq!((b.status, b.body.len()), (503, 0));
        assert_eq!(p.next_response().unwrap(), None);
    }
}
