//! The HTTP/1.1 telemetry side-port: a deliberately minimal responder
//! serving Prometheus text exposition so any standard scraper can poll
//! a live `dvfs serve` without speaking the framed protocol.
//!
//! Scope is scrape-shaped on purpose: `GET`/`HEAD` only, one request
//! per connection (`Connection: close`), bounded header size, no
//! keep-alive and no chunking. Routes:
//!
//! * `GET /metrics` — the exposition document (see [`obs::prom`]);
//! * `GET /healthz` — `ok` (liveness for probes);
//! * `HEAD` on either — same status and `Content-Length`, no body
//!   (probes that only want liveness skip the exposition payload);
//! * anything else — 404 (unknown path) or 405 (other methods).
//!
//! [`http_get`] is the matching one-shot client used by `dvfs scrape`,
//! tests, and the check.sh smoke.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Crate version baked into `build_info` and the stats frame.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git revision baked in via the `DVFS_GIT_HASH` build-time env var
/// (release tooling sets it; dev builds report `unknown`).
pub const BUILD_GIT: &str = match option_env!("DVFS_GIT_HASH") {
    Some(hash) => hash,
    None => "unknown",
};

/// Longest accepted request head (request line + headers), bytes.
const MAX_HEAD: usize = 8 * 1024;
/// Per-connection socket timeout — a stuck scraper must not pin the
/// responder thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Serves HTTP on `listener` until `stop()` holds when an `accept`
/// returns, as the serve acceptor does: to stop it, set the flag, then
/// wake the listener with [`super::server::wake_listener`]. `body_for`
/// resolves a request path to `(content_type, body)`; `None` is a 404.
/// Runs connections inline — scrapes are rare (seconds apart) and
/// bounded, so one thread is the right amount of machinery.
pub(crate) fn telemetry_loop<S, B>(listener: TcpListener, stop: S, body_for: B)
where
    S: Fn() -> bool,
    B: Fn(&str) -> Option<(String, String)>,
{
    let scrapes = obs::global().counter("telemetry.scrapes");
    super::server::accept_until_stopped(&listener, "telemetry", stop, |stream| {
        if serve_one(stream, &body_for).is_ok() {
            scrapes.inc();
        }
    });
}

fn serve_one<B>(mut stream: TcpStream, body_for: &B) -> io::Result<()>
where
    B: Fn(&str) -> Option<(String, String)>,
{
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = read_head(&mut stream)?;
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" && method != "HEAD" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n", true);
    }
    // HEAD gets the exact head a GET would produce (status,
    // Content-Type, Content-Length for the full body) with the body
    // itself withheld, per RFC 9110 §9.3.2.
    let send_body = method == "GET";
    // Strip any query string — scrapers may append one.
    let path = path.split('?').next().unwrap_or(path);
    match body_for(path) {
        Some((content_type, body)) => respond(&mut stream, 200, &content_type, &body, send_body),
        None => respond(&mut stream, 404, "text/plain", "not found\n", send_body),
    }
}

/// Reads until the blank line ending the request head (we never read a
/// body — GET only), bounded by [`MAX_HEAD`].
fn read_head(stream: &mut TcpStream) -> io::Result<String> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if head.len() >= MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        match stream.read(&mut byte)? {
            0 => break,
            _ => head.push(byte[0]),
        }
    }
    String::from_utf8(head).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    send_body: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    if send_body {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

/// One-shot HTTP GET against a telemetry port: returns
/// `(status, body)`. Deliberately tiny — enough for `dvfs scrape`,
/// tests, and shell smoke, not a general client.
pub fn http_get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = match raw.find("\r\n\r\n") {
        Some(i) => (&raw[..i], &raw[i + 4..]),
        None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "no header/body separator in response",
            ))
        }
    };
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A responder on an ephemeral port; [`Responder::stop`] ends it.
    struct Responder {
        addr: String,
        stop: Arc<AtomicBool>,
        handle: std::thread::JoinHandle<()>,
    }

    impl Responder {
        /// Stops the loop the way the server does (flag, then a wake
        /// connection) and joins it.
        fn stop(self) {
            self.stop.store(true, Ordering::Release);
            crate::serve::server::wake_listener(self.addr.parse().unwrap());
            self.handle.join().unwrap();
        }
    }

    fn spawn_responder() -> Responder {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            telemetry_loop(
                listener,
                move || stop_flag.load(Ordering::Acquire),
                |path| match path {
                    "/metrics" => Some(("text/plain".to_string(), "m_total 1\n".to_string())),
                    "/healthz" => Some(("text/plain".to_string(), "ok\n".to_string())),
                    _ => None,
                },
            );
        });
        Responder { addr, stop, handle }
    }

    #[test]
    fn responder_serves_routes_and_404s() {
        let responder = spawn_responder();
        let addr = responder.addr.clone();
        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!((status, body.as_str()), (200, "m_total 1\n"));
        let (status, body) = http_get(&addr, "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        // Query strings are ignored, like real scrapers send.
        let (status, _) = http_get(&addr, "/metrics?timeout=10s").unwrap();
        assert_eq!(status, 200);
        let (status, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(status, 404);
        responder.stop();
    }

    /// Raw one-shot request with an arbitrary method; returns the full
    /// response (head + any body) as a string.
    fn raw_request(addr: &str, method: &str, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    }

    fn content_length(raw: &str) -> usize {
        raw.lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header present")
            .trim()
            .parse()
            .unwrap()
    }

    #[test]
    fn head_mirrors_get_headers_without_body() {
        let responder = spawn_responder();
        let addr = responder.addr.clone();
        for (path, get_body) in [("/metrics", "m_total 1\n"), ("/healthz", "ok\n")] {
            let raw = raw_request(&addr, "HEAD", path);
            assert!(raw.starts_with("HTTP/1.1 200"), "got: {raw}");
            assert_eq!(content_length(&raw), get_body.len(), "path {path}");
            let body = raw.split("\r\n\r\n").nth(1).unwrap_or("");
            assert!(body.is_empty(), "HEAD {path} must carry no body: {body:?}");
        }
        // Unknown paths still 404 — with the 404 Content-Length and no
        // body.
        let raw = raw_request(&addr, "HEAD", "/nope");
        assert!(raw.starts_with("HTTP/1.1 404"), "got: {raw}");
        assert_eq!(content_length(&raw), "not found\n".len());
        assert_eq!(raw.split("\r\n\r\n").nth(1).unwrap_or(""), "");
        responder.stop();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let responder = spawn_responder();
        let addr = responder.addr.clone();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "got: {raw}");
        responder.stop();
    }

    #[test]
    fn build_info_constants_are_nonempty() {
        assert!(!BUILD_VERSION.is_empty());
        assert!(!BUILD_GIT.is_empty());
    }
}
