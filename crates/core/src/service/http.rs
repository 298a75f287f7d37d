//! A dependency-free HTTP/1.1 observation surface.
//!
//! Four read-only routes — `/metrics` (Prometheus text), `/status`
//! (JSON), `/events` (JSON), `/healthz` — served straight off
//! `std::net::TcpListener`. One request per connection, bounded reads,
//! short timeouts: the surface can be poked by curl or a scraper but
//! can never wedge the daemon.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the HTTP surface renders. Implemented by the CLI over
/// [`ServeShared`](super::daemon::ServeShared) so the core server stays
/// agnostic of output formatting.
pub trait ServeView: Send + Sync {
    /// Prometheus text exposition for `/metrics`.
    fn metrics(&self) -> String;
    /// JSON document for `/status`.
    fn status_json(&self) -> String;
    /// JSON array for `/events`.
    fn events_json(&self) -> String;
    /// Health for `/healthz`: `(healthy, body)`. Unhealthy renders 503
    /// so load balancers and the CI smoke test can gate on the code.
    fn healthz(&self) -> (bool, String);
    /// JSON evidence record for `GET /events/{id}/explain`; `None`
    /// (rendered 404) when the id is unknown or the evidence tier kept
    /// no record for it. Default: no evidence surface.
    fn explain_json(&self, _id: &str) -> Option<String> {
        None
    }
}

/// The running server; dropping or calling [`HttpServer::shutdown`]
/// stops the accept loop.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `view` on a background thread.
    pub fn bind<A: ToSocketAddrs>(addr: A, view: Arc<dyn ServeView>) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("po-http".to_string())
            .spawn(move || accept_loop(listener, view, &stop2))?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, view: Arc<dyn ServeView>, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Requests are tiny and the routes render from memory;
                // serving inline keeps the thread count at one.
                let _ = serve_connection(stream, view.as_ref());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Extract the event id from a `/events/{id}/explain` path. The id
/// itself contains a slash (`192.0.2.0/24@START`), so this matches the
/// fixed prefix and suffix and takes everything between, after
/// percent-decoding (curl-encoded `%2F` works too).
fn explain_id(path: &str) -> Option<String> {
    let id = path.strip_prefix("/events/")?.strip_suffix("/explain")?;
    if id.is_empty() {
        return None;
    }
    Some(percent_decode(id))
}

/// Minimal percent-decoding: `%XX` hex pairs become bytes; anything
/// malformed passes through untouched.
fn percent_decode(s: &str) -> String {
    fn hex(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                out.push(hi << 4 | lo);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Read the request head (bounded), route it, write one response.
fn serve_connection(mut stream: TcpStream, view: &dyn ServeView) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(2_000)))?;
    stream.set_nonblocking(false)?;

    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8_192 {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        }
    }

    let (code, reason, ctype, body) = respond(&buf, view);
    let response = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Route a request head — whatever bytes the connection delivered,
/// however cut short or damaged — to its status code, reason, content
/// type and body. Pure and total: the method and path are the first two
/// whitespace-separated words of the head read as (lossy) UTF-8, and
/// every input maps to 200, 404, 405 or (an unhealthy `/healthz`) 503.
fn respond(head: &[u8], view: &dyn ServeView) -> (u16, &'static str, &'static str, String) {
    let head = String::from_utf8_lossy(head);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    if method != "GET" {
        return (
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET here\n".to_string(),
        );
    }
    match path {
        "/metrics" => (200, "OK", "text/plain; version=0.0.4", view.metrics()),
        "/status" => (200, "OK", "application/json", view.status_json()),
        "/events" => (200, "OK", "application/json", view.events_json()),
        "/healthz" => {
            let (healthy, body) = view.healthz();
            if healthy {
                (200, "OK", "application/json", body)
            } else {
                (503, "Service Unavailable", "application/json", body)
            }
        }
        _ => match explain_id(path) {
            Some(id) => match view.explain_json(&id) {
                Some(body) => (200, "OK", "application/json", body),
                None => (
                    404,
                    "Not Found",
                    "text/plain",
                    "no evidence for that event (unknown id, or evidence tier off)\n".to_string(),
                ),
            },
            None => (
                404,
                "Not Found",
                "text/plain",
                "unknown route\n".to_string(),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeView {
        healthy: bool,
    }

    impl ServeView for FakeView {
        fn metrics(&self) -> String {
            "po_up 1\n".to_string()
        }
        fn status_json(&self) -> String {
            "{\"live\":true}".to_string()
        }
        fn events_json(&self) -> String {
            "[]".to_string()
        }
        fn healthz(&self) -> (bool, String) {
            (self.healthy, "{\"ok\":true}".to_string())
        }
        fn explain_json(&self, id: &str) -> Option<String> {
            (id == "192.0.2.0/24@30010").then(|| format!("{{\"id\":\"{id}\"}}"))
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let code = out
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = out.split("\r\n\r\n").nth(1).unwrap_or_default().to_string();
        (code, body)
    }

    /// Every truncation offset and every single-bit flip of a request
    /// for each route, against a healthy and an unhealthy view: each
    /// head gets one of the defined responses (503 only from the
    /// unhealthy view), and never a panic.
    #[test]
    fn every_truncation_and_bit_flip_of_a_request_head_is_answered() {
        let requests = [
            ("GET /metrics", 200),
            ("GET /status?pretty=1", 200),
            ("GET /events", 200),
            ("GET /healthz", 200),
            ("GET /events/192.0.2.0%2F24@30010/explain", 200),
            ("GET /events/192.0.2.0/24%4030010/explain", 200),
            ("GET /events/10.0.0.0%2F8@99/explain", 404),
            ("GET /nope", 404),
            ("POST /metrics", 405),
        ];
        let mut seen = std::collections::BTreeMap::new();
        for healthy in [true, false] {
            let view = FakeView { healthy };
            let check = |head: &[u8], seen: &mut std::collections::BTreeMap<u16, usize>| {
                let code = respond(head, &view).0;
                assert!(
                    matches!(code, 200 | 404 | 405) || (code == 503 && !healthy),
                    "{:?} gave {code}",
                    String::from_utf8_lossy(head),
                );
                *seen.entry(code).or_insert(0) += 1;
            };
            for (line, code) in requests {
                let req = format!("{line} HTTP/1.1\r\nHost: x\r\n\r\n").into_bytes();
                let want = if line == "GET /healthz" && !healthy {
                    503
                } else {
                    code
                };
                assert_eq!(respond(&req, &view).0, want, "{line}");
                for cut in 0..=req.len() {
                    check(&req[..cut], &mut seen);
                }
                for byte in 0..req.len() {
                    for bit in 0..8 {
                        let mut m = req.clone();
                        m[byte] ^= 1 << bit;
                        check(&m, &mut seen);
                    }
                }
            }
        }
        assert_eq!(
            seen.keys().copied().collect::<Vec<_>>(),
            [200, 404, 405, 503]
        );
    }

    #[test]
    fn routes_render_their_views() {
        let srv = HttpServer::bind("127.0.0.1:0", Arc::new(FakeView { healthy: true })).unwrap();
        let addr = srv.local_addr();
        assert_eq!(get(addr, "/metrics"), (200, "po_up 1\n".to_string()));
        assert_eq!(get(addr, "/status"), (200, "{\"live\":true}".to_string()));
        assert_eq!(get(addr, "/events"), (200, "[]".to_string()));
        assert_eq!(get(addr, "/healthz").0, 200);
        assert_eq!(get(addr, "/nope").0, 404);
        srv.shutdown();
    }

    #[test]
    fn explain_route_matches_ids_with_slashes() {
        let srv = HttpServer::bind("127.0.0.1:0", Arc::new(FakeView { healthy: true })).unwrap();
        let addr = srv.local_addr();
        let want = (200, "{\"id\":\"192.0.2.0/24@30010\"}".to_string());
        assert_eq!(get(addr, "/events/192.0.2.0/24@30010/explain"), want);
        // percent-encoded form resolves to the same record
        assert_eq!(get(addr, "/events/192.0.2.0%2F24%4030010/explain"), want);
        assert_eq!(get(addr, "/events/10.0.0.0/8@99/explain").0, 404);
        assert_eq!(get(addr, "/events//explain").0, 404);
        srv.shutdown();
    }

    #[test]
    fn unhealthy_renders_503() {
        let srv = HttpServer::bind("127.0.0.1:0", Arc::new(FakeView { healthy: false })).unwrap();
        assert_eq!(get(srv.local_addr(), "/healthz").0, 503);
        srv.shutdown();
    }

    #[test]
    fn non_get_is_405_and_query_strings_are_ignored() {
        let srv = HttpServer::bind("127.0.0.1:0", Arc::new(FakeView { healthy: true })).unwrap();
        let addr = srv.local_addr();
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        assert_eq!(get(addr, "/status?pretty=1").0, 200);
        srv.shutdown();
    }
}
