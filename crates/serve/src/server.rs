//! The TCP front end: a fixed worker pool sharing one listener.
//!
//! Concurrency model (DESIGN.md §14): `N` worker threads block on
//! `accept` against one shared `TcpListener` — the kernel load-balances
//! connections, no user-space queue needed — and each serves its
//! connection's requests in sequence. Connections are persistent by
//! HTTP/1.1 default: a worker keeps answering on the same socket until
//! the peer asks for `Connection: close`, the read times out, or the
//! per-connection request cap (`MAX_REQUESTS_PER_CONNECTION`, 1000) is
//! reached — the cap bounds how long one chatty peer can monopolize a
//! worker. All mutable service state lives behind the [`ServiceState`]
//! locks; the planner models themselves are immutable and
//! `Arc`-shared, so workers never contend on simulation data. A
//! panicking handler is caught per request and answered with a 500;
//! the worker survives.

use crate::api::{self, ApiResponse, ServiceState};
use crate::http::{read_request, write_response, ParseError};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default worker-thread count.
pub const DEFAULT_WORKERS: usize = 4;
/// How long a worker waits for a peer to send its request.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a worker waits for a peer to drain a response.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests served on one keep-alive connection before the server
/// closes it anyway, so one peer cannot pin a worker forever.
const MAX_REQUESTS_PER_CONNECTION: usize = 1000;

/// A running server: the bound address, its worker threads, and the
/// shared state. Dropping the handle does *not* stop the workers; call
/// [`Server::shutdown`] (tests) or [`Server::run_forever`] (the
/// binary).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// `workers` accept threads over the shared listener.
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error; no partial server is
    /// left running.
    pub fn start(state: ServiceState, addr: &str, workers: usize) -> io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(addr)?);
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..workers.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("tpu-serve-worker-{i}"))
                    .spawn(move || worker_loop(&listener, &state, &shutdown))
                    .map_err(io::Error::other)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            addr,
            state,
            shutdown,
            workers,
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (tests inspect cache stats through it).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Stops accepting, wakes every blocked worker, and joins them.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // One wake-up connection per worker unblocks every accept().
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.workers {
            let _ = handle.join();
        }
    }

    /// Parks the calling thread on the workers (the binary's serve
    /// mode: runs until the process is killed).
    pub fn run_forever(self) {
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

fn worker_loop(listener: &TcpListener, state: &ServiceState, shutdown: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        serve_connection(state, stream);
    }
}

/// Serves request/response exchanges on one connection until the peer
/// closes, asks for `Connection: close`, errors, or hits the request
/// cap. Transport errors are swallowed — the peer is gone, there is
/// nobody left to answer.
fn serve_connection(state: &ServiceState, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Request/response over a persistent connection: Nagle buys
    // nothing and costs a delayed-ACK round trip per exchange.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut out = Vec::new();
    for served in 1..=MAX_REQUESTS_PER_CONNECTION {
        match read_request(&mut reader) {
            Ok(req) => {
                let keep_alive = req.keep_alive && served < MAX_REQUESTS_PER_CONNECTION;
                // A handler panic (a precondition the validators
                // missed) must not take the worker down with it:
                // answer 500, keep serving. AssertUnwindSafe is sound
                // because all shared state is behind poison-recovering
                // locks holding only complete values (see cache.rs /
                // store.rs).
                let resp = catch_unwind(AssertUnwindSafe(|| api::handle(state, &req)))
                    .unwrap_or_else(|_| ApiResponse {
                        status: 500,
                        body: api::error_body(500, "internal", "handler panicked; see server log"),
                        x_cache: None,
                    });
                let x_cache = resp.x_cache.map(|v| ("X-Cache", v));
                let sent = send(
                    &mut writer,
                    &mut out,
                    resp.status,
                    &resp.body,
                    keep_alive,
                    x_cache.as_slice(),
                );
                if sent.is_err() || !keep_alive {
                    return;
                }
            }
            // The peer left between requests (health probes, shutdown
            // wake-ups, a drained keep-alive session): nothing to
            // answer.
            Err(ParseError::ConnectionClosed) => return,
            // Parse errors poison the stream framing; answer and drop.
            Err(e) => {
                let body = api::error_body(e.status(), e.code(), &e.to_string());
                let _ = send(&mut writer, &mut out, e.status(), &body, false, &[]);
                return;
            }
        }
    }
}

/// Formats one response into the connection's buffer `out`, reused from
/// response to response, and sends it with one write: two small writes
/// on a keep-alive socket would cost two segments and, under Nagle, the
/// peer's delayed ACK (~40 ms per response).
fn send(
    writer: &mut TcpStream,
    out: &mut Vec<u8>,
    status: u16,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    out.clear();
    write_response(out, status, body, keep_alive, extra_headers)?;
    writer.write_all(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::QueryCache;
    use crate::client;
    use crate::store::SpecStore;
    use tpu_spec::MachineSpec;

    fn test_server() -> Server {
        let store = SpecStore::in_memory();
        store.put("v4", &MachineSpec::v4()).unwrap();
        let state = ServiceState {
            store,
            cache: QueryCache::new(32),
        };
        Server::start(state, "127.0.0.1:0", 2).unwrap()
    }

    #[test]
    fn serves_health_over_tcp_and_shuts_down() {
        let server = test_server();
        let addr = server.local_addr();
        let resp = client::request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"ok\":true,\"specs\":1}\n");
        server.shutdown();
        // After shutdown the port no longer answers.
        assert!(client::request(addr, "GET", "/healthz", None).is_err());
    }

    #[test]
    fn malformed_requests_get_clean_errors_not_hangs() {
        use std::io::{Read, Write};
        let server = test_server();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
        server.shutdown();
    }
}
