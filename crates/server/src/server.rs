//! The service runtime: listener, admission control, bounded worker
//! pool, and graceful shutdown.
//!
//! Request lifecycle:
//!
//! ```text
//!   accept ──► admission (bounded queue) ──full──► 429 + Retry-After
//!      │
//!      ▼ admitted
//!   worker pool (min(threads, concurrency) workers)
//!      │  parse ── bad ──► 4xx
//!      ▼
//!   dispatch (routes): tenant ► session ► analyze (Budget-bounded)
//!      │                         │
//!      │                         └── process-wide VerdictCache
//!      ▼
//!   response (verdict + cache provenance) ──► Connection: close
//! ```
//!
//! **Admission control** is two-layered: the bounded connection queue
//! sheds excess load *before* the request is parsed or dispatched (a
//! shed request can therefore never touch — let alone partially mutate —
//! a tenant session), and every admitted analysis runs under the server's
//! [`Budget`], so one request can never hold a worker beyond the
//! configured exploration bounds.
//!
//! **Shutdown** is a drain, not an abort: the acceptor stops admitting,
//! queued connections are still served, in-flight analyses complete, and
//! [`ServerHandle::shutdown`] returns only when `accepted == completed`.

use crate::http::{read_request, HttpLimits, RecvError, Response};
use crate::routes;
use crate::state::{Gate, Metrics, MetricsSnapshot, Tenants};
use idar_solver::{split_threads, Budget, ExploreLimits, VerdictCache};
use idar_workflow::manager::UnknownPolicy;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Stack size of every `idar-worker-*` thread. The recursive walkers
/// over a parsed form (formula evaluation, simplification, normal forms,
/// Tseitin, canonical encoding) nest as deep as their input, which the
/// parsers cap at [`idar_core::MAX_NESTING`]; the workers get an explicit
/// stack with headroom for that depth instead of the platform's default.
const WORKER_STACK_BYTES: usize = 8 * 1024 * 1024;

/// Server tuning knobs. The defaults suit the bench container: a small
/// worker pool, a queue a few bursts deep, and the oracle budget every
/// PR-4 pipeline consumer uses for interactive vetting.
#[derive(Clone)]
pub struct ServerConfig {
    /// Thread budget of the HTTP worker pool. Defaults to
    /// `default_threads().max(2)` — even a 1-core host wants two
    /// workers, since they are mostly I/O-bound.
    pub threads: usize,
    /// Target concurrent requests; the pool gets
    /// `min(threads, concurrency)` workers ([`split_threads`]), each
    /// running one single-threaded analysis at a time.
    pub concurrency: usize,
    /// Admitted-but-unclaimed connections beyond this are shed with 429.
    pub queue_capacity: usize,
    /// The analysis budget every request runs under — the admission
    /// contract that bounds per-request work. Also the cache-key budget
    /// component, so all tenants with identical rule sets share entries.
    pub budget: Budget,
    /// What session vetting does with `Unknown` oracle verdicts.
    pub policy: UnknownPolicy,
    /// Per-session memory budget for incremental re-analysis: a session
    /// whose retained state graph grows beyond this many states evicts
    /// it (retracting the entries it published to the shared cache) and
    /// falls back to cold solves, so many long-lived sessions cannot pin
    /// unbounded RAM.
    pub max_retained_states: usize,
    /// Byte-denominated counterpart of `max_retained_states`: a session
    /// whose retained graph exceeds this many approximate resident bytes
    /// is evicted the same way (both caps apply). `None` keeps the
    /// state-count cap only.
    pub max_retained_bytes: Option<usize>,
    /// Value of the `Retry-After` header (seconds) on 429 responses.
    pub retry_after_secs: u32,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Request size bounds.
    pub http_limits: HttpLimits,
    /// Load-shedding test instrument (see [`Gate`]); `None` in
    /// production configs.
    pub gate: Option<Arc<Gate>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let threads = idar_solver::default_threads().max(2);
        ServerConfig {
            threads,
            concurrency: threads,
            queue_capacity: 64,
            budget: Budget::with_limits(ExploreLimits {
                multiplicity_cap: Some(1),
                max_states: 20_000,
                ..ExploreLimits::small()
            }),
            policy: UnknownPolicy::Reject,
            max_retained_states: 65_536,
            max_retained_bytes: Some(256 * 1024 * 1024),
            retry_after_secs: 1,
            io_timeout: Duration::from_secs(10),
            http_limits: HttpLimits::default(),
            gate: None,
        }
    }
}

/// Everything the acceptor, the workers and the handle share.
pub(crate) struct Shared {
    pub config: ServerConfig,
    pub queue: Mutex<QueueState>,
    pub queue_cv: Condvar,
    pub tenants: Tenants,
    pub cache: Arc<VerdictCache>,
    pub metrics: Metrics,
}

pub(crate) struct QueueState {
    pub conns: VecDeque<TcpStream>,
    pub shutdown: bool,
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// acceptor and worker threads. The returned handle owns them.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (workers, _) = split_threads(config.threads, config.concurrency);
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(QueueState {
                conns: VecDeque::new(),
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            tenants: Tenants::new(),
            cache: Arc::new(VerdictCache::new()),
            metrics: Metrics::default(),
        });

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("idar-worker-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("idar-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))?
        };

        Ok(ServerHandle {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }
}

/// Owns the running server; dropping it without [`ServerHandle::shutdown`]
/// (`ServerHandle::shutdown`) aborts the drain (threads are detached).
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(&self.shared.tenants)
    }

    /// The process-wide verdict cache (shared by every tenant, keyed by
    /// rules signature — identical rule sets share entries across
    /// tenants).
    pub fn cache(&self) -> &Arc<VerdictCache> {
        &self.shared.cache
    }

    /// Graceful shutdown: stop admitting, serve everything already
    /// admitted (queued and in-flight), join all threads, and return the
    /// final counters. The drain invariant `accepted == completed` holds
    /// on the returned snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            q.shutdown = true;
        }
        self.shared.queue_cv.notify_all();
        // Unblock the acceptor's blocking accept() with a wake
        // connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.metrics()
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.queue.lock().expect("queue poisoned").shutdown {
                    return;
                }
                continue;
            }
        };
        let mut q = shared.queue.lock().expect("queue poisoned");
        if q.shutdown {
            // The wake connection (or a straggler racing shutdown):
            // refuse politely without admitting.
            drop(q);
            refuse(
                stream,
                Response::json(503, "{\"error\":\"shutting down\"}"),
                shared.config.io_timeout,
            );
            return;
        }
        if q.conns.len() >= shared.config.queue_capacity {
            // Shed at admission, before the request is parsed or
            // dispatched: a shed request cannot have touched any server
            // state.
            drop(q);
            shared.metrics.shed.fetch_add(1, Ordering::SeqCst);
            refuse(
                stream,
                Response::json(429, "{\"error\":\"overloaded\"}")
                    .header("Retry-After", shared.config.retry_after_secs.to_string()),
                shared.config.io_timeout,
            );
            continue;
        }
        shared.metrics.accepted.fetch_add(1, Ordering::SeqCst);
        q.conns.push_back(stream);
        drop(q);
        shared.queue_cv.notify_one();
    }
}

/// Write a refusal response, then perform a lingering close: FIN our
/// side and drain whatever request bytes the peer is still sending.
/// Closing with unread data in the receive buffer makes TCP send RST,
/// which can destroy the refusal in flight — exactly the race a client
/// retrying on 429 must not see. The drained bytes are discarded, never
/// parsed.
fn refuse(mut stream: TcpStream, response: Response, timeout: Duration) {
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    while matches!(io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(s) = q.conns.pop_front() {
                    break Some(s);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.queue_cv.wait(q).expect("queue poisoned");
            }
        };
        let Some(mut stream) = stream else {
            return;
        };
        handle_connection(shared, &mut stream);
        shared.metrics.completed.fetch_add(1, Ordering::SeqCst);
    }
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_nodelay(true);
    let response = match read_request(stream, &shared.config.http_limits) {
        Ok(request) => {
            if let Some(gate) = &shared.config.gate {
                gate.pass();
            }
            routes::dispatch(shared, &request)
        }
        Err(RecvError::Closed) | Err(RecvError::Io(_)) => return, // peer gone; nothing to say
        Err(RecvError::Malformed(msg)) => Response::json(
            400,
            format!("{{\"error\":\"{}\"}}", crate::http::json_escape(&msg)),
        ),
        Err(RecvError::TooLarge) => Response::json(413, "{\"error\":\"request too large\"}"),
    };
    // Any non-2xx other than admission shedding is a protocol-level
    // failure (read errors and dispatch errors alike).
    if !(200..300).contains(&response.status) && response.status != 429 {
        shared.metrics.bad_requests.fetch_add(1, Ordering::SeqCst);
    }
    let _ = response.write_to(stream);
}
