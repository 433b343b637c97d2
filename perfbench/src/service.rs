//! The `service` stage: `idar-server` in-process on loopback with
//! `ServerConfig::default()`, driven by a closed loop over at most
//! `nproc` client connections.
//!
//! The seeded schedule mixes stateless `POST /v1/analyze` calls on a
//! zipf-popular pool of corpus forms with form-filling sessions
//! (open → (safe_updates → vet|submit)* → close). Each pass runs the
//! whole schedule against a freshly started server, so every pass sees
//! the same cache behaviour; the schedule is replayed once in-process at
//! set-up, which gives the reference `X-Verdict` of every request, and
//! again after every traced pass, which gives the in-process time of the
//! same requests.

use crate::trace::Tracer;
use crate::util::{ns_since, Latencies, Rng};
use idar_core::serialize::from_ron;
use idar_core::{GuardedForm, InstNodeId, Update};
use idar_server::http::{read_request, HttpLimits};
use idar_server::{verdict_tag, Server, ServerConfig};
use idar_solver::{analyze_with, split_threads, AnalysisKind, AnalysisRequest, VerdictCache};
use idar_workflow::manager::{FormManager, Rejection};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Forms in the zipf-popular pool: the first sampled corpus forms.
pub const POOL_FORMS: usize = 240;
/// Users issuing stateless analyses, and requests per such user.
pub const ANALYZE_USERS: usize = 32;
/// Requests per analysis user.
pub const ANALYZE_REQUESTS: usize = 40;
/// Users filling a form in a session, and edits per session.
pub const SESSION_USERS: usize = 32;
/// Size classes the session forms are drawn from, equally often: a
/// session on a large form makes a dozen slow requests, so leaving the
/// number of such sessions to chance would move the p99 from seed to
/// seed.
pub const SESSION_CLASSES: usize = 8;
/// Edits (safe_updates + vet or submit) per session.
pub const SESSION_EDITS: usize = 12;
/// Tenants users are spread over (zipf).
pub const TENANTS: usize = 4;
/// Zipf exponent of form popularity and tenant size.
pub const ZIPF_S: f64 = 1.0;
/// 429 responses absorbed per request before it counts as failed.
const MAX_RETRIES: u32 = 20;

/// What one user does.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Stateless analyses: `(pool form, kind)` per request.
    Analyze(Vec<(usize, AnalysisKind)>),
    /// A session on one pool form; `seed` drives the update picks.
    Session {
        /// Pool index of the form.
        form: usize,
        /// Edits before closing.
        edits: usize,
        /// Seed of the user's pick stream.
        seed: u64,
    },
}

/// One simulated user.
#[derive(Debug, Clone)]
pub struct User {
    /// `X-Tenant` of the user's session requests.
    pub tenant: String,
    /// The user's requests.
    pub plan: Plan,
}

/// The seeded schedule: the form pool (RON bodies) and the users.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Request bodies of the pool forms.
    pub pool: Vec<String>,
    /// Users, analysis and session users alternating.
    pub users: Vec<User>,
}

impl Schedule {
    /// The schedule of `seed` over `pool`, whose forms have `sizes`
    /// reachable states — a pure function of the three. Analyses pick
    /// pool forms by zipf popularity; sessions take the size classes in
    /// a seeded order and a random form of each class.
    pub fn new(seed: u64, pool: &[GuardedForm], sizes: &[usize]) -> Schedule {
        let mut rng = Rng::new(seed, 0x5E_4B1CE);
        let n = pool.len();
        let mut by_size: Vec<usize> = (0..n).collect();
        by_size.sort_by_key(|&i| (sizes[i], i));
        let mut classes: Vec<usize> = (0..SESSION_USERS).map(|j| j % SESSION_CLASSES).collect();
        shuffle(&mut rng, &mut classes);
        let mut classes = classes.into_iter();
        let pool: Vec<String> = pool.iter().map(idar_core::serialize::to_ron).collect();
        let mut users = Vec::new();
        for u in 0..ANALYZE_USERS.max(SESSION_USERS) {
            for analysis in [true, false] {
                let wanted = if analysis {
                    ANALYZE_USERS
                } else {
                    SESSION_USERS
                };
                if u >= wanted {
                    continue;
                }
                let tenant = format!("t{}", rng.zipf(TENANTS, ZIPF_S));
                let plan = if analysis {
                    Plan::Analyze(
                        (0..ANALYZE_REQUESTS)
                            .map(|_| {
                                let kind = if rng.below(4) == 0 {
                                    AnalysisKind::Semisoundness
                                } else {
                                    AnalysisKind::Completability
                                };
                                (rng.zipf(n, ZIPF_S), kind)
                            })
                            .collect(),
                    )
                } else {
                    let c = classes.next().expect("one class per session");
                    let class = &by_size[c * n / SESSION_CLASSES..(c + 1) * n / SESSION_CLASSES];
                    Plan::Session {
                        form: class[rng.below(class.len())],
                        edits: SESSION_EDITS,
                        seed: rng.next_u64(),
                    }
                };
                users.push(User { tenant, plan });
            }
        }
        Schedule { pool, users }
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle(rng: &mut Rng, v: &mut [usize]) {
    for j in (1..v.len()).rev() {
        v.swap(j, rng.below(j + 1));
    }
}

/// One request as the user issues it.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    /// `POST /v1/analyze?kind=…` with a pool form.
    Analyze(usize, AnalysisKind),
    /// `POST /v1/session` with a pool form.
    Open(usize),
    /// `GET /v1/session/{id}/safe_updates`.
    Safe,
    /// `POST /v1/session/{id}/vet` or `…/submit` with an update token.
    Act(&'static str, &'a str),
    /// `POST /v1/session/{id}/close`.
    Close,
}

/// What the user sees of a response.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// HTTP status (0 on a transport error).
    pub status: u16,
    /// The `X-Verdict` header.
    pub verdict: String,
    /// Update tokens of a `safe_updates` reply.
    pub tokens: Vec<String>,
}

/// Something that answers the user's requests: the server over HTTP,
/// or the same operations called in-process.
pub trait Transport {
    /// Forget the previous user's session.
    fn begin_user(&mut self, tenant: &str);
    /// Issue one request.
    fn send(&mut self, op: Op<'_>) -> Reply;
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// User index.
    pub user: usize,
    /// Request index within the user's stream.
    pub seq: usize,
    /// HTTP status.
    pub status: u16,
    /// `X-Verdict`.
    pub verdict: String,
    /// When the request was sent and answered.
    pub start: Instant,
    /// When the reply was complete.
    pub end: Instant,
}

impl Sample {
    /// Latency in nanoseconds.
    pub fn ns(&self) -> u64 {
        (self.end - self.start).as_nanos() as u64
    }
}

/// Run `users` in order over `t`, one request at a time.
pub fn drive(users: &[(usize, &User)], t: &mut dyn Transport, out: &mut Vec<Sample>) {
    for &(u, user) in users {
        t.begin_user(&user.tenant);
        let mut seq = 0;
        let mut issue = |t: &mut dyn Transport, op: Op<'_>| {
            let start = Instant::now();
            let reply = t.send(op);
            out.push(Sample {
                user: u,
                seq,
                status: reply.status,
                verdict: reply.verdict.clone(),
                start,
                end: Instant::now(),
            });
            seq += 1;
            reply
        };
        match &user.plan {
            Plan::Analyze(ops) => {
                for &(form, kind) in ops {
                    issue(t, Op::Analyze(form, kind));
                }
            }
            Plan::Session { form, edits, seed } => {
                let mut rng = Rng::new(*seed, 0xED17);
                issue(t, Op::Open(*form));
                for _ in 0..*edits {
                    let tokens = issue(t, Op::Safe).tokens;
                    if tokens.is_empty() {
                        continue;
                    }
                    let pick = &tokens[rng.below(tokens.len())];
                    let verb = if rng.below(3) == 0 { "vet" } else { "submit" };
                    issue(t, Op::Act(verb, pick));
                }
                issue(t, Op::Close);
            }
        }
    }
}

fn kind_name(kind: AnalysisKind) -> &'static str {
    match kind {
        AnalysisKind::Semisoundness => "semisoundness",
        AnalysisKind::Satisfiability => "satisfiability",
        AnalysisKind::Completability => "completability",
    }
}

/// The HTTP client: one connection per request (the server closes after
/// each response), 429s retried.
pub struct Http<'a> {
    addr: SocketAddr,
    pool: &'a [String],
    tenant: String,
    session: u64,
    /// Raw bytes of every request sent, when recording.
    pub recorded: Option<Vec<Vec<u8>>>,
}

impl<'a> Http<'a> {
    /// A client of the server at `addr`.
    pub fn new(addr: SocketAddr, pool: &'a [String], record: bool) -> Http<'a> {
        Http {
            addr,
            pool,
            tenant: String::new(),
            session: 0,
            recorded: record.then(Vec::new),
        }
    }

    fn exchange(&self, raw: &[u8]) -> std::io::Result<(u16, String, String)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        // A shedding server may close its read side early; its 429 is
        // on the wire regardless, so read whatever came back.
        let _ = stream.write_all(raw);
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp)?;
        let text = String::from_utf8_lossy(&resp);
        let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("bad status line"))?;
        let verdict = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-verdict"))
            .map_or_else(|| "-".to_string(), |(_, v)| v.trim().to_string());
        Ok((status, verdict, body.to_string()))
    }
}

impl Transport for Http<'_> {
    fn begin_user(&mut self, tenant: &str) {
        self.tenant = tenant.to_string();
        self.session = 0;
    }

    fn send(&mut self, op: Op<'_>) -> Reply {
        let s = self.session;
        let (method, path, body) = match op {
            Op::Analyze(f, kind) => (
                "POST",
                format!("/v1/analyze?kind={}", kind_name(kind)),
                self.pool[f].as_str(),
            ),
            Op::Open(f) => ("POST", "/v1/session".to_string(), self.pool[f].as_str()),
            Op::Safe => ("GET", format!("/v1/session/{s}/safe_updates"), ""),
            Op::Act(verb, token) => ("POST", format!("/v1/session/{s}/{verb}"), token),
            Op::Close => ("POST", format!("/v1/session/{s}/close"), ""),
        };
        let tenant = match op {
            Op::Analyze(..) => String::new(),
            _ => format!("X-Tenant: {}\r\n", self.tenant),
        };
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: idar\r\n{tenant}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        if let Some(rec) = &mut self.recorded {
            rec.push(raw.clone());
        }
        let mut retries = 0;
        loop {
            match self.exchange(&raw) {
                Ok((429, ..)) if retries < MAX_RETRIES => retries += 1,
                Ok((status, verdict, body)) => {
                    if matches!(op, Op::Open(_)) {
                        let digits: String = body
                            .chars()
                            .skip_while(|c| !c.is_ascii_digit())
                            .take_while(char::is_ascii_digit)
                            .collect();
                        self.session = digits.parse().unwrap_or(u64::MAX);
                    }
                    let tokens = if matches!(op, Op::Safe) {
                        body.split('"')
                            .filter(|t| t.starts_with("add ") || t.starts_with("del "))
                            .map(str::to_string)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    return Reply {
                        status,
                        verdict,
                        tokens,
                    };
                }
                Err(e) => {
                    return Reply {
                        status: 0,
                        verdict: format!("io-error: {e}"),
                        tokens: Vec::new(),
                    }
                }
            }
        }
    }
}

/// The same operations called in-process, with the server's budget,
/// policy, retention caps and explorer-thread grant, over one shared
/// verdict cache. Its verdict tags are the server's.
pub struct InProcess<'a> {
    pool: &'a [String],
    config: ServerConfig,
    inner_threads: usize,
    cache: Arc<VerdictCache>,
    manager: Option<FormManager>,
    /// Time of every `FormManager::safe_updates` call, in µs.
    pub safe_updates_us: Vec<f64>,
}

impl<'a> InProcess<'a> {
    /// An in-process twin of a fresh server with `config`.
    pub fn new(pool: &'a [String], config: ServerConfig) -> InProcess<'a> {
        let inner_threads = split_threads(config.threads, config.concurrency).1;
        InProcess {
            pool,
            config,
            inner_threads,
            cache: Arc::new(VerdictCache::new()),
            manager: None,
            safe_updates_us: Vec::new(),
        }
    }

    fn encode(&self, u: &Update) -> String {
        let m = self.manager.as_ref().expect("open session");
        match u {
            Update::Add { parent, edge } => {
                format!("add {} {}", parent.0, m.form().schema().path_of(*edge))
            }
            Update::Del { node } => format!("del {}", node.0),
        }
    }

    fn decode(&self, token: &str) -> Option<Update> {
        let m = self.manager.as_ref()?;
        let mut parts = token.split_whitespace();
        match (parts.next()?, parts.next()?.parse().ok()?) {
            ("add", parent) => Some(Update::Add {
                parent: InstNodeId(parent),
                edge: m.form().schema().resolve(parts.next()?).ok()?,
            }),
            ("del", node) => Some(Update::Del {
                node: InstNodeId(node),
            }),
            _ => None,
        }
    }
}

fn reply(verdict: impl Into<String>) -> Reply {
    Reply {
        status: 200,
        verdict: verdict.into(),
        ..Reply::default()
    }
}

impl Transport for InProcess<'_> {
    fn begin_user(&mut self, _tenant: &str) {
        self.manager = None;
    }

    fn send(&mut self, op: Op<'_>) -> Reply {
        match op {
            Op::Analyze(f, kind) => {
                let form = from_ron(&self.pool[f]).expect("pool forms parse");
                let req = AnalysisRequest::new(form, kind)
                    .with_budget(self.config.budget.clone())
                    .with_threads(self.inner_threads);
                reply(verdict_tag(analyze_with(&req, Some(&self.cache)).verdict))
            }
            Op::Open(f) => {
                let form = from_ron(&self.pool[f]).expect("pool forms parse");
                let mut m = FormManager::new(form, self.config.budget.clone(), self.config.policy)
                    .with_cache(Arc::clone(&self.cache))
                    .with_threads(self.inner_threads)
                    .with_max_retained_states(self.config.max_retained_states);
                if let Some(bytes) = self.config.max_retained_bytes {
                    m = m.with_max_retained_bytes(bytes);
                }
                self.manager = Some(m);
                reply("opened")
            }
            Op::Safe => {
                let Some(m) = self.manager.as_ref() else {
                    return Reply::default();
                };
                let t = Instant::now();
                let safe = m.safe_updates();
                self.safe_updates_us.push(ns_since(t) as f64 / 1e3);
                let tokens: Vec<String> = safe.iter().map(|u| self.encode(u)).collect();
                Reply {
                    verdict: format!("safe:{}", tokens.len()),
                    tokens,
                    ..reply("")
                }
            }
            Op::Act(verb, token) => {
                let (Some(u), Some(m)) = (self.decode(token), self.manager.as_mut()) else {
                    return Reply::default();
                };
                let outcome = if verb == "submit" {
                    m.submit(u)
                } else {
                    m.vet(&u)
                };
                match outcome {
                    Ok(()) if m.is_complete() => reply("ok-complete"),
                    Ok(()) => reply("ok"),
                    Err(Rejection::NotAllowed) => reply("not-allowed"),
                    Err(Rejection::WouldStrand) => reply("would-strand"),
                    Err(Rejection::Undecided) => reply("undecided"),
                }
            }
            Op::Close => {
                self.manager = None;
                reply("closed")
            }
        }
    }
}

/// The in-process replay of a schedule: reference verdicts and
/// in-process times of every request.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `(user, seq, verdict)` of every request, in schedule order.
    pub verdicts: Vec<(usize, usize, String)>,
    /// Mean in-process time per request, ns.
    pub mean_ns: f64,
    /// `FormManager::safe_updates` times, µs.
    pub safe_updates_us: Vec<f64>,
}

/// Replay `sched` in-process against a fresh twin of the default server.
pub fn reference(sched: &Schedule) -> Reference {
    let mut t = InProcess::new(&sched.pool, ServerConfig::default());
    let users: Vec<(usize, &User)> = sched.users.iter().enumerate().collect();
    let mut samples = Vec::new();
    drive(&users, &mut t, &mut samples);
    let total: u64 = samples.iter().map(Sample::ns).sum();
    Reference {
        mean_ns: total as f64 / samples.len().max(1) as f64,
        verdicts: samples
            .into_iter()
            .map(|s| (s.user, s.seq, s.verdict))
            .collect(),
        safe_updates_us: t.safe_updates_us,
    }
}

/// FNV-1a digest of a verdict vector, printed so two runs of one seed
/// can be compared.
pub fn digest(verdicts: &[(usize, usize, String)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (u, s, v) in verdicts {
        for b in format!("{u}/{s}/{v};").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Everything the stage measured in one run.
#[derive(Debug, Default)]
pub struct Results {
    /// Requests per second of each pass.
    pub pass_rate: Vec<f64>,
    /// Latency of every request of every pass.
    pub latency: Latencies,
    /// Verdict-cache hit ratio of each pass.
    pub cache_hit_ratio: Vec<f64>,
    /// Session graph-hit ratio of each pass.
    pub graph_hit_ratio: Vec<f64>,
    /// Session oracle calls solved cold, per pass.
    pub cold_solves: Vec<f64>,
    /// Connections shed with 429, per pass.
    pub shed: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// Verdict-vector digest of the last pass.
    pub digest: u64,
    /// `http::read_request` on the recorded request bytes, µs each.
    pub read_request_us: Vec<f64>,
    /// `from_ron` on the request bodies, µs each.
    pub from_ron_us: Vec<f64>,
    /// `FormManager::safe_updates` in the in-process replays, µs each.
    pub safe_updates_us: Vec<f64>,
    /// Mean client latency minus mean in-process time per request, µs,
    /// one value per traced pass.
    pub overhead_us: Vec<f64>,
}

/// Load accounting of a service pass.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Client connections (closed loop).
    pub clients: usize,
    /// `ServerConfig::threads`.
    pub server_threads: usize,
    /// HTTP workers.
    pub workers: usize,
    /// Explorer threads granted per request.
    pub inner_threads: usize,
}

/// The load of the default server driven by `clients` connections.
pub fn load(clients: usize) -> Load {
    let c = ServerConfig::default();
    let (workers, inner_threads) = split_threads(c.threads, c.concurrency);
    Load {
        clients,
        server_threads: c.threads,
        workers,
        inner_threads,
    }
}

/// Start a default server on an ephemeral loopback port.
pub fn start() -> idar_server::ServerHandle {
    Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind a loopback port")
}

/// One pass: the whole schedule over `clients` connections against a
/// fresh server, every verdict checked against `reference`. Traced
/// passes also replay the request parsing layers and record spans.
pub fn pass(
    sched: &Schedule,
    reference: &Reference,
    clients: usize,
    res: &mut Results,
    tracer: Option<&mut Tracer>,
) {
    let handle = start();
    let addr = handle.addr();
    let record = tracer.is_some();
    let t = Instant::now();
    let outputs: Vec<(Vec<Sample>, Vec<Vec<u8>>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let mine: Vec<(usize, &User)> = sched
                    .users
                    .iter()
                    .enumerate()
                    .filter(|(u, _)| u % clients == c)
                    .collect();
                let pool = &sched.pool;
                scope.spawn(move || {
                    let mut http = Http::new(addr, pool, record);
                    let mut samples = Vec::new();
                    drive(&mine, &mut http, &mut samples);
                    (samples, http.recorded.unwrap_or_default())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = ns_since(t);
    let cache = handle.cache().stats();
    let finals = handle.shutdown();

    let (mut samples, raw): (Vec<Sample>, Vec<Vec<u8>>) =
        outputs
            .into_iter()
            .fold((Vec::new(), Vec::new()), |(mut s, mut r), (s2, r2)| {
                s.extend(s2);
                r.extend(r2);
                (s, r)
            });
    samples.sort_by_key(|s| (s.user, s.seq));
    res.requests += samples.len() as u64;
    res.pass_rate
        .push(samples.len() as f64 / (wall as f64 / 1e9));
    for s in &samples {
        res.latency.push_ns(s.ns());
    }
    let lookups = cache.hits + cache.misses;
    res.cache_hit_ratio
        .push(cache.hits as f64 / lookups.max(1) as f64);
    res.graph_hit_ratio.push(finals.graph_hit_rate());
    res.cold_solves.push(finals.cold_solves as f64);
    res.shed.push(finals.shed as f64);

    let got: Vec<(usize, usize, String)> = samples
        .iter()
        .map(|s| (s.user, s.seq, s.verdict.clone()))
        .collect();
    res.digest = digest(&got);
    if got != reference.verdicts {
        let first = got
            .iter()
            .zip(&reference.verdicts)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{a:?} != in-process {b:?}"))
            .unwrap_or_else(|| {
                format!(
                    "{} replies for {} requests",
                    got.len(),
                    reference.verdicts.len()
                )
            });
        res.failures
            .push(format!("service verdicts diverge: {first}"));
    }
    for s in samples.iter().filter(|s| s.status != 200) {
        res.failures.push(format!(
            "service request {}/{} answered {} {}",
            s.user, s.seq, s.status, s.verdict
        ));
    }
    if finals.accepted != finals.completed || finals.bad_requests != 0 {
        res.failures.push(format!(
            "server drain: accepted {} completed {} bad {}",
            finals.accepted, finals.completed, finals.bad_requests
        ));
    }

    if let Some(tr) = tracer {
        // The in-process twin right after the HTTP pass, so both run at
        // the same host speed.
        let twin = self::reference(sched);
        let client_ns: u64 = samples.iter().map(Sample::ns).sum();
        let client_mean = client_ns as f64 / samples.len().max(1) as f64;
        res.overhead_us.push((client_mean - twin.mean_ns) / 1e3);
        res.safe_updates_us.extend(&twin.safe_updates_us);
        if twin.verdicts != reference.verdicts {
            res.failures
                .push("the in-process replay does not repeat its verdicts".to_string());
        }
        let pass_id = res.pass_rate.len() as u64;
        for s in &samples {
            let id = (pass_id << 40) | ((s.user as u64) << 20) | s.seq as u64;
            tr.record("service.request", None, id, s.start, s.end);
        }
        let limits = HttpLimits::default();
        for (n, bytes) in raw.iter().enumerate() {
            let (parsed, ns) = tr.time("http.read_request", None, n as u64, || {
                read_request(&mut &bytes[..], &limits)
            });
            res.read_request_us.push(ns as f64 / 1e3);
            let Ok(req) = parsed else {
                res.failures
                    .push(format!("recorded request {n} does not parse"));
                continue;
            };
            if req.path == "/v1/session" || req.path == "/v1/analyze" {
                let (form, ns) =
                    tr.time("serialize.from_ron", None, n as u64, || from_ron(&req.body));
                res.from_ron_us.push(ns as f64 / 1e3);
                if form.is_err() {
                    res.failures
                        .push(format!("recorded body {n} is not a form"));
                }
            }
        }
    }
}
