//! Request dispatch: the service API surface.
//!
//! | method & path                     | body            | meaning |
//! |-----------------------------------|-----------------|---------|
//! | `GET  /healthz`                   | —               | liveness |
//! | `GET  /metrics`                   | —               | counters + cache stats |
//! | `POST /v1/analyze?kind=K`         | form (RON)      | stateless pipeline run (K ∈ completability, semisoundness, satisfiability) |
//! | `POST /v1/session`                | form (RON)      | open a tenant session, returns its id |
//! | `GET  /v1/session/{id}`           | —               | live instance + completion state |
//! | `GET  /v1/session/{id}/safe_updates` | —            | the updates the manager would accept |
//! | `POST /v1/session/{id}/vet`       | update (text)   | vet without applying |
//! | `POST /v1/session/{id}/submit`    | update (text)   | vet and apply |
//! | `POST /v1/session/{id}/close`     | —               | drop the session |
//!
//! Session routes require an `X-Tenant` header. Update bodies use the
//! line format `add <parent-node-id> <schema-path>` / `del <node-id>`
//! — exactly what `safe_updates` returns, so clients can treat update
//! strings as opaque tokens.
//!
//! Every analysis-bearing response carries `X-Verdict` (the
//! deterministic outcome — the load generator's cross-run determinism
//! check compares these) and `X-Cache` (provenance — *not* deterministic
//! under concurrency and excluded from that check). On `/v1/analyze` the
//! provenance is `hit`/`miss`/`uncached` (the shared verdict cache); on
//! session routes it is the dominant re-analysis path of the operation's
//! oracle calls — `graph-hit` (answered from the session's retained
//! state graph), `frontier-extend` (resumed exploration from a retained
//! state), `cold` (full re-analysis), or `none` (no oracle ran).
//! `/v1/analyze` additionally carries `X-Method` — which algorithm
//! produced the verdict (e.g. `static-screen` when the pre-exploration
//! screener decided the problem with zero states expanded); the
//! `static_screens` counter in `/metrics` tallies those.

use crate::http::{json_escape, Request, Response};
use crate::server::Shared;
use idar_core::serialize::from_ron;
use idar_core::{GuardedForm, InstNodeId, Update};
use idar_solver::{analyze_with, AnalysisKind, AnalysisRequest, Verdict};
use idar_workflow::manager::{FormManager, RecomputeStats, Rejection};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Route a parsed request to its handler.
pub(crate) fn dispatch(shared: &Shared, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(200, "{\"ok\":true}"),
        ("GET", ["metrics"]) => metrics(shared),
        ("POST", ["v1", "analyze"]) => analyze(shared, req),
        ("POST", ["v1", "session"]) => open_session(shared, req),
        ("GET", ["v1", "session", id]) => with_session(shared, req, id, session_info),
        ("GET", ["v1", "session", id, "safe_updates"]) => {
            with_session(shared, req, id, safe_updates)
        }
        ("POST", ["v1", "session", id, "vet"]) => {
            with_session(shared, req, id, |s, r| vet_or_submit(s, r, false))
        }
        ("POST", ["v1", "session", id, "submit"]) => {
            with_session(shared, req, id, |s, r| vet_or_submit(s, r, true))
        }
        ("POST", ["v1", "session", id, "close"]) => close_session(shared, req, id),
        ("GET" | "POST", _) => Response::json(404, "{\"error\":\"no such route\"}"),
        _ => Response::json(405, "{\"error\":\"method not allowed\"}"),
    }
}

fn metrics(shared: &Shared) -> Response {
    let m = shared.metrics.snapshot(&shared.tenants);
    let c = shared.cache.stats();
    Response::json(
        200,
        format!(
            "{{\"accepted\":{},\"shed\":{},\"completed\":{},\"bad_requests\":{},\
             \"sessions_opened\":{},\"tenants\":{},\"sessions\":{},\
             \"graph_hits\":{},\"frontier_extends\":{},\"cold_solves\":{},\
             \"graph_hit_rate\":{:.4},\
             \"retained_states\":{},\"retained_bytes\":{},\
             \"graph_evictions\":{},\"evicted_bytes\":{},\
             \"static_screens\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{:.4}}}",
            m.accepted,
            m.shed,
            m.completed,
            m.bad_requests,
            m.sessions_opened,
            m.tenants,
            m.sessions,
            m.graph_hits,
            m.frontier_extends,
            m.cold_solves,
            m.graph_hit_rate(),
            m.retained_states,
            m.retained_bytes,
            m.graph_evictions,
            m.evicted_bytes,
            m.static_screens,
            c.hits,
            c.misses,
            c.hit_rate(),
        ),
    )
}

/// Parse the RON form body, or produce the 400.
fn parse_form(body: &str) -> Result<GuardedForm, Response> {
    from_ron(body).map_err(|e| {
        Response::json(
            400,
            format!(
                "{{\"error\":\"bad form: {}\"}}",
                json_escape(&e.to_string())
            ),
        )
    })
}

fn analyze(shared: &Shared, req: &Request) -> Response {
    let kind = match req.query("kind").unwrap_or("completability") {
        "completability" => AnalysisKind::Completability,
        "semisoundness" => AnalysisKind::Semisoundness,
        "satisfiability" => AnalysisKind::Satisfiability,
        other => {
            return Response::json(
                400,
                format!("{{\"error\":\"unknown kind {}\"}}", json_escape(other)),
            )
        }
    };
    let form = match parse_form(&req.body) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    let request = AnalysisRequest::new(form, kind).with_budget(shared.config.budget.clone());
    let report = analyze_with(&request, Some(&shared.cache));
    // Count only requests the screener itself decided (`screen` is `None`
    // on cache hits, where the method is merely replayed from the entry).
    if report.method == idar_solver::Method::StaticScreen && report.screen.is_some() {
        shared.metrics.static_screens.fetch_add(1, Ordering::SeqCst);
    }
    let verdict = report.verdict.to_string();
    let cache = report.cache.to_string();
    let method = report.method.to_string();
    Response::json(
        200,
        format!(
            "{{\"kind\":\"{}\",\"fragment\":\"{}\",\"verdict\":\"{}\",\"method\":\"{}\",\
             \"cache\":\"{}\",\"states\":{}}}",
            report.kind,
            json_escape(&report.fragment.to_string()),
            verdict,
            json_escape(&method),
            cache,
            report.stats.states,
        ),
    )
    .header("X-Verdict", verdict)
    .header("X-Cache", cache)
    .header("X-Method", method)
}

/// The `X-Tenant` header, or the 400 telling the client it is required.
fn tenant_name(req: &Request) -> Result<&str, Response> {
    match req.header("x-tenant") {
        Some(t) if !t.is_empty() && t.len() <= 64 => Ok(t),
        Some(_) => Err(Response::json(
            400,
            "{\"error\":\"tenant name must be 1..=64 bytes\"}",
        )),
        None => Err(Response::json(
            400,
            "{\"error\":\"session routes require an X-Tenant header\"}",
        )),
    }
}

fn open_session(shared: &Shared, req: &Request) -> Response {
    let tenant_name = match tenant_name(req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let form = match parse_form(&req.body) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    // Every session shares the process-wide cache.
    let mut manager = FormManager::new(form, shared.config.budget.clone(), shared.config.policy)
        .with_cache(Arc::clone(&shared.cache))
        .with_max_retained_states(shared.config.max_retained_states);
    if let Some(bytes) = shared.config.max_retained_bytes {
        manager = manager.with_max_retained_bytes(bytes);
    }
    let tenant = shared.tenants.get_or_create(tenant_name);
    let id = tenant.next_session.fetch_add(1, Ordering::SeqCst);
    tenant
        .sessions
        .lock()
        .expect("session map poisoned")
        .insert(id, Arc::new(Mutex::new(manager)));
    shared
        .metrics
        .sessions_opened
        .fetch_add(1, Ordering::SeqCst);
    Response::json(200, format!("{{\"session\":{id}}}"))
        .header("X-Session", id.to_string())
        .header("X-Verdict", "opened")
}

/// Resolve `{tenant, id}` to a live session and run `f` on it (the
/// session mutex is held for the duration — one session is a
/// linearizable object).
fn with_session(
    shared: &Shared,
    req: &Request,
    id: &str,
    f: impl FnOnce(&mut FormManager, &Request) -> Response,
) -> Response {
    let tenant_name = match tenant_name(req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let Ok(id) = id.parse::<u64>() else {
        return Response::json(400, "{\"error\":\"session id must be an integer\"}");
    };
    let session = shared.tenants.get(tenant_name).and_then(|t| {
        t.sessions
            .lock()
            .expect("session map poisoned")
            .get(&id)
            .cloned()
    });
    match session {
        Some(s) => {
            let mut mgr = s.lock().expect("session poisoned");
            // Snapshot the session's re-analysis provenance around the
            // operation so the delta can be folded into the process-wide
            // counters and surfaced as this response's X-Cache header.
            let before = mgr.recompute_stats();
            let ev_before = mgr.eviction_stats();
            let response = f(&mut mgr, req);
            let delta = mgr.recompute_stats().minus(&before);
            shared.metrics.record_recompute(&delta);
            let ev = mgr.eviction_stats();
            let (evictions, bytes_freed) = (
                ev.evictions - ev_before.evictions,
                ev.evicted_bytes - ev_before.evicted_bytes,
            );
            if evictions > 0 {
                shared.metrics.record_evictions(evictions, bytes_freed);
                eprintln!(
                    "idar-server: session {tenant_name}/{id}: retained graph evicted \
                     (over memory budget), {bytes_freed} bytes freed"
                );
            }
            response.header("X-Cache", recompute_tag(&delta))
        }
        None => Response::json(404, "{\"error\":\"no such session\"}"),
    }
}

/// The dominant re-analysis path among one session operation's oracle
/// calls (ties resolve toward the cheaper path).
fn recompute_tag(delta: &RecomputeStats) -> &'static str {
    if delta.total() == 0 {
        "none"
    } else if delta.graph_hits >= delta.frontier_extends && delta.graph_hits >= delta.cold_solves {
        "graph-hit"
    } else if delta.frontier_extends >= delta.cold_solves {
        "frontier-extend"
    } else {
        "cold"
    }
}

fn session_info(mgr: &mut FormManager, _req: &Request) -> Response {
    let complete = mgr.is_complete();
    Response::json(
        200,
        format!(
            "{{\"complete\":{},\"history\":{},\"instance\":\"{}\"}}",
            complete,
            mgr.history().len(),
            json_escape(&mgr.current().to_text()),
        ),
    )
    .header("X-Verdict", if complete { "complete" } else { "open" })
}

fn safe_updates(mgr: &mut FormManager, _req: &Request) -> Response {
    let safe = mgr.safe_updates();
    let encoded: Vec<String> = safe.iter().map(|u| encode_update(mgr, u)).collect();
    let body = format!(
        "{{\"safe\":[{}]}}",
        encoded
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect::<Vec<_>>()
            .join(",")
    );
    Response::json(200, body).header("X-Verdict", format!("safe:{}", encoded.len()))
}

fn vet_or_submit(mgr: &mut FormManager, req: &Request, apply: bool) -> Response {
    let update = match decode_update(mgr, req.body.trim()) {
        Ok(u) => u,
        Err(msg) => {
            return Response::json(
                400,
                format!("{{\"error\":\"bad update: {}\"}}", json_escape(&msg)),
            )
        }
    };
    let outcome = if apply {
        mgr.submit(update)
    } else {
        mgr.vet(&update)
    };
    match outcome {
        Ok(()) => {
            let complete = mgr.is_complete();
            Response::json(
                200,
                format!("{{\"accepted\":true,\"complete\":{complete}}}"),
            )
            .header("X-Verdict", if complete { "ok-complete" } else { "ok" })
        }
        Err(rejection) => {
            let tag = match rejection {
                Rejection::NotAllowed => "not-allowed",
                Rejection::WouldStrand => "would-strand",
                Rejection::Undecided => "undecided",
            };
            // A vetoed update is a *successful* request with a negative
            // business outcome — 200, not 4xx (the admission mix gate
            // counts statuses, not verdicts).
            Response::json(
                200,
                format!(
                    "{{\"accepted\":false,\"reason\":\"{}\"}}",
                    json_escape(&rejection.to_string())
                ),
            )
            .header("X-Verdict", tag)
        }
    }
}

fn close_session(shared: &Shared, req: &Request, id: &str) -> Response {
    let tenant_name = match tenant_name(req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let Ok(id) = id.parse::<u64>() else {
        return Response::json(400, "{\"error\":\"session id must be an integer\"}");
    };
    let removed = shared
        .tenants
        .get(tenant_name)
        .and_then(|t| t.sessions.lock().expect("session map poisoned").remove(&id));
    match removed {
        Some(_) => Response::json(200, "{\"closed\":true}").header("X-Verdict", "closed"),
        None => Response::json(404, "{\"error\":\"no such session\"}"),
    }
}

/// Encode an update as the wire token `safe_updates` hands out.
fn encode_update(mgr: &FormManager, u: &Update) -> String {
    match u {
        Update::Add { parent, edge } => {
            format!("add {} {}", parent.0, mgr.form().schema().path_of(*edge))
        }
        Update::Del { node } => format!("del {}", node.0),
    }
}

/// Parse the wire token back into an update.
fn decode_update(mgr: &FormManager, s: &str) -> Result<Update, String> {
    let mut parts = s.split_whitespace();
    match parts.next() {
        Some("add") => {
            let parent: u32 = parts
                .next()
                .ok_or("add needs a parent node id")?
                .parse()
                .map_err(|_| "parent must be an integer".to_string())?;
            let path = parts.next().ok_or("add needs a schema path")?;
            let edge = mgr
                .form()
                .schema()
                .resolve(path)
                .map_err(|e| format!("no schema edge {path:?}: {e}"))?;
            Ok(Update::Add {
                parent: InstNodeId(parent),
                edge,
            })
        }
        Some("del") => {
            let node: u32 = parts
                .next()
                .ok_or("del needs a node id")?
                .parse()
                .map_err(|_| "node must be an integer".to_string())?;
            Ok(Update::Del {
                node: InstNodeId(node),
            })
        }
        _ => Err(format!(
            "unknown update {s:?} (want `add <id> <path>` or `del <id>`)"
        )),
    }
}

/// The verdict header value for a [`Verdict`] — shared with the bench
/// crate's assertions.
pub fn verdict_tag(v: Verdict) -> &'static str {
    match v {
        Verdict::Holds => "holds",
        Verdict::Fails => "fails",
        Verdict::Unknown => "unknown",
    }
}
