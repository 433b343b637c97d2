//! Session lifecycle, cross-tenant cache sharing, and the cache
//! hit-rate regression pin over the HTTP surface.

mod common;

use common::{exchange, safe_tokens, session_id, trap_form_ron, two_sibling_ron};
use idar_server::{Server, ServerConfig};
use idar_solver::{Budget, ExploreLimits};
use std::time::{Duration, Instant};

/// The manager-test budget: multiplicity cap 2 so the two-sibling form's
/// sweep makes exactly 2 oracle runs and 1 hit cold.
fn pin_config() -> ServerConfig {
    ServerConfig {
        budget: Budget::with_limits(ExploreLimits {
            multiplicity_cap: Some(2),
            ..ExploreLimits::small()
        }),
        ..ServerConfig::default()
    }
}

/// Satellite regression pin: a server session is a *persistent*
/// `FormManager`, so its verdict-cache hit rate over repeated sweeps
/// must be at least the single-tenant manager value from BENCH_4
/// (2 hits per 1 miss after a warm sweep, i.e. 2/3 ≈ 0.667). A
/// per-request manager would rebuild its memoized key and never reuse
/// in-session verdicts at this rate.
#[test]
fn session_reuse_keeps_cache_hit_rate_at_least_two_thirds() {
    let handle = Server::start("127.0.0.1:0", pin_config()).expect("server start");
    let addr = handle.addr();

    let (status, _, body) = exchange(
        addr,
        "POST",
        "/v1/session",
        Some("acme"),
        &two_sibling_ron(),
    );
    assert_eq!(status, 200);
    let sid = session_id(&body);

    // Cold sweep: 3 candidates, isomorphic successors solve once.
    let (status, headers, body) = exchange(
        addr,
        "GET",
        &format!("/v1/session/{sid}/safe_updates"),
        Some("acme"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(headers.get("x-verdict").map(String::as_str), Some("safe:3"));
    assert_eq!(safe_tokens(&body).len(), 3);
    let cold = handle.cache().stats();
    assert_eq!(cold.misses, 2, "isomorphic successors solve once");
    assert_eq!(cold.hits, 1);

    // Warm sweep: the session's manager (and its memoized rules key)
    // persisted across requests, so everything hits.
    let (status, _, _) = exchange(
        addr,
        "GET",
        &format!("/v1/session/{sid}/safe_updates"),
        Some("acme"),
        "",
    );
    assert_eq!(status, 200);
    let warm = handle.cache().stats();
    assert_eq!(warm.misses, 2, "no new oracle runs on the warm sweep");
    assert_eq!(warm.hits, 4);
    assert!(
        warm.hit_rate() >= 0.66,
        "hit rate {:.3} fell below the BENCH_4 single-tenant pin (2/3)",
        warm.hit_rate()
    );

    handle.shutdown();
}

/// The cache is process-wide and keyed by rules signature: a second
/// tenant opening the *same* form pays zero oracle runs for its sweep.
#[test]
fn tenants_with_identical_rules_share_the_cache() {
    let handle = Server::start("127.0.0.1:0", pin_config()).expect("server start");
    let addr = handle.addr();

    let (_, _, body) = exchange(
        addr,
        "POST",
        "/v1/session",
        Some("acme"),
        &two_sibling_ron(),
    );
    let sid_a = session_id(&body);
    exchange(
        addr,
        "GET",
        &format!("/v1/session/{sid_a}/safe_updates"),
        Some("acme"),
        "",
    );
    let after_a = handle.cache().stats();
    assert_eq!(after_a.misses, 2);

    // Tenant B, same rules: its whole sweep is served from A's entries.
    let (_, _, body) = exchange(
        addr,
        "POST",
        "/v1/session",
        Some("globex"),
        &two_sibling_ron(),
    );
    let sid_b = session_id(&body);
    let (status, headers, _) = exchange(
        addr,
        "GET",
        &format!("/v1/session/{sid_b}/safe_updates"),
        Some("globex"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(headers.get("x-verdict").map(String::as_str), Some("safe:3"));
    let after_b = handle.cache().stats();
    assert_eq!(
        after_b.misses, after_a.misses,
        "tenant B's sweep must not run the oracle at all"
    );
    assert!(after_b.hits > after_a.hits);

    let finals = handle.shutdown();
    assert_eq!(finals.tenants, 2);
    assert_eq!(finals.sessions, 2);
}

/// The stateless analyze route reports cache provenance: first request
/// misses, an identical second request hits. Both carry `X-Method`, and
/// the static screener (which decides the two-sibling form without
/// exploring) is counted once in `/metrics` — the cache hit replays the
/// method without re-running the screener.
#[test]
fn analyze_reports_cache_provenance_across_requests() {
    let handle = Server::start("127.0.0.1:0", pin_config()).expect("server start");
    let addr = handle.addr();
    let form = two_sibling_ron();

    let (status, headers, _) =
        exchange(addr, "POST", "/v1/analyze?kind=completability", None, &form);
    assert_eq!(status, 200);
    assert_eq!(headers.get("x-verdict").map(String::as_str), Some("holds"));
    assert_eq!(headers.get("x-cache").map(String::as_str), Some("miss"));
    assert_eq!(
        headers.get("x-method").map(String::as_str),
        Some("static-screen")
    );

    let (status, headers, _) =
        exchange(addr, "POST", "/v1/analyze?kind=completability", None, &form);
    assert_eq!(status, 200);
    assert_eq!(headers.get("x-verdict").map(String::as_str), Some("holds"));
    assert_eq!(headers.get("x-cache").map(String::as_str), Some("hit"));
    assert_eq!(
        headers.get("x-method").map(String::as_str),
        Some("static-screen")
    );

    let (status, _, body) = exchange(addr, "GET", "/metrics", None, "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"static_screens\":1"),
        "screener must be counted once (not on the cache hit): {body}"
    );

    handle.shutdown();
}

/// Submitting a safe `add … p/b` token completes the two-sibling form.
#[test]
fn submit_applies_updates_and_reaches_completion() {
    let handle = Server::start("127.0.0.1:0", pin_config()).expect("server start");
    let addr = handle.addr();

    let (_, _, body) = exchange(
        addr,
        "POST",
        "/v1/session",
        Some("acme"),
        &two_sibling_ron(),
    );
    let sid = session_id(&body);
    let (_, _, body) = exchange(
        addr,
        "GET",
        &format!("/v1/session/{sid}/safe_updates"),
        Some("acme"),
        "",
    );
    let token = safe_tokens(&body)
        .into_iter()
        .find(|t| t.ends_with("p/b"))
        .expect("a p/b addition is safe");

    // Vet first (no mutation), then submit (applies).
    let (status, headers, _) = exchange(
        addr,
        "POST",
        &format!("/v1/session/{sid}/vet"),
        Some("acme"),
        &token,
    );
    assert_eq!(status, 200);
    assert_eq!(headers.get("x-verdict").map(String::as_str), Some("ok"));

    let (status, headers, body) = exchange(
        addr,
        "POST",
        &format!("/v1/session/{sid}/submit"),
        Some("acme"),
        &token,
    );
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("x-verdict").map(String::as_str),
        Some("ok-complete"),
        "adding b under a p satisfies p[b]: {body}"
    );
    assert!(body.contains("\"complete\":true"));

    let (_, headers, body) = exchange(addr, "GET", &format!("/v1/session/{sid}"), Some("acme"), "");
    assert_eq!(
        headers.get("x-verdict").map(String::as_str),
        Some("complete")
    );
    assert!(body.contains("\"history\":1"));

    handle.shutdown();
}

/// The `/metrics` endpoint surfaces the retained-graph byte gauges, and
/// a byte budget too small for any graph turns sweeps into recorded
/// evictions with bytes freed. Uses the trap form: its negative guards
/// select bounded exploration, the only method that retains a graph.
#[test]
fn metrics_report_retained_bytes_and_evictions() {
    // Roomy budget: the session graph survives and the gauges see it.
    let handle = Server::start("127.0.0.1:0", pin_config()).expect("server start");
    let addr = handle.addr();
    let (_, _, body) = exchange(addr, "POST", "/v1/session", Some("acme"), &trap_form_ron());
    let sid = session_id(&body);
    exchange(
        addr,
        "GET",
        &format!("/v1/session/{sid}/safe_updates"),
        Some("acme"),
        "",
    );
    let m = handle.metrics();
    assert!(m.retained_states > 0, "sweep must retain a session graph");
    assert!(m.retained_bytes > m.retained_states * 4);
    assert_eq!(m.graph_evictions, 0);
    let (status, _, body) = exchange(addr, "GET", "/metrics", None, "");
    assert_eq!(status, 200);
    assert!(body.contains("\"retained_bytes\":"), "{body}");
    assert!(body.contains("\"graph_evictions\":0"), "{body}");
    handle.shutdown();

    // 16-byte budget: every built graph is immediately over budget, so
    // the sweep still answers but the eviction is counted with its
    // bytes freed, and nothing stays retained.
    let tiny = ServerConfig {
        max_retained_bytes: Some(16),
        ..pin_config()
    };
    let handle = Server::start("127.0.0.1:0", tiny).expect("server start");
    let addr = handle.addr();
    let (_, _, body) = exchange(addr, "POST", "/v1/session", Some("acme"), &trap_form_ron());
    let sid = session_id(&body);
    let (status, headers, _) = exchange(
        addr,
        "GET",
        &format!("/v1/session/{sid}/safe_updates"),
        Some("acme"),
        "",
    );
    assert_eq!(status, 200, "eviction must not change the answer");
    assert_eq!(headers.get("x-verdict").map(String::as_str), Some("safe:1"));
    let m = handle.metrics();
    assert!(m.graph_evictions >= 1, "16-byte budget must evict");
    assert!(m.evicted_bytes > 16);
    assert_eq!(m.retained_states, 0, "nothing survives a 16-byte budget");
    handle.shutdown();
}

/// A form whose completion nests 10,000 negations is a 400, and the
/// worker that parsed it goes on serving.
#[test]
fn deeply_nested_form_is_a_400_and_the_server_keeps_serving() {
    let handle = Server::start("127.0.0.1:0", pin_config()).expect("server start");
    let addr = handle.addr();
    let ron = two_sibling_ron();
    let start = ron.find("  completion: ").expect("completion field");
    let deep = format!(
        "{}  completion: \"{}p\",\n)\n",
        &ron[..start],
        "!".repeat(10_000)
    );
    let (status, _, body) = exchange(addr, "POST", "/v1/analyze", None, &deep);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    let (status, _, _) = exchange(addr, "POST", "/v1/analyze", None, &ron);
    assert_eq!(status, 200, "the next request is answered");
    handle.shutdown();
}

/// Every analysis kind.
const KINDS: [&str; 3] = ["completability", "semisoundness", "satisfiability"];

/// A form over a flat schema of `labels` with completion `completion`,
/// whose rules are all `guard`.
fn flat_form(labels: &[String], guard: &str, completion: &str) -> String {
    format!(
        "(\n  schema: \"{}\",\n  default: \"{guard}\",\n  rules: [\n  ],\n  \
         initial: \"\",\n  completion: \"{completion}\",\n)\n",
        labels.join(", ")
    )
}

/// The wide inputs of the hostile table: 20,000-operand `&` and `|`
/// chains and a 20,000-clause CNF, over a flat schema of their labels
/// whose rules are all `guard`.
fn wide_inputs(guard: &str) -> Vec<(String, String)> {
    let ls: Vec<String> = (0..20_000).map(|i| format!("l{i}")).collect();
    let ab: Vec<String> = (0..20_000)
        .flat_map(|i| [format!("a{i}"), format!("b{i}")])
        .collect();
    let cnf: Vec<String> = (0..20_000).map(|i| format!("(a{i} | b{i})")).collect();
    vec![
        (
            format!("20,000-operand &, rules {guard}"),
            flat_form(&ls, guard, &ls.join(" & ")),
        ),
        (
            format!("20,000-operand |, rules {guard}"),
            flat_form(&ls, guard, &ls.join(" | ")),
        ),
        (
            format!("20,000-clause CNF, rules {guard}"),
            flat_form(&ab, guard, &cnf.join(" & ")),
        ),
    ]
}

/// Send `body` for each of `kinds`: each must get a 4xx, or a 200 within
/// 2 s (release build), and the server must answer the next request.
fn answered_in_time(addr: std::net::SocketAddr, name: &str, body: &str, kinds: &[&str]) {
    assert!(body.len() < 1 << 20, "{name}: {} bytes", body.len());
    // Unoptimised test builds run an order of magnitude slower.
    let bound = Duration::from_secs(if cfg!(debug_assertions) { 60 } else { 2 });
    for kind in kinds {
        let path = format!("/v1/analyze?kind={kind}");
        let t = Instant::now();
        let (status, _, reply) = exchange(addr, "POST", &path, None, body);
        let took = t.elapsed();
        let reply = &reply[..reply.len().min(200)];
        assert!(
            (400..500).contains(&status) || (status == 200 && took <= bound),
            "{kind} on {name}: {status} after {took:?}: {reply}"
        );
        let (status, _, _) = exchange(addr, "POST", "/v1/analyze", None, &two_sibling_ron());
        assert_eq!(
            status, 200,
            "the request after {kind} on {name} is answered"
        );
    }
}

/// Hostile completion formulas: chains of every operator far longer than
/// `MAX_NESTING`, a path past it, a long filter chain, an exponential
/// `<->` nest, and wide chains and a CNF whose labels all resolve in the
/// schema, under all-`false` and under all-`true` rules; and a
/// permissive 24-label depth-1 form, whose 2^24 reachable states are
/// far past the budget's state cap. Each
/// gets a 4xx, or a 200 within 2 s (release build), for every kind, and
/// the server answers the next request.
#[test]
fn hostile_formulas_are_answered_and_the_server_keeps_serving() {
    let handle = Server::start("127.0.0.1:0", ServerConfig::default()).expect("server start");
    let addr = handle.addr();
    let ron = two_sibling_ron();
    let start = ron.find("  completion: ").expect("completion field");
    let with = |completion: &str| format!("{}  completion: \"{completion}\",\n)\n", &ron[..start]);
    let mut iff = "p".to_string();
    for _ in 0..40 {
        iff = format!("({iff} <-> p)");
    }
    let cases = [
        ("200,000-operand &", with(&vec!["p"; 200_000].join(" & "))),
        ("200,000-operand |", with(&vec!["p"; 200_000].join(" | "))),
        ("200,000-step path", with(&vec!["p"; 200_000].join("/"))),
        (
            "200,000 filters",
            with(&format!("p{}", "[b]".repeat(200_000))),
        ),
        ("depth-40 <->", with(&iff)),
    ];
    for (name, body) in &cases {
        answered_in_time(addr, name, body, &KINDS);
    }
    for (name, body) in wide_inputs("false").into_iter().chain(wide_inputs("true")) {
        answered_in_time(addr, &name, &body, &KINDS);
    }
    let labels: Vec<String> = (0..24).map(|i| format!("l{i}")).collect();
    let permissive = flat_form(&labels, "true", "l0 & !l1");
    answered_in_time(addr, "24-label permissive form", &permissive, &KINDS);
    // Its semi-soundness stops at the state cap with an honest `Unknown`.
    let path = "/v1/analyze?kind=semisoundness";
    let (status, _, reply) = exchange(addr, "POST", path, None, &permissive);
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"verdict\":\"unknown\""), "{reply}");
    assert!(reply.contains("\"states\":20000"), "{reply}");
    handle.shutdown();
}

/// Semi-soundness of the wide inputs under all-`true` rules. The
/// reachable-state enumeration spends the whole state budget, so no
/// per-state completability oracle may run after it: one oracle for each
/// of its ~20,000 stuck states would hold the worker for minutes.
#[test]
fn permissive_wide_semisoundness_is_answered_in_time() {
    let handle = Server::start("127.0.0.1:0", ServerConfig::default()).expect("server start");
    for (name, body) in wide_inputs("true") {
        answered_in_time(handle.addr(), &name, &body, &["semisoundness"]);
    }
    handle.shutdown();
}

/// Completions nested just under `MAX_NESTING` parse and are analyzed
/// for every kind, on the workers' stacks, and the server keeps serving.
#[test]
fn nesting_just_under_the_limit_is_analyzed_for_every_kind() {
    let handle = Server::start("127.0.0.1:0", pin_config()).expect("server start");
    let addr = handle.addr();
    let ron = two_sibling_ron();
    let start = ron.find("  completion: ").expect("completion field");
    let completions = [
        format!("{}p", "!".repeat(254)),
        format!("{}p{}", "(".repeat(254), ")".repeat(254)),
        format!("{}p{}", "!(".repeat(127), ")".repeat(127)),
        vec!["p"; 254].join("/"),
    ];
    for completion in &completions {
        let deep = format!("{}  completion: \"{completion}\",\n)\n", &ron[..start]);
        for kind in KINDS {
            let path = format!("/v1/analyze?kind={kind}");
            let (status, _, body) = exchange(addr, "POST", &path, None, &deep);
            assert_eq!(status, 200, "{kind} on {}: {body}", &completion[..8]);
            let (status, _, _) = exchange(addr, "POST", "/v1/analyze", None, &ron);
            assert_eq!(status, 200, "the next request is answered");
        }
    }
    handle.shutdown();
}

/// Protocol error paths: missing tenant, bad form, unknown session,
/// unknown route, bad update token, closed session.
#[test]
fn error_paths_answer_with_the_right_statuses() {
    let handle = Server::start("127.0.0.1:0", pin_config()).expect("server start");
    let addr = handle.addr();

    let (status, _, _) = exchange(addr, "POST", "/v1/session", None, &two_sibling_ron());
    assert_eq!(status, 400, "session routes require X-Tenant");

    let (status, _, _) = exchange(addr, "POST", "/v1/session", Some("acme"), "not ron at all");
    assert_eq!(status, 400, "unparseable form");

    let (status, _, _) = exchange(addr, "GET", "/v1/session/99", Some("acme"), "");
    assert_eq!(status, 404, "unknown session");

    let (status, _, _) = exchange(addr, "GET", "/v1/nope", None, "");
    assert_eq!(status, 404, "unknown route");

    let (status, _, _) = exchange(addr, "POST", "/v1/analyze?kind=frobnicate", None, "");
    assert_eq!(status, 400, "unknown analysis kind");

    let (_, _, body) = exchange(
        addr,
        "POST",
        "/v1/session",
        Some("acme"),
        &two_sibling_ron(),
    );
    let sid = session_id(&body);
    let (status, _, _) = exchange(
        addr,
        "POST",
        &format!("/v1/session/{sid}/submit"),
        Some("acme"),
        "frob 1 2",
    );
    assert_eq!(status, 400, "malformed update token");

    let (status, _, _) = exchange(
        addr,
        "POST",
        &format!("/v1/session/{sid}/close"),
        Some("acme"),
        "",
    );
    assert_eq!(status, 200);
    let (status, _, _) = exchange(addr, "GET", &format!("/v1/session/{sid}"), Some("acme"), "");
    assert_eq!(status, 404, "closed sessions are gone");

    let finals = handle.shutdown();
    assert_eq!(finals.accepted, finals.completed);
    assert!(finals.bad_requests >= 5);
}
