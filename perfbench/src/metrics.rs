//! Metric definitions and the result line.
//!
//! Untraced runs report [`END_TO_END`]; traced runs report
//! [`per_layer`], each with the end-to-end metric it should move.

use std::fmt::Write as _;

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The stage that produces it.
    pub stage: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    stage: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        stage,
    }
}

/// Every end-to-end metric, in output order.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", "lower", "all"),
    e2e("lattice_states_per_s", "states/s", "higher", "explore (a)"),
    e2e("chain_states_per_s", "states/s", "higher", "explore (b)"),
    e2e("spill_states_per_s", "states/s", "higher", "explore (c)"),
    e2e("lattice_bytes_per_state", "B/state", "lower", "explore (a)"),
    e2e("verdicts_per_s", "1/s", "higher", "corpus"),
    e2e("verdict_p50_ms", "ms", "lower", "corpus"),
    e2e("verdict_p99_ms", "ms", "lower", "corpus"),
    e2e("decided_ratio", "ratio", "higher", "corpus"),
    e2e("requests_per_s", "1/s", "higher", "service"),
    e2e("request_p50_ms", "ms", "lower", "service"),
    e2e("request_p99_ms", "ms", "lower", "service"),
];

/// A per-layer metric and the end-to-end metrics it should move.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// End-to-end metrics this layer feeds.
    pub feeds: &'static str,
}

/// The methods the staged corpus replay can dispatch to (the screen
/// and the satisfiability tableau never run there).
pub const METHODS: [&str; 5] = [
    "positive-saturation",
    "np-two-phase",
    "depth1-canonical",
    "bounded-exploration",
    "reachable-enumeration",
];

/// Per-layer metrics of the corpus and service stages after the
/// per-method ones: name, unit, better, feeds.
const REQUEST_LAYERS: [(&str, &str, &str, &str); 10] = [
    (
        "corpus.analysis.states_per_request",
        "states",
        "lower",
        "verdict_p99_ms",
    ),
    (
        "service.http.read_request_us",
        "us",
        "lower",
        "request_p50_ms",
    ),
    (
        "service.serialize.from_ron_us",
        "us",
        "lower",
        "request_p50_ms",
    ),
    (
        "service.cache.hit_ratio",
        "ratio",
        "higher",
        "requests_per_s",
    ),
    (
        "service.manager.graph_hit_ratio",
        "ratio",
        "higher",
        "request_p99_ms",
    ),
    (
        "service.manager.cold_solves",
        "count",
        "lower",
        "request_p99_ms",
    ),
    (
        "service.manager.safe_updates_us",
        "us",
        "lower",
        "request_p99_ms",
    ),
    ("service.server.shed", "count", "lower", "request_p99_ms"),
    (
        "service.server.overhead_us",
        "us",
        "lower",
        "request_p50_ms",
    ),
    (
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "all (replay recording spans vs. the same replay under a no-op tracer)",
    ),
];

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<Layer> {
    let mut v = Vec::new();
    let mut add = |name: String, unit, better, feeds| {
        v.push(Layer {
            name,
            unit,
            better,
            feeds,
        })
    };
    let lattice = "lattice_states_per_s";
    let chain = "chain_states_per_s";
    for (p, rate, materialize, canon) in [
        (
            "lattice",
            lattice,
            "lattice_states_per_s, lattice_bytes_per_state",
            "lattice_states_per_s, spill_states_per_s",
        ),
        ("chain", chain, chain, chain),
    ] {
        for (m, unit, better, feeds) in [
            ("guarded.allowed_updates_ns", "ns", "lower", rate),
            ("instance.materialize_ns", "ns", "lower", materialize),
            ("intern.canon_key_ns", "ns", "lower", canon),
            ("store.intern_ns", "ns", "lower", rate),
            ("store.new_ratio", "ratio", "higher", rate),
            ("guarded.goal_ns", "ns", "lower", "verdict_p50_ms"),
            ("explore.replica_ratio", "ratio", "lower", rate),
        ] {
            add(format!("{p}.{m}"), unit, better, feeds);
        }
    }
    let spill = "spill_states_per_s";
    let screen = "verdict_p50_ms, verdicts_per_s";
    for (name, unit, better, feeds) in [
        ("spill.encoded_bytes_per_state", "B/state", "lower", spill),
        ("spill.compression_ratio", "ratio", "higher", spill),
        ("spill.spilled_pages", "count", "lower", spill),
        ("spill.faults", "count", "lower", spill),
        ("corpus.cache.key_us", "us", "lower", "request_p50_ms"),
        (
            "corpus.fragment.classify_us",
            "us",
            "lower",
            "verdict_p50_ms",
        ),
        ("corpus.screen.screen_p50_us", "us", "lower", screen),
        ("corpus.screen.screen_p99_us", "us", "lower", screen),
        ("corpus.screen.decided_ratio", "ratio", "higher", screen),
        ("corpus.screen.prune_us", "us", "lower", "verdict_p50_ms"),
    ] {
        add(name.to_string(), unit, better, feeds);
    }
    for m in METHODS {
        for (stat, unit) in [("p50_us", "us"), ("p99_us", "us"), ("count", "count")] {
            add(
                format!("corpus.method.{m}.{stat}"),
                unit,
                "lower",
                "verdict_p99_ms",
            );
        }
    }
    for (name, unit, better, feeds) in REQUEST_LAYERS {
        add(name.to_string(), unit, better, feeds);
    }
    v
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its value and unit. Non-finite values are written as 0.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0
    )
}
