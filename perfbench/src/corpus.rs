//! The `corpus` stage: cold time to verdict on small forms.
//!
//! A seeded corpus of small forms sampled from five scenario recipes
//! (small: the naive reference closes their whole space) plus the six
//! named scenarios; each form is asked completability and
//! semi-soundness through `analyze` with the server's default `Budget`,
//! no cache and one explorer thread. Traced runs replay every request
//! stage by stage: cache key, fragment classification, screen, prune,
//! method.

use crate::reference;
use crate::trace::Tracer;
use crate::util::{mean, ns_since, Latencies, Rng};
use idar_core::GuardedForm;
use idar_gen::scenario::{named_scenarios, Expected, ScenarioRecipe};
use idar_solver::{
    analyze, prune, screen, AnalysisKind, AnalysisReport, AnalysisRequest, Budget, Method,
    ScreenOutcome, Verdict, VerdictCache,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Forms sampled per seed (the six named scenarios come on top).
pub const SAMPLED_FORMS: usize = 1_000;

/// The two questions asked of every form.
pub const KINDS: [AnalysisKind; 2] = [AnalysisKind::Completability, AnalysisKind::Semisoundness];

/// The budget every corpus and service analysis runs under.
pub fn budget() -> Budget {
    idar_server::ServerConfig::default().budget
}

/// One corpus form with what its verdicts are checked against.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Recipe and index, or the named scenario's name.
    pub name: String,
    /// The form.
    pub form: GuardedForm,
    /// Pinned verdicts of a named scenario.
    pub expected: Option<Expected>,
    /// Verdicts of the naive reference explorer, where it closes.
    pub reference: Option<reference::Verdicts>,
}

/// The generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The forms, sampled ones first, then the named scenarios.
    pub entries: Vec<Entry>,
    /// Sampled forms left out because the reference could not close
    /// their space (they are not small).
    pub rejected: usize,
}

/// The five recipes the corpus samples from, in turn.
pub fn recipes() -> [ScenarioRecipe; 5] {
    [
        ScenarioRecipe::approval(),
        ScenarioRecipe::sod(),
        ScenarioRecipe::ringi(),
        ScenarioRecipe::committee(),
        ScenarioRecipe::lightweight(),
    ]
}

impl Corpus {
    /// The corpus of `seed` — a pure function of `(seed, count)`:
    /// `count` small forms, the recipes taking turns, each with its
    /// reference verdicts, then the named scenarios.
    pub fn build(seed: u64, count: usize) -> Corpus {
        let mut rng = Rng::new(seed, 0xC0_4F05);
        let recipes = recipes();
        let mut entries = Vec::with_capacity(count + 6);
        let mut drawn = 0;
        while entries.len() < count {
            let recipe = &recipes[entries.len() % recipes.len()];
            let name = format!("{}-{drawn}", recipe.name);
            drawn += 1;
            let form = recipe.sample(rng.next_u64()).build(&name).form;
            if let Some(r) = reference::verdicts(&form) {
                entries.push(Entry {
                    name,
                    form,
                    expected: None,
                    reference: Some(r),
                });
            }
        }
        entries.extend(named_scenarios().into_iter().map(|n| Entry {
            reference: reference::verdicts(&n.scenario.form),
            name: n.scenario.name,
            form: n.scenario.form,
            expected: Some(n.expected),
        }));
        Corpus {
            entries,
            rejected: drawn - count,
        }
    }

    /// One request per (form, kind), built once so passes time only the
    /// analysis.
    pub fn requests(&self) -> Vec<(usize, AnalysisRequest)> {
        let budget = budget();
        self.entries
            .iter()
            .enumerate()
            .flat_map(|(i, e)| {
                KINDS.iter().map({
                    let budget = budget.clone();
                    move |&k| {
                        let req = AnalysisRequest::new(e.form.clone(), k)
                            .with_budget(budget.clone())
                            .with_threads(1);
                        (i, req)
                    }
                })
            })
            .collect()
    }
}

/// Verdict of a decided reference for `kind`.
fn expected_verdict(kind: AnalysisKind, completable: bool, semisound: bool) -> Verdict {
    let holds = match kind {
        AnalysisKind::Semisoundness => semisound,
        _ => completable,
    };
    if holds {
        Verdict::Holds
    } else {
        Verdict::Fails
    }
}

/// Check one report: witnesses replay, named scenarios match their pins,
/// decided verdicts match the reference. Returns the failures found.
pub fn check(entry: &Entry, kind: AnalysisKind, report: &AnalysisReport) -> Vec<String> {
    let mut bad = Vec::new();
    let who = format!("{} {kind}", entry.name);
    let (form, run) = (&entry.form, report.run.as_deref());
    match (kind, report.verdict) {
        (AnalysisKind::Completability, Verdict::Holds)
            if run.is_none_or(|r| !form.is_complete_run(r)) =>
        {
            bad.push(format!("{who}: Holds witness is not a complete run"))
        }
        (AnalysisKind::Semisoundness, Verdict::Fails)
            if run.is_none_or(|r| form.replay(r).is_err()) =>
        {
            bad.push(format!("{who}: counterexample does not replay"))
        }
        _ => {}
    }
    let pinned = entry
        .expected
        .map(|x| (x.completable, x.semisound, "pinned"));
    let referenced = entry
        .reference
        .filter(|_| report.verdict != Verdict::Unknown)
        .map(|r| (r.completable, r.semisound, "the reference says"));
    for (completable, semisound, source) in pinned.into_iter().chain(referenced) {
        let want = expected_verdict(kind, completable, semisound);
        if report.verdict != want {
            bad.push(format!("{who}: {} but {source} {want}", report.verdict));
        }
    }
    bad
}

/// The short name of a method, e.g. `bounded-exploration`.
pub fn method_slug(m: Method) -> String {
    m.to_string()
        .split(' ')
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Everything the stage measured in one run.
#[derive(Debug, Default)]
pub struct Results {
    /// Analyses per second of each pass.
    pub pass_rate: Vec<f64>,
    /// Latency of every analysis of every pass.
    pub latency: Latencies,
    /// Analyses run, and how many were decided (not `Unknown`).
    pub analyses: u64,
    /// Decided analyses.
    pub decided: u64,
    /// Verdict and method of every request in the first pass.
    pub first: Vec<(Verdict, Method)>,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// Staged replay measurements (traced runs only).
    pub staged: Staged,
}

/// The stage-by-stage replay's measurements.
#[derive(Debug, Default)]
pub struct Staged {
    /// `VerdictCache::key_for`, µs per request.
    pub key_us: Vec<f64>,
    /// `fragment::classify`, µs per request.
    pub classify_us: Vec<f64>,
    /// `screen`, per request.
    pub screen: Latencies,
    /// `prune`, µs per call.
    pub prune_us: Vec<f64>,
    /// Requests the screen decided.
    pub screen_decided: u64,
    /// Requests replayed.
    pub requests: u64,
    /// `analyze` with `skip_screen` on the pruned form, per method slug.
    pub methods: BTreeMap<String, Latencies>,
    /// States explored per request.
    pub states: Vec<f64>,
    /// Wall time of the replayed requests that recorded spans.
    pub traced_ns: u64,
    /// Wall time of the same requests replayed under [`Tracer::noop`].
    pub noop_ns: u64,
}

/// One untraced pass over every request.
pub fn pass(corpus: &Corpus, requests: &[(usize, AnalysisRequest)], res: &mut Results) {
    let first = res.first.is_empty();
    let t_pass = Instant::now();
    for (n, (i, req)) in requests.iter().enumerate() {
        let t = Instant::now();
        let report = analyze(req);
        res.latency.push_ns(ns_since(t));
        res.analyses += 1;
        res.decided += u64::from(report.verdict != Verdict::Unknown);
        res.failures
            .extend(check(&corpus.entries[*i], req.kind, &report));
        if first {
            res.first.push((report.verdict, report.method));
        } else if res.first[n] != (report.verdict, report.method) {
            res.failures.push(format!(
                "{} {}: {} by {} differs from the first pass",
                corpus.entries[*i].name, req.kind, report.verdict, report.method
            ));
        }
    }
    let wall = ns_since(t_pass);
    res.pass_rate
        .push(requests.len() as f64 / (wall as f64 / 1e9));
}

/// Replay every request stage by stage under `tr`, checking that each
/// staged verdict and method equal the untraced pass's; then time the
/// verdict-cache key of every request (the cold pipeline computes none,
/// so it stays out of the replay). Each request is also replayed under
/// [`Tracer::noop`], right before or after (alternating), after an
/// untimed warm-up, and the two wall-time sums give the tracing
/// overhead.
pub fn staged_pass(
    corpus: &Corpus,
    requests: &[(usize, AnalysisRequest)],
    res: &mut Results,
    tr: &mut Tracer,
) {
    let mut skip = budget();
    skip.skip_screen = true;
    let mut noop = Tracer::noop();
    let mut scratch = Staged::default();
    for (n, (i, req)) in requests.iter().enumerate() {
        // An untimed warm-up first, so neither timed replay pays for the
        // request's cold caches.
        staged(&mut noop, n as u64, req, &skip, &mut scratch);
        let order = if n % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let t = Instant::now();
            let got = if traced {
                staged(tr, n as u64, req, &skip, &mut res.staged)
            } else {
                staged(&mut noop, n as u64, req, &skip, &mut scratch)
            };
            let ns = ns_since(t);
            if traced {
                res.staged.traced_ns += ns;
            } else {
                res.staged.noop_ns += ns;
            }
            if res.first.get(n) != Some(&got) {
                res.failures.push(format!(
                    "{} {}: staged replay gives {} by {}, analyze {:?}",
                    corpus.entries[*i].name,
                    req.kind,
                    got.0,
                    got.1,
                    res.first.get(n)
                ));
            }
        }
    }
    for (n, (_, req)) in requests.iter().enumerate() {
        let (key, ns) = tr.time("cache.key_for", None, n as u64, || {
            VerdictCache::key_for(&req.form, req.kind, &req.budget)
        });
        black_box(key);
        res.staged.key_us.push(ns as f64 / 1e3);
    }
}

/// The request pipeline of `analyze`, one span per stage: returns the
/// verdict and method it arrives at.
pub fn staged(
    tr: &mut Tracer,
    id: u64,
    req: &AnalysisRequest,
    skip_screen: &Budget,
    st: &mut Staged,
) -> (Verdict, Method) {
    let root = tr.enter("corpus.request", None, id);
    let (fragment, ns) = tr.time("fragment.classify", Some(root), id, || {
        idar_core::fragment::classify(&req.form)
    });
    black_box(fragment);
    st.classify_us.push(ns as f64 / 1e3);
    let (report, ns) = tr.time("screen.screen", Some(root), id, || screen(&req.form));
    st.screen.push_ns(ns);
    st.requests += 1;
    let outcome = match req.kind {
        AnalysisKind::Semisoundness => &report.semisoundness,
        _ => &report.completability,
    };
    let out = if let ScreenOutcome::Decided(v, _) = outcome {
        st.screen_decided += 1;
        st.states.push(0.0);
        (*v, Method::StaticScreen)
    } else {
        let form = if report.dead_rules.is_empty() {
            req.form.clone()
        } else {
            let (pruned, ns) = tr.time("screen.prune", Some(root), id, || {
                prune(&req.form, &report.dead_rules)
            });
            st.prune_us.push(ns as f64 / 1e3);
            pruned
        };
        let method_req = AnalysisRequest::new(form, req.kind)
            .with_budget(skip_screen.clone())
            .with_threads(1);
        let (r, ns) = tr.time("analysis.method", Some(root), id, || analyze(&method_req));
        st.methods
            .entry(method_slug(r.method))
            .or_default()
            .push_ns(ns);
        st.states.push(r.stats.states as f64);
        (r.verdict, r.method)
    };
    tr.exit(root);
    out
}

impl Staged {
    /// Mean µs of the `key`, `classify` and `prune` calls.
    pub fn means(&self) -> (f64, f64, f64) {
        (
            mean(&self.key_us),
            mean(&self.classify_us),
            mean(&self.prune_us),
        )
    }
}
