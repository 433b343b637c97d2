//! Fragment-dispatched completability (Def. 3.13).
//!
//! [`completability`] is a thin wrapper over the unified
//! [`analysis`](crate::analysis) pipeline; the dispatch below inspects the
//! form's fragment (Sec. 3.5) and picks the strongest procedure Table 1
//! licenses:
//!
//! 1. `F(A+, φ+, ·)` → Thm 5.5 saturation (exact, polynomial).
//! 2. depth ≤ 1      → Lemma 4.3 canonical-state search (exact, ≤ 2ⁿ states;
//!    `Unknown` when no complete state lies within `max_states`).
//! 3. `F(A+, φ−, k)` → Thm 5.2 capped search (exact, NP).
//! 4. otherwise      → bounded exploration (undecidable in general, Thm 4.1):
//!    `Holds` on a found run, `Fails` only if the search *closed*, else
//!    `Unknown`.

use crate::analysis::Budget;
use crate::depth1::Depth1System;
use crate::explore::Explorer;
use crate::verdict::{Method, SearchStats, Verdict};
use idar_core::{GuardedForm, Update};

/// Options for [`completability`] — an alias of the pipeline-wide
/// [`Budget`] (the former standalone struct was one of three copies of
/// the same `ExploreLimits` plumbing).
pub type CompletabilityOptions = Budget;

/// The result of a completability query.
#[derive(Debug, Clone)]
pub struct CompletabilityResult {
    /// The three-valued answer.
    pub verdict: Verdict,
    /// Which algorithm ran.
    pub method: Method,
    /// A complete run when `Holds` (replayable with
    /// [`GuardedForm::replay`]).
    pub witness_run: Option<Vec<Update>>,
    /// Statistics of the search that produced the verdict.
    pub stats: SearchStats,
}

/// Decide (or bound) completability of `form`. See module docs for the
/// dispatch; exactness is tied to [`Method`] and `stats.closed`.
///
/// Routes through the unified pipeline
/// ([`analyze`](crate::analysis::analyze)); use
/// [`analyze_with`](crate::analysis::analyze_with) directly to add a
/// [`VerdictCache`](crate::cache::VerdictCache).
pub fn completability(form: &GuardedForm, options: &CompletabilityOptions) -> CompletabilityResult {
    let report = crate::analysis::analyze(
        &crate::analysis::AnalysisRequest::completability(form.clone())
            .with_budget(options.clone()),
    );
    CompletabilityResult {
        verdict: report.verdict,
        method: report.method,
        witness_run: report.run,
        stats: report.stats,
    }
}

/// The method the dispatcher would choose for this form.
pub fn select_method(form: &GuardedForm) -> Method {
    let frag = idar_core::fragment::classify(form);
    use idar_core::fragment::{DepthClass, Polarity};
    if frag.access == Polarity::Positive && frag.completion == Polarity::Positive {
        Method::PositiveSaturation
    } else if frag.depth == DepthClass::One {
        Method::Depth1Canonical
    } else if frag.access == Polarity::Positive {
        Method::NpTwoPhase
    } else {
        Method::BoundedExploration
    }
}

/// The cold execution path behind the pipeline: method selection plus the
/// budgeted run.
pub(crate) fn run_completability(form: &GuardedForm, budget: &Budget) -> CompletabilityResult {
    let method = budget.force_method.unwrap_or_else(|| select_method(form));
    run_method(form, method, budget)
}

fn run_method(form: &GuardedForm, method: Method, budget: &Budget) -> CompletabilityResult {
    match method {
        Method::PositiveSaturation => match crate::positive::completability_positive(form) {
            Ok(ans) => CompletabilityResult {
                verdict: ans.verdict,
                method,
                witness_run: (ans.verdict == Verdict::Holds).then_some(ans.run),
                stats: ans.stats,
            },
            // Preconditions violated (only possible when forced): fall back.
            Err(_) => run_method(form, Method::BoundedExploration, budget),
        },
        Method::Depth1Canonical => match Depth1System::new(form) {
            Ok(sys) => {
                let ans = sys.completability(budget.limits.max_states);
                let witness_run = ans.moves.as_ref().map(|m| sys.concretize(form, m));
                CompletabilityResult {
                    verdict: ans.verdict,
                    method,
                    witness_run,
                    stats: ans.stats,
                }
            }
            Err(_) => run_method(form, Method::BoundedExploration, budget),
        },
        Method::NpTwoPhase => match crate::np::completability_np(form, &budget.limits) {
            Ok(ans) => CompletabilityResult {
                verdict: ans.verdict,
                method,
                witness_run: ans.run,
                stats: ans.stats,
            },
            Err(_) => run_method(form, Method::BoundedExploration, budget),
        },
        // Forcing the screener runs it alone: a conclusive outcome is the
        // answer, an inconclusive one is an honest `Unknown` (the caller
        // asked for the screen, not for the exploration behind it).
        Method::StaticScreen => {
            let s = crate::screen::screen(form);
            match s.completability {
                crate::screen::ScreenOutcome::Decided(verdict, run) => CompletabilityResult {
                    verdict,
                    method,
                    witness_run: run,
                    stats: SearchStats {
                        closed: true,
                        ..SearchStats::default()
                    },
                },
                crate::screen::ScreenOutcome::Inconclusive => CompletabilityResult {
                    verdict: Verdict::Unknown,
                    method,
                    witness_run: None,
                    stats: SearchStats::default(),
                },
            }
        }
        Method::BoundedExploration | Method::ReachableEnumeration | Method::SatTableau => {
            let out = Explorer::new(form, budget.limits)
                .with_symmetry(budget.symmetry)
                .find(|i| form.is_complete(i));
            CompletabilityResult {
                verdict: out.verdict(),
                method: Method::BoundedExploration,
                witness_run: out.goal_run,
                stats: out.stats,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreLimits;
    use idar_core::leave;

    #[test]
    fn leave_form_is_completable() {
        // Ex. 3.12 with φ = f: completable by additions alone, so the
        // static screener's greedy chase decides it before any state is
        // expanded (probe order: screen → exploration).
        let g = leave::example_3_12();
        let r = completability(&g, &CompletabilityOptions::default());
        assert_eq!(r.verdict, Verdict::Holds);
        assert_eq!(r.method, Method::StaticScreen);
        assert_eq!(r.stats.states, 0);
        assert!(g.is_complete_run(r.witness_run.as_ref().unwrap()));

        // Forcing the explorer (depth 3, A−) must agree and find a run.
        let forced = completability(
            &g,
            &CompletabilityOptions {
                force_method: Some(Method::BoundedExploration),
                ..CompletabilityOptions::default()
            },
        );
        assert_eq!(forced.verdict, Verdict::Holds);
        assert_eq!(forced.method, Method::BoundedExploration);
        assert!(g.is_complete_run(forced.witness_run.as_ref().unwrap()));
    }

    #[test]
    fn leave_form_with_f_and_not_s_is_not_completable() {
        // Sec. 3.5: "if we start from the initial instance there is no full
        // run" for φ = f ∧ ¬s. The run space of the leave form is infinite
        // (unboundedly many periods), so we add a multiplicity cap: with
        // duplicates capped the space closes, and — every guard being
        // multiplicity-blind and `s` being permanently undeletable — the
        // capped verdict reflects the true one. The library reports
        // `Fails` only because the capped search closed.
        let g = leave::example_3_12().with_completion(idar_core::Formula::parse("f & !s").unwrap());
        let limits = ExploreLimits {
            multiplicity_cap: Some(2),
            ..ExploreLimits::small()
        };
        let r = completability(&g, &CompletabilityOptions::with_limits(limits));
        // Capped exploration exhausted the space without a complete state.
        assert_ne!(r.verdict, Verdict::Holds);
        assert!(r.witness_run.is_none());
    }

    #[test]
    fn invariant_check_via_completability() {
        // Sec. 3.5: φ = d[a ∧ r] asks whether a decision can ever hold
        // both accept and reject. With Ex. 3.12's rules it cannot.
        let g = leave::example_3_12().with_completion(leave::both_decisions_invariant());
        let limits = ExploreLimits {
            multiplicity_cap: Some(2),
            ..ExploreLimits::small()
        };
        let r = completability(&g, &CompletabilityOptions::with_limits(limits));
        assert_ne!(r.verdict, Verdict::Holds);
    }

    #[test]
    fn dispatch_selects_expected_methods() {
        use idar_core::{AccessRules, Formula, Instance, Schema};
        use std::sync::Arc;
        // Positive/positive → saturation.
        let schema = Arc::new(Schema::parse("a(b)").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::True);
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("a").unwrap(),
        );
        assert_eq!(select_method(&g), Method::PositiveSaturation);

        // Depth-1 with negation → canonical.
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::parse("!a").unwrap());
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("a").unwrap(),
        );
        assert_eq!(select_method(&g), Method::Depth1Canonical);

        // Deep, positive rules, negative completion → NP.
        let schema = Arc::new(Schema::parse("a(b)").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::True);
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("!a").unwrap(),
        );
        assert_eq!(select_method(&g), Method::NpTwoPhase);

        // Deep with negated rules → bounded.
        let schema = Arc::new(Schema::parse("a(b)").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::parse("!b").unwrap());
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::parse("a").unwrap(),
        );
        assert_eq!(select_method(&g), Method::BoundedExploration);
    }

    #[test]
    fn methods_agree_on_small_forms() {
        // Differential test: on depth-1 positive forms, the three exact
        // methods must return the exact verdict; bounded exploration must
        // never *contradict* it (it may return Unknown on `Fails` cases
        // whose run space is infinite — unbounded duplicate additions).
        use idar_core::{AccessRules, Formula, Instance, Right, Schema};
        use std::sync::Arc;
        let cases = [
            (vec![("a", "true"), ("b", "a")], "a & b", Verdict::Holds),
            (vec![("a", "b"), ("b", "a")], "a", Verdict::Fails),
            (vec![("a", "true"), ("b", "a & zz")], "b", Verdict::Fails),
        ];
        for (rules_spec, completion, expected) in cases {
            let schema = Arc::new(Schema::parse("a, b, zz").unwrap());
            let mut rules = AccessRules::new(&schema);
            for (l, add) in &rules_spec {
                rules.set(
                    Right::Add,
                    schema.resolve(l).unwrap(),
                    Formula::parse(add).unwrap(),
                );
            }
            let g = GuardedForm::new(
                schema.clone(),
                rules,
                Instance::empty(schema),
                Formula::parse(completion).unwrap(),
            );
            for m in [
                Method::PositiveSaturation,
                Method::Depth1Canonical,
                Method::NpTwoPhase,
            ] {
                let r = completability(
                    &g,
                    &CompletabilityOptions {
                        limits: ExploreLimits::small(),
                        force_method: Some(m),
                        ..CompletabilityOptions::default()
                    },
                );
                assert_eq!(r.verdict, expected, "method {m} on {completion}");
            }
            let bounded = completability(
                &g,
                &CompletabilityOptions {
                    limits: ExploreLimits::small(),
                    force_method: Some(Method::BoundedExploration),
                    ..CompletabilityOptions::default()
                },
            );
            assert_ne!(
                bounded.verdict,
                expected.not(),
                "bounded exploration contradicts the exact verdict on {completion}"
            );
        }
    }
}
