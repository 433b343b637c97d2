//! Workflow-level correctness analysis.
//!
//! Footnote 1 of the paper: semi-soundness "is a weaker version of the
//! usual notion of soundness for workflow nets which also requires that
//! each event occurs in at least one possible run of the workflow". This
//! module implements that stronger notion: a form is **sound** when it is
//! semi-sound *and* every schema-level event (an `add` or `del` on a
//! schema edge that any rule permits) actually occurs on some complete
//! run. Events that can never occur on a complete run are *dead* — in a
//! form-based WIS they are fields or retractions the designer wired up
//! but no user can ever meaningfully exercise.

use crate::{Event, WorkflowGraph};
use idar_core::{GuardedForm, Right};
use idar_solver::explore::ExploreLimits;
use idar_solver::semisound::{semisoundness, SemisoundnessOptions};
use idar_solver::{completability, CompletabilityOptions, Verdict};
use std::collections::BTreeSet;

/// The full analysis report for a guarded form.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Def. 3.13.
    pub completability: Verdict,
    /// Def. 3.14.
    pub semisoundness: Verdict,
    /// Footnote 1 soundness: semi-sound and no dead events. `Unknown`
    /// whenever either ingredient is unknown.
    pub soundness: Verdict,
    /// Events that occur on at least one complete run within the explored
    /// graph.
    pub live_events: BTreeSet<Event>,
    /// Declared events (a non-`false` rule exists) that never occur on a
    /// complete run. Exact when the exploration closed.
    pub dead_events: BTreeSet<Event>,
    /// Whether the event analysis covered the whole reachable space.
    pub events_exact: bool,
}

/// Analyse a guarded form within the given exploration limits.
pub fn analyse(form: &GuardedForm, limits: ExploreLimits) -> Analysis {
    let completability = completability(form, &CompletabilityOptions::with_limits(limits)).verdict;
    let semi = semisoundness(form, &SemisoundnessOptions::with_limits(limits)).verdict;

    let w = WorkflowGraph::build(form, limits);
    // An event occurrence s —u→ t lies on a complete run iff t is
    // completable (s is reachable by construction and anything completable
    // extends to completion).
    let mut live_events = BTreeSet::new();
    for i in 0..w.state_count() {
        for (u, j) in w.successors(i) {
            if w.is_completable_state(j.index()) {
                live_events.insert(w.event_of(i, &u));
            }
        }
    }
    // Declared events: rules that are not constant-false.
    let mut dead_events = BTreeSet::new();
    for e in form.schema().edge_ids() {
        for right in [Right::Add, Right::Del] {
            if form.rules().get(right, e) != &idar_core::Formula::False {
                let ev = Event { right, edge: e };
                if !live_events.contains(&ev) {
                    dead_events.insert(ev);
                }
            }
        }
    }

    let events_exact = w.closed();
    let soundness = match (semi, dead_events.is_empty(), events_exact) {
        (Verdict::Fails, _, _) => Verdict::Fails,
        (Verdict::Holds, false, true) => Verdict::Fails,
        (Verdict::Holds, true, true) => Verdict::Holds,
        _ => Verdict::Unknown,
    };

    Analysis {
        completability,
        semisoundness: semi,
        soundness,
        live_events,
        dead_events,
        events_exact,
    }
}

/// Render an analysis as a human-readable report (what the fb-wis would
/// show a form designer whose form was rejected).
pub fn report(form: &GuardedForm, a: &Analysis) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let frag = idar_core::fragment::classify(form);
    let row = idar_core::fragment::table1_row(frag);
    let _ = writeln!(out, "fragment:       {frag}");
    let _ = writeln!(
        out,
        "theory:         completability {}, semi-soundness {}",
        row.completability, row.semisoundness
    );
    let _ = writeln!(out, "completability: {}", a.completability);
    let _ = writeln!(out, "semi-soundness: {}", a.semisoundness);
    let _ = writeln!(out, "soundness:      {}", a.soundness);
    if !a.dead_events.is_empty() {
        let _ = writeln!(out, "dead events ({}):", a.dead_events.len());
        for ev in &a.dead_events {
            let _ = writeln!(out, "  {} {}", ev.right, form.schema().path_of(ev.edge));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{AccessRules, Formula, Instance, Schema};
    use std::sync::Arc;

    fn form(schema: &str, rules: &[(&str, &str, &str)], completion: &str) -> GuardedForm {
        let schema = Arc::new(Schema::parse(schema).unwrap());
        let mut table = AccessRules::new(&schema);
        for (l, add, del) in rules {
            table.set_both(
                schema.resolve(l).unwrap(),
                Formula::parse(add).unwrap(),
                Formula::parse(del).unwrap(),
            );
        }
        let init = Instance::empty(schema.clone());
        GuardedForm::new(schema, table, init, Formula::parse(completion).unwrap())
    }

    #[test]
    fn sound_form() {
        // a then b, a deletable before b; completion a ∧ b. Every declared
        // event occurs on some complete run.
        let g = form(
            "a, b",
            &[("a", "!a", "!b"), ("b", "a & !b", "false")],
            "a & b",
        );
        let a = analyse(&g, ExploreLimits::small());
        assert_eq!(a.completability, Verdict::Holds);
        assert_eq!(a.semisoundness, Verdict::Holds);
        assert_eq!(a.soundness, Verdict::Holds);
        assert!(a.dead_events.is_empty());
        // add a, del a, add b = 3 live events.
        assert_eq!(a.live_events.len(), 3);
    }

    #[test]
    fn semisound_but_not_sound() {
        // `c` is addable but adding it never helps and no complete run
        // contains it… make c block nothing (semi-sound) but completion
        // not mention it, and c frozen once added — c's event occurs on
        // runs that still complete, so to make it dead, make c *presence*
        // incompatible with completion: completion = a ∧ ¬c, c deletable
        // never ⇒ adding c kills completability ⇒ not semi-sound. Instead:
        // make the DELETE of b dead: b can be deleted only after
        // completion-blocking c… simplest dead event: del b allowed only
        // when c present, but c can never be added (add c = false).
        let g = form(
            "a, b, c",
            &[
                ("a", "!a", "false"),
                ("b", "a & !b", "c"),
                ("c", "false", "false"),
            ],
            "a & b",
        );
        let a = analyse(&g, ExploreLimits::small());
        assert_eq!(a.semisoundness, Verdict::Holds);
        assert_eq!(a.soundness, Verdict::Fails);
        // The dead event is `del b` (declared with guard c, never
        // enabled). `add c` is constant false, hence not declared.
        assert_eq!(a.dead_events.len(), 1);
        let dead = a.dead_events.iter().next().unwrap();
        assert_eq!(dead.right, Right::Del);
        assert_eq!(g.schema().path_of(dead.edge), "b");
    }

    #[test]
    fn unsound_because_not_semisound() {
        let g = form(
            "g, t",
            &[("g", "!t & !g", "false"), ("t", "!t", "false")],
            "g",
        );
        let a = analyse(&g, ExploreLimits::small());
        assert_eq!(a.semisoundness, Verdict::Fails);
        assert_eq!(a.soundness, Verdict::Fails);
    }

    #[test]
    fn report_renders() {
        let g = form(
            "a, b",
            &[("a", "!a", "!b"), ("b", "a & !b", "false")],
            "a & b",
        );
        let a = analyse(&g, ExploreLimits::small());
        let r = report(&g, &a);
        assert!(r.contains("fragment:"));
        assert!(r.contains("semi-soundness: holds"));
    }

    #[test]
    fn leave_application_analysis() {
        // The paper's Sec. 3.5 variant is completable but not semi-sound;
        // the analysis must say so (with a multiplicity cap to keep the
        // space finite).
        let g = idar_core::leave::section_3_5_variant();
        let limits = ExploreLimits {
            multiplicity_cap: Some(1),
            max_states: 50_000,
            ..ExploreLimits::small()
        };
        let a = analyse(&g, limits);
        assert_eq!(a.completability, Verdict::Holds);
        assert_eq!(a.semisoundness, Verdict::Fails);
        assert_eq!(a.soundness, Verdict::Fails);
    }
}
