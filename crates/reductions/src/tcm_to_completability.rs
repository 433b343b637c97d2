//! **Theorem 4.1**: two-counter machines reduce to completability of
//! depth-2 guarded forms — completability and semi-soundness are
//! **undecidable** for `F(A−, φ−, ∞)` (even at depth 2).
//!
//! A configuration `(q, n, m)` is the instance with a `q`-node, `n`
//! `c1`-nodes and `m` `c2`-nodes under the root. Counter updates use the
//! paper's marking protocol: to **increment**, mark every `c1` with a `d`
//! child, raise the root marker `m1`, add the single unmarked `c1` (its
//! absence of `d` is what distinguishes "before" from "after"), then
//! unmark. To **decrement** — the paper's "rather cumbersome procedure" —
//! mark *one* victim with `d`, mark all others with `d′` (label `dd`),
//! unmark the victim, delete it (it is the only markless *leaf*; the
//! others carry children and leaf-only deletion protects them), then
//! unmark the rest.
//!
//! ### Documented repairs to the published sketch
//!
//! The paper's rule listing (a) writes `init(q0,+,0)` where the only
//! transition is `δ(q0,0,+)` — an evident typo we read as the latter —
//! and (b) leaves *re-execution* unguarded: after an increment's cleanup
//! the instance looks exactly like before the increment started, so the
//! protocol could run again within the same active transition and double
//! the counter move. We add two guard families the sketch implies:
//! per-counter "phase complete" markers `mm1`/`mm2` that persist until
//! transition teardown, and a per-transition `done` field `dn⟨t⟩` that
//! closes the working window (`… ∧ ¬dn⟨t⟩` on every protocol rule).
//! Both live at depth 1; the form stays at depth 2 as the theorem states.

use idar_core::{
    AccessRules, Formula, GuardedForm, InstNodeId, Instance, Right, SchemaBuilder, SchemaNodeId,
};
use idar_machines::{Action, Config, State, Test, TwoCounterMachine};
use std::sync::Arc;

/// Label of machine state `q`.
pub fn state_label(q: State) -> String {
    format!("q{}", q.0)
}

/// Label of counter `i ∈ {1, 2}`.
pub fn counter_label(i: u8) -> String {
    format!("c{i}")
}

/// Label of the in-progress marker for transition `idx` (paper:
/// `init(q,s1,s2)`).
pub fn init_label(idx: usize) -> String {
    format!("t{idx}")
}

/// Label of the done marker for transition `idx` (repair, see module doc).
pub fn done_label(idx: usize) -> String {
    format!("dn{idx}")
}

/// The compiled guarded form plus decoding metadata.
#[derive(Debug, Clone)]
pub struct TcmForm {
    pub form: GuardedForm,
    machine: TwoCounterMachine,
    transitions: Vec<(idar_machines::Domain, idar_machines::Effect)>,
}

/// Compile a machine into a depth-2 guarded form whose completability is
/// exactly the machine's halting (Thm 4.1).
pub fn reduce(machine: &TwoCounterMachine) -> TcmForm {
    let transitions: Vec<_> = machine.delta.iter().map(|(&d, &e)| (d, e)).collect();

    // ---- Schema -------------------------------------------------------
    let mut b = SchemaBuilder::new();
    for q in 0..machine.states {
        b.child(SchemaNodeId::ROOT, &state_label(State(q)))
            .expect("fresh");
    }
    let mut counter_edges = [SchemaNodeId::ROOT; 2];
    let mut d_edges = [SchemaNodeId::ROOT; 2];
    let mut dd_edges = [SchemaNodeId::ROOT; 2];
    let mut m_edges = [SchemaNodeId::ROOT; 2];
    let mut mm_edges = [SchemaNodeId::ROOT; 2];
    for i in 0..2u8 {
        let c = b
            .child(SchemaNodeId::ROOT, &counter_label(i + 1))
            .expect("fresh");
        counter_edges[i as usize] = c;
        d_edges[i as usize] = b.child(c, "d").expect("fresh");
        dd_edges[i as usize] = b.child(c, "dd").expect("fresh");
        m_edges[i as usize] = b
            .child(SchemaNodeId::ROOT, &format!("m{}", i + 1))
            .expect("fresh");
        mm_edges[i as usize] = b
            .child(SchemaNodeId::ROOT, &format!("mm{}", i + 1))
            .expect("fresh");
    }
    let mut init_edges = Vec::with_capacity(transitions.len());
    let mut done_edges = Vec::with_capacity(transitions.len());
    for idx in 0..transitions.len() {
        init_edges.push(
            b.child(SchemaNodeId::ROOT, &init_label(idx))
                .expect("fresh"),
        );
        done_edges.push(
            b.child(SchemaNodeId::ROOT, &done_label(idx))
                .expect("fresh"),
        );
    }
    let schema = Arc::new(b.build());

    // ---- Formula helpers ----------------------------------------------
    let lbl = |s: &str| Formula::label(s);
    // `ci[f]` at the root.
    let counter_with = |i: usize, f: Formula| {
        Formula::Path(idar_core::PathExpr::label(&counter_label(i as u8 + 1)).filtered(f))
    };
    // `..[f]` — for rules evaluated at a counter node.
    let at_root = |f: Formula| f.at_parent();

    let mut rules = AccessRules::new(&schema);

    for (idx, &((q, s1, s2), (p, a1, a2))) in transitions.iter().enumerate() {
        let t = init_label(idx);
        let dn = done_label(idx);
        // Root-context "this transition is in its working window".
        let active = lbl(&t).and(lbl(&dn).not());

        // ---- start: A(add, t) -----------------------------------------
        let sigma = |i: usize, s: Test| match s {
            Test::Positive => lbl(&counter_label(i as u8 + 1)),
            Test::Zero => lbl(&counter_label(i as u8 + 1)).not(),
        };
        let mut start = lbl(&state_label(q)).and(sigma(0, s1)).and(sigma(1, s2));
        for other in 0..transitions.len() {
            start = start
                .and(lbl(&init_label(other)).not())
                .and(lbl(&done_label(other)).not());
        }
        rules.set(Right::Add, init_edges[idx], start);

        // ---- per-counter protocols -------------------------------------
        let mut completes: Vec<Formula> = Vec::new();
        for (i, action) in [(0usize, a1), (1usize, a2)] {
            let mi = format!("m{}", i + 1);
            let mmi = format!("mm{}", i + 1);
            match action {
                Action::Keep => completes.push(Formula::True),
                Action::Inc => {
                    // Mark every ci with d while no phase marker is up.
                    rules.add_disjunct(
                        Right::Add,
                        d_edges[i],
                        at_root(active.clone().and(lbl(&mi).not()).and(lbl(&mmi).not()))
                            .and(lbl("d").not()),
                    );
                    // All marked → raise m_i.
                    rules.add_disjunct(
                        Right::Add,
                        m_edges[i],
                        active
                            .clone()
                            .and(counter_with(i, lbl("d").not()).not())
                            .and(lbl(&mi).not())
                            .and(lbl(&mmi).not()),
                    );
                    // Add the one unmarked ci.
                    rules.add_disjunct(
                        Right::Add,
                        counter_edges[i],
                        active
                            .clone()
                            .and(lbl(&mi))
                            .and(lbl(&mmi).not())
                            .and(counter_with(i, lbl("d").not()).not()),
                    );
                    // Unmarked ci present → phase complete marker mm_i.
                    rules.add_disjunct(
                        Right::Add,
                        mm_edges[i],
                        active
                            .clone()
                            .and(lbl(&mi))
                            .and(counter_with(i, lbl("d").not()))
                            .and(lbl(&mmi).not()),
                    );
                    // Tear the d marks down, then m_i.
                    rules.add_disjunct(Right::Del, d_edges[i], at_root(lbl(&t).and(lbl(&mmi))));
                    rules.add_disjunct(
                        Right::Del,
                        m_edges[i],
                        lbl(&t).and(lbl(&mmi)).and(counter_with(i, lbl("d")).not()),
                    );
                    completes.push(
                        lbl(&mmi)
                            .and(lbl(&mi).not())
                            .and(counter_with(i, lbl("d")).not()),
                    );
                }
                Action::Dec => {
                    let unmarked = lbl("d").not().and(lbl("dd").not());
                    // Mark ONE victim with d.
                    rules.add_disjunct(
                        Right::Add,
                        d_edges[i],
                        at_root(
                            active
                                .clone()
                                .and(counter_with(i, lbl("d")).not())
                                .and(lbl(&mi).not())
                                .and(lbl(&mmi).not()),
                        )
                        .and(unmarked.clone()),
                    );
                    // Mark every other ci with dd.
                    rules.add_disjunct(
                        Right::Add,
                        dd_edges[i],
                        at_root(
                            active
                                .clone()
                                .and(counter_with(i, lbl("d")))
                                .and(lbl(&mi).not())
                                .and(lbl(&mmi).not()),
                        )
                        .and(unmarked),
                    );
                    // Everyone marked (victim d, rest dd) → m_i.
                    rules.add_disjunct(
                        Right::Add,
                        m_edges[i],
                        active
                            .clone()
                            .and(counter_with(i, lbl("d")))
                            .and(counter_with(i, lbl("d").not().and(lbl("dd").not())).not())
                            .and(lbl(&mi).not())
                            .and(lbl(&mmi).not()),
                    );
                    // Unmark the victim…
                    rules.add_disjunct(
                        Right::Del,
                        d_edges[i],
                        at_root(lbl(&t).and(lbl(&mi)).and(lbl(&mmi).not())),
                    );
                    // …and delete it: the only markless *leaf* ci.
                    rules.add_disjunct(
                        Right::Del,
                        counter_edges[i],
                        lbl(&t)
                            .and(lbl(&mi))
                            .and(lbl(&mmi).not())
                            .and(counter_with(i, lbl("d")).not()),
                    );
                    // Victim gone (no ci without dd) → mm_i.
                    rules.add_disjunct(
                        Right::Add,
                        mm_edges[i],
                        active
                            .clone()
                            .and(lbl(&mi))
                            .and(counter_with(i, lbl("d")).not())
                            .and(counter_with(i, lbl("dd").not()).not())
                            .and(lbl(&mmi).not()),
                    );
                    // Tear down dd marks, then m_i.
                    rules.add_disjunct(Right::Del, dd_edges[i], at_root(lbl(&t).and(lbl(&mmi))));
                    rules.add_disjunct(
                        Right::Del,
                        m_edges[i],
                        lbl(&t)
                            .and(lbl(&mmi))
                            .and(counter_with(i, lbl("d")).not())
                            .and(counter_with(i, lbl("dd")).not()),
                    );
                    completes.push(
                        lbl(&mmi)
                            .and(lbl(&mi).not())
                            .and(counter_with(i, lbl("d")).not())
                            .and(counter_with(i, lbl("dd")).not()),
                    );
                }
            }
        }

        // ---- state switch ----------------------------------------------
        let both_complete = completes[0].clone().and(completes[1].clone());
        let switch_complete = if p == q {
            Formula::True
        } else {
            let q_edge = schema.resolve(&state_label(q)).expect("state edge");
            let p_edge = schema.resolve(&state_label(p)).expect("state edge");
            rules.add_disjunct(
                Right::Add,
                p_edge,
                active
                    .clone()
                    .and(both_complete.clone())
                    .and(lbl(&state_label(p)).not()),
            );
            rules.add_disjunct(Right::Del, q_edge, lbl(&t).and(lbl(&state_label(p))));
            lbl(&state_label(p)).and(lbl(&state_label(q)).not())
        };

        // ---- done + teardown -------------------------------------------
        rules.set(
            Right::Add,
            done_edges[idx],
            active.and(both_complete).and(switch_complete),
        );
        for (i, action) in [a1, a2].into_iter().enumerate() {
            if action != Action::Keep {
                rules.add_disjunct(Right::Del, mm_edges[i], lbl(&t).and(lbl(&dn)));
            }
        }
        rules.set(
            Right::Del,
            init_edges[idx],
            lbl(&dn).and(lbl("mm1").not()).and(lbl("mm2").not()),
        );
        rules.set(Right::Del, done_edges[idx], lbl(&t).not());
    }

    // Mechanically-built guards carry constant clutter; simplification is
    // semantics-preserving (property-tested) and speeds up every guard
    // evaluation in the exploration.
    rules.map_guards(&schema, |_, _, g| g.simplified());

    // ---- completion: "the disjunction of all accepting states" ---------
    let completion = Formula::disj(
        machine
            .accepting
            .iter()
            .map(|&q| Formula::label(&state_label(q))),
    );

    // ---- initial instance: Conf(q0, 0, 0) -------------------------------
    let mut initial = Instance::empty(schema.clone());
    initial
        .add_child_by_label(InstNodeId::ROOT, &state_label(State(0)))
        .expect("q0 exists");

    TcmForm {
        form: GuardedForm::new(schema, rules, initial, completion),
        machine: machine.clone(),
        transitions,
    }
}

impl TcmForm {
    /// Number of compiled transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Decode a *quiescent* instance (no transition in flight, no marks)
    /// into the machine configuration it represents; `None` otherwise.
    pub fn decode_config(&self, inst: &Instance) -> Option<Config> {
        let root = InstNodeId::ROOT;
        for idx in 0..self.transitions.len() {
            for l in [init_label(idx), done_label(idx)] {
                if inst.children_with_label(root, &l).next().is_some() {
                    return None;
                }
            }
        }
        for l in ["m1", "mm1", "m2", "mm2"] {
            if inst.children_with_label(root, l).next().is_some() {
                return None;
            }
        }
        let mut state = None;
        for q in 0..self.machine.states {
            if inst
                .children_with_label(root, &state_label(State(q)))
                .next()
                .is_some()
                && state.replace(State(q)).is_some()
            {
                return None; // two state labels: mid-switch
            }
        }
        let state = state?;
        let mut counts = [0u64; 2];
        for i in 0..2u8 {
            for c in inst.children_with_label(root, &counter_label(i + 1)) {
                if !inst.is_leaf(c) {
                    return None; // marked counter node: mid-protocol
                }
                counts[i as usize] += 1;
            }
        }
        Some(Config {
            state,
            c1: counts[0],
            c2: counts[1],
        })
    }

    /// Drive the form with a deterministic scheduler (first allowed
    /// update) until it reaches the next quiescent instance or `max_steps`
    /// micro-steps elapse. Returns the decoded configuration on arrival.
    ///
    /// The protocol is confluent, so any scheduler reaches the same next
    /// configuration — the tests cross-check this against the reference
    /// simulator.
    pub fn step_to_next_config(
        &self,
        inst: &mut Instance,
        max_steps: usize,
    ) -> Option<(Config, usize)> {
        let mut steps = 0usize;
        // First leave the current quiescent state (if quiescent).
        let mut left_quiescence = false;
        while steps < max_steps {
            if left_quiescence {
                if let Some(c) = self.decode_config(inst) {
                    return Some((c, steps));
                }
            }
            let updates = self.form.allowed_updates(inst);
            let Some(u) = updates.first() else {
                return None; // stuck (machine has no applicable transition)
            };
            self.form
                .apply_unchecked(inst, u)
                .expect("allowed update applies");
            steps += 1;
            left_quiescence = true;
        }
        None
    }

    /// Run the compiled form like a machine: extract the configuration
    /// trace (including the initial configuration).
    pub fn trace(&self, max_configs: usize, max_micro_steps: usize) -> Vec<Config> {
        let mut inst = self.form.initial().clone();
        let mut out = vec![self
            .decode_config(&inst)
            .expect("initial instance is quiescent")];
        while out.len() < max_configs {
            if self.machine.is_accepting(out.last().unwrap().state) {
                break;
            }
            match self.step_to_next_config(&mut inst, max_micro_steps) {
                Some((c, _)) => out.push(c),
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::fragment::{classify, DepthClass, Polarity};
    use idar_machines::library;
    use idar_solver::{completability, CompletabilityOptions, ExploreLimits, Verdict};

    #[test]
    fn compiled_form_is_depth_2() {
        let tcm = reduce(&library::count_up_then_accept(2));
        assert_eq!(tcm.form.schema().depth(), 2);
        let f = classify(&tcm.form);
        assert_eq!(f.access, Polarity::Unrestricted);
        assert_eq!(f.depth, DepthClass::K(2));
    }

    #[test]
    fn micro_stepped_trace_matches_reference_simulator() {
        for (machine, configs) in [
            (library::count_up_then_accept(3), 5),
            (library::transfer_c1_to_c2(2), 6),
            (library::accept_iff_even(4), 8),
            (library::accept_iff_even(3), 8),
            (library::ping_pong(), 7),
            (library::diverge(), 6),
        ] {
            let tcm = reduce(&machine);
            let got = tcm.trace(configs, 4_000);
            let expected_full = machine.trace(configs as u64);
            let expected: Vec<_> = expected_full.iter().copied().take(got.len()).collect();
            assert_eq!(got, expected, "trace diverged");
            assert!(
                got.len() == configs || got.len() == expected_full.len(),
                "trace stopped early: {} of {}",
                got.len(),
                expected_full.len()
            );
        }
    }

    #[test]
    fn halting_machines_are_completable() {
        for machine in [
            library::count_up_then_accept(0),
            library::count_up_then_accept(2),
            library::transfer_c1_to_c2(1),
            library::accept_iff_even(2),
        ] {
            assert!(machine.run(10_000).halted());
            let tcm = reduce(&machine);
            let r = completability(
                &tcm.form,
                &CompletabilityOptions::with_limits(ExploreLimits {
                    max_states: 2_000_000,
                    max_state_size: 256,
                    ..ExploreLimits::default()
                }),
            );
            assert_eq!(r.verdict, Verdict::Holds, "halting machine must complete");
            // Completion fires the moment the accepting state label
            // appears — possibly mid-teardown of the final transition, so
            // the final instance need not be quiescent. Check the label.
            let run = r.witness_run.unwrap();
            let replay = tcm.form.replay(&run).unwrap();
            let accepting = idar_core::Formula::disj(
                tcm.machine
                    .accepting
                    .iter()
                    .map(|&q| idar_core::Formula::label(&state_label(q))),
            );
            assert!(idar_core::formula::holds_at_root(replay.last(), &accepting));
            // Driving the remaining teardown reaches a quiescent accepting
            // configuration.
            let mut inst = replay.last().clone();
            for _ in 0..200 {
                if tcm.decode_config(&inst).is_some() {
                    break;
                }
                let updates = tcm.form.allowed_updates(&inst);
                let Some(u) = updates.first() else { break };
                tcm.form.apply_unchecked(&mut inst, u).unwrap();
            }
            let config = tcm
                .decode_config(&inst)
                .expect("teardown reaches quiescence");
            assert!(tcm.machine.is_accepting(config.state));
        }
    }

    #[test]
    fn nonhalting_machines_never_complete_within_bounds() {
        for machine in [
            library::diverge(),
            library::ping_pong(),
            library::accept_iff_even(3),
        ] {
            assert!(!machine.run(10_000).halted());
            let tcm = reduce(&machine);
            let r = completability(
                &tcm.form,
                &CompletabilityOptions::with_limits(ExploreLimits {
                    max_states: 30_000,
                    max_state_size: 64,
                    ..ExploreLimits::default()
                }),
            );
            assert_ne!(r.verdict, Verdict::Holds, "diverging machine completed?!");
        }
    }

    #[test]
    fn stuck_odd_machine_is_exactly_incompletable() {
        // accept_iff_even(1): pump to 1, then get stuck at the inner
        // subtraction state. The reachable space of the compiled form is
        // finite, so the bounded explorer *closes* and proves Fails.
        let machine = library::accept_iff_even(1);
        let tcm = reduce(&machine);
        let r = completability(
            &tcm.form,
            &CompletabilityOptions::with_limits(ExploreLimits::default()),
        );
        assert_eq!(r.verdict, Verdict::Fails);
        assert!(r.stats.closed, "finite space should close");
    }

    #[test]
    fn paper_single_transition_example() {
        // δ(q0, 0, +) = (q1, +, 0) from (q0,0,0): the zero test on c2
        // fails, nothing is ever enabled, the form is incompletable.
        let machine = library::paper_single_transition();
        let tcm = reduce(&machine);
        assert!(tcm.form.allowed_updates(tcm.form.initial()).is_empty());
        let r = completability(&tcm.form, &CompletabilityOptions::default());
        assert_eq!(r.verdict, Verdict::Fails);
        assert!(r.stats.closed);
    }

    #[test]
    fn semisoundness_equals_completability_for_deterministic_machines() {
        // Thm 4.1: "in this case, the completability problem and the
        // semi-soundness problem are equivalent."
        use idar_solver::semisound::{semisoundness, SemisoundnessOptions};
        let machine = library::count_up_then_accept(1);
        let tcm = reduce(&machine);
        let c = completability(&tcm.form, &CompletabilityOptions::default()).verdict;
        let s = semisoundness(
            &tcm.form,
            &SemisoundnessOptions {
                limits: ExploreLimits {
                    max_states: 100_000,
                    ..ExploreLimits::small()
                },
                ..Default::default()
            },
        )
        .verdict;
        assert_eq!(c, Verdict::Holds);
        assert_eq!(s, Verdict::Holds);
    }

    #[test]
    fn increment_counts_exactly_once() {
        // Drive count_up(1) to acceptance and check c1 never exceeds 1.
        let machine = library::count_up_then_accept(1);
        let tcm = reduce(&machine);
        let trace = tcm.trace(10, 2_000);
        assert_eq!(
            trace.last().map(|c| (c.c1, c.c2)),
            Some((1, 0)),
            "exactly one increment"
        );
    }
}
