//! The naive reference explorer the corpus verdicts are checked
//! against: a breadth-first search that deduplicates states by their
//! isomorphism code (`Instance::iso_code`, independent of the solver's
//! canonical keys and stores), with no multiplicity cap. It also defines
//! which forms are small enough for the corpus: those whose whole space
//! it closes.

use idar_core::GuardedForm;
use std::collections::HashMap;

/// State and size bounds of the reference search; a form whose space
/// exceeds them gets no reference verdict.
pub const MAX_STATES: usize = 1_000;
/// Largest instance (live nodes) the reference expands.
pub const MAX_STATE_SIZE: usize = 64;

/// Exact verdicts of a closed reference search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdicts {
    /// Some reachable instance satisfies the completion formula.
    pub completable: bool,
    /// Every reachable instance can still reach a complete one.
    pub semisound: bool,
    /// Reachable states (up to isomorphism).
    pub states: usize,
}

/// Explore `form`'s whole reachable space, or return `None` when it
/// exceeds [`MAX_STATES`] or [`MAX_STATE_SIZE`].
pub fn verdicts(form: &GuardedForm) -> Option<Verdicts> {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut states = vec![form.initial().clone()];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new()];
    ids.insert(states[0].iso_code(), 0);
    let mut next = 0;
    while next < states.len() {
        let from = next;
        next += 1;
        for u in form.allowed_updates(&states[from]) {
            let mut succ = states[from].clone();
            form.apply(&mut succ, &u).ok()?;
            if succ.live_count() > MAX_STATE_SIZE {
                return None;
            }
            let code = succ.iso_code();
            let to = match ids.get(&code) {
                Some(&to) => to,
                None => {
                    if states.len() >= MAX_STATES {
                        return None;
                    }
                    ids.insert(code, states.len());
                    states.push(succ);
                    preds.push(Vec::new());
                    states.len() - 1
                }
            };
            preds[to].push(from);
        }
    }
    // Backward reachability from the complete states.
    let mut live: Vec<bool> = states.iter().map(|s| form.is_complete(s)).collect();
    let mut stack: Vec<usize> = (0..states.len()).filter(|&i| live[i]).collect();
    let completable = !stack.is_empty();
    while let Some(s) = stack.pop() {
        for &p in &preds[s] {
            if !live[p] {
                live[p] = true;
                stack.push(p);
            }
        }
    }
    Some(Verdicts {
        completable,
        semisound: live.iter().all(|&l| l),
        states: states.len(),
    })
}
