//! Dependency units and maintenance-mode classification.
//!
//! The *unit graph* splits the program into the strongly connected
//! components of the predicate dependency graph, topologically ordered,
//! and classifies every unit into one of two maintenance strategies, each
//! guaranteed to reproduce a from-scratch run on the post-update database:
//!
//! * [`Mode::DRed`] — pure unit, recursive or not: delete-and-rederive.
//! * [`Mode::Replay`] — order-sensitive unit (monotonic aggregates,
//!   Skolem invention, external calls, `@post` compaction) or a pure unit
//!   that feeds one: its relations are cleared and its rules re-run
//!   through the engine's own stratum loop, which reproduces the baseline
//!   byte-for-byte because its inputs are byte-identical.
//!
//! Replaying one unit on its own is always faithful. Strata are
//! longest-path levels over the condensation of the dependency graph
//! (`eval::resolve`), so every cross-component dependency raises the
//! stratum: two units of one stratum never read each other, and the
//! baseline run, like the replay, evaluates a unit only after all its
//! inputs have converged.
//!
//! Classification can also conclude that no incremental strategy is safe
//! ([`UnitGraph::fallback_full`]): `@post` compaction discards the
//! intermediate aggregate emissions a from-scratch run exposes to readers,
//! so every reader of a posted predicate must use its value column in a
//! direction-compatible guard (`>=`/`>` for `max`-posted, `<=`/`<` for
//! `min`-posted) for final-state maintenance to subsume the intermediate
//! derivations. Programs that fail this check fall back to full
//! recomputation per update — still correct, never wrong.

use crate::ast::{Directive, PostOp, Program};
use crate::db::Database;
use crate::error::Result;
use crate::eval::resolve::{tarjan, CompiledProgram, RExpr, RLiteral, RRule, RTerm};
use crate::fx::{FxHashMap, FxHashSet};

/// Maintenance strategy of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Delete-and-rederive (pure).
    DRed,
    /// Clear and re-run the unit's rules through the engine.
    Replay,
}

/// One strongly connected component of the predicate dependency graph,
/// with the rules deriving its predicates.
#[derive(Debug)]
pub(crate) struct Unit {
    /// Rule indices (ascending program order).
    pub rules: Vec<usize>,
    /// Head predicates derived by this unit (sorted, deduped).
    pub preds: Vec<u32>,
    /// Positive body predicates read from outside the unit.
    pub pos_inputs: Vec<u32>,
    /// Negated body predicates (always outside the unit — stratified).
    pub neg_inputs: Vec<u32>,
    /// Stratum of the unit's predicates.
    pub stratum: usize,
    /// Chosen maintenance strategy.
    pub mode: Mode,
}

impl Unit {
    /// True when any of the given predicate deltas feed this unit.
    pub fn reads_any(&self, changed: &FxHashMap<u32, super::delta::PredDelta>) -> bool {
        self.pos_inputs.iter().any(|p| changed.contains_key(p))
            || self.neg_inputs.iter().any(|p| changed.contains_key(p))
    }

    /// True when a *negated* input changed — maintained units replay
    /// instead of propagating through negation.
    pub fn negated_input_changed(&self, changed: &FxHashMap<u32, super::delta::PredDelta>) -> bool {
        self.neg_inputs.iter().any(|p| changed.contains_key(p))
    }
}

/// The classified unit graph of one program against one database.
#[derive(Debug)]
pub(crate) struct UnitGraph {
    /// Units in evaluation order: ascending stratum, topological within.
    pub units: Vec<Unit>,
    /// All derived (head) predicates.
    pub derived: FxHashSet<u32>,
    /// `@post` operations in the order [`crate::Engine::run`] applies
    /// them: auto-compactions first, then explicit directives.
    pub posted: Vec<(u32, String, PostOp)>,
    /// True when the subsumption check failed: incremental maintenance
    /// cannot reproduce a from-scratch run, fall back to recomputing
    /// everything on every update.
    pub fallback_full: bool,
}

/// Builds and classifies the unit graph. `rules` must be resolved against
/// `db` (predicates interned).
pub(crate) fn build_units(
    program: &Program,
    compiled: &CompiledProgram,
    rules: &[RRule],
    db: &Database,
) -> Result<UnitGraph> {
    // -- derived predicates and the pred-level dependency graph ----------
    let mut derived: FxHashSet<u32> = FxHashSet::default();
    for rule in rules {
        for h in &rule.head {
            derived.insert(h.pred);
        }
    }
    let mut nodes: Vec<u32> = derived.iter().copied().collect();
    nodes.sort_unstable();
    let node_of: FxHashMap<u32, usize> = nodes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for rule in rules {
        let heads: Vec<usize> = rule.head.iter().map(|h| node_of[&h.pred]).collect();
        // Conjunctive heads share a unit (they are derived together).
        for i in 1..heads.len() {
            adj[heads[0]].push(heads[i]);
            adj[heads[i]].push(heads[0]);
        }
        for lit in &rule.body {
            let pred = match lit {
                RLiteral::Atom { atom } => atom.pred,
                RLiteral::Negated(a) => a.pred,
                _ => continue,
            };
            if let Some(&b) = node_of.get(&pred) {
                for &h in &heads {
                    adj[b].push(h);
                }
            }
        }
    }
    let comp = tarjan(&adj);
    let ncomp = comp.iter().copied().max().map(|c| c + 1).unwrap_or(0);

    // -- group predicates and rules into units ---------------------------
    let mut unit_preds: Vec<Vec<u32>> = vec![Vec::new(); ncomp];
    for (i, &p) in nodes.iter().enumerate() {
        unit_preds[comp[i]].push(p);
    }
    let mut unit_rules: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for (ri, rule) in rules.iter().enumerate() {
        let c = comp[node_of[&rule.head[0].pred]];
        debug_assert!(
            rule.head.iter().all(|h| comp[node_of[&h.pred]] == c),
            "conjunctive heads share a component"
        );
        unit_rules[c].push(ri);
    }

    // -- unit-level edges and a deterministic topological order ----------
    let mut uadj: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); ncomp];
    let mut indeg = vec![0usize; ncomp];
    for (c, rs) in unit_rules.iter().enumerate() {
        for &ri in rs {
            for lit in &rules[ri].body {
                let pred = match lit {
                    RLiteral::Atom { atom } => atom.pred,
                    RLiteral::Negated(a) => a.pred,
                    _ => continue,
                };
                if let Some(&b) = node_of.get(&pred) {
                    let from = comp[b];
                    if from != c && uadj[from].insert(c) {
                        indeg[c] += 1;
                    }
                }
            }
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(ncomp);
    let mut ready: Vec<usize> = (0..ncomp).filter(|&c| indeg[c] == 0).collect();
    ready.sort_unstable_by_key(|&c| std::cmp::Reverse(min_rule(&unit_rules[c])));
    while let Some(c) = ready.pop() {
        order.push(c);
        let mut next: Vec<usize> = Vec::new();
        for &d in &uadj[c] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                next.push(d);
            }
        }
        ready.extend(next);
        ready.sort_unstable_by_key(|&c| std::cmp::Reverse(min_rule(&unit_rules[c])));
    }
    debug_assert_eq!(order.len(), ncomp, "unit graph must be acyclic");

    // -- posted predicates (auto-compaction, then explicit @post) --------
    let mut posted: Vec<(u32, String, PostOp)> = Vec::new();
    for (name, op) in &compiled.auto_post {
        if let Some(p) = db.find_pred(name) {
            posted.push((p, name.clone(), op.clone()));
        }
    }
    for d in &program.directives {
        if let Directive::Post(name, op) = d {
            if let Some(p) = db.find_pred(name) {
                posted.push((p, name.clone(), op.clone()));
            }
        }
    }
    let posted_preds: FxHashSet<u32> = posted.iter().map(|(p, _, _)| *p).collect();

    // -- assemble units in (stratum, topo) order -------------------------
    let stratum_of = |p: u32| -> usize {
        compiled
            .pred_stratum
            .get(db.pred_name(p))
            .copied()
            .unwrap_or(0)
    };
    let mut units: Vec<Unit> = Vec::with_capacity(ncomp);
    for &c in &order {
        let preds = {
            let mut ps = unit_preds[c].clone();
            ps.sort_unstable();
            ps
        };
        let pset: FxHashSet<u32> = preds.iter().copied().collect();
        let mut pos_inputs: Vec<u32> = Vec::new();
        let mut neg_inputs: Vec<u32> = Vec::new();
        for &ri in &unit_rules[c] {
            for lit in &rules[ri].body {
                match lit {
                    RLiteral::Atom { atom } if !pset.contains(&atom.pred) => {
                        pos_inputs.push(atom.pred)
                    }
                    RLiteral::Negated(a) => neg_inputs.push(a.pred),
                    _ => {}
                }
            }
        }
        pos_inputs.sort_unstable();
        pos_inputs.dedup();
        neg_inputs.sort_unstable();
        neg_inputs.dedup();
        let impure = unit_rules[c].iter().any(|&ri| !rules[ri].par_full);
        let is_posted = preds.iter().any(|p| posted_preds.contains(p));
        units.push(Unit {
            rules: unit_rules[c].clone(),
            stratum: stratum_of(preds[0]),
            preds,
            pos_inputs,
            neg_inputs,
            mode: if impure || is_posted {
                Mode::Replay
            } else {
                Mode::DRed
            },
        });
    }
    units.sort_by_key(|u| u.stratum); // stable: keeps topo order within
    let unit_of_pred: FxHashMap<u32, usize> = units
        .iter()
        .enumerate()
        .flat_map(|(i, u)| u.preds.iter().map(move |&p| (p, i)))
        .collect();

    // -- replay taint -----------------------------------------------------
    // The inputs of a replayed unit must match the baseline
    // byte-for-byte (contents *and* row order) or its aggregate totals can
    // drift by float-accumulation order — so any derived input of a
    // replayed unit is itself replayed, transitively.
    let mut stack: Vec<usize> = (0..units.len())
        .filter(|&i| units[i].mode == Mode::Replay)
        .collect();
    while let Some(i) = stack.pop() {
        let feeders: Vec<usize> = units[i]
            .pos_inputs
            .iter()
            .chain(&units[i].neg_inputs)
            .filter_map(|p| unit_of_pred.get(p).copied())
            .collect();
        for j in feeders {
            if units[j].mode != Mode::Replay {
                units[j].mode = Mode::Replay;
                stack.push(j);
            }
        }
    }

    // -- subsumption check for readers of posted predicates --------------
    let mut fallback_full = false;
    for (p, _, op) in &posted {
        let unit = unit_of_pred.get(p).copied();
        for (ri, rule) in rules.iter().enumerate() {
            let in_own_unit = unit.is_some_and(|ui| units[ui].rules.contains(&ri));
            if in_own_unit {
                continue; // replay regenerates the intermediates
            }
            if !reader_is_subsumption_safe(rule, *p, op) {
                fallback_full = true;
            }
        }
    }

    Ok(UnitGraph {
        units,
        derived,
        posted,
        fallback_full,
    })
}

fn min_rule(rules: &[usize]) -> usize {
    rules.iter().copied().min().unwrap_or(usize::MAX)
}

/// True when `rule`'s use of posted predicate `p` is subsumed by the
/// compacted final state: every occurrence's value-column term is a
/// variable used *only* in direction-compatible comparison guards. A
/// from-scratch run derives through all intermediate aggregate emissions;
/// compaction keeps the extremal row per group, so a reader passes exactly
/// when anything derivable from an intermediate row is also derivable from
/// the surviving one.
fn reader_is_subsumption_safe(rule: &RRule, p: u32, op: &PostOp) -> bool {
    let (col, keep_max) = match op {
        PostOp::MaxBy(c) => (*c, true),
        PostOp::MinBy(c) => (*c, false),
    };
    let mut value_vars: Vec<u32> = Vec::new();
    let mut reads_p = false;
    for lit in &rule.body {
        match lit {
            RLiteral::Atom { atom } if atom.pred == p => {
                reads_p = true;
                match atom.terms.get(col) {
                    Some(RTerm::Var(v)) => value_vars.push(*v),
                    // A constant or missing value column joins on exact
                    // values: intermediates are not subsumed.
                    _ => return false,
                }
            }
            RLiteral::Negated(a) if a.pred == p => return false,
            _ => {}
        }
    }
    if !reads_p {
        return true;
    }
    // Each value variable may appear in exactly one atom position (its
    // own), nowhere in the head, and only in monotone guards.
    for &v in &value_vars {
        let mut atom_occurrences = 0usize;
        for lit in &rule.body {
            match lit {
                RLiteral::Atom { atom } | RLiteral::Negated(atom) => {
                    for t in &atom.terms {
                        if term_uses_var(t, v) {
                            atom_occurrences += 1;
                        }
                    }
                }
                RLiteral::Cond(e) => {
                    if expr_uses_var(e, v) && !is_monotone_guard(e, v, keep_max) {
                        return false;
                    }
                }
                RLiteral::Let(_, e) => {
                    if expr_uses_var(e, v) {
                        return false;
                    }
                }
                RLiteral::Agg { agg, .. } => {
                    if expr_uses_var(&agg.expr, v) || agg.contributors.contains(&v) {
                        return false;
                    }
                }
            }
        }
        if atom_occurrences != 1 {
            return false;
        }
        for h in &rule.head {
            if h.terms.iter().any(|t| term_uses_var(t, v)) {
                return false;
            }
        }
    }
    true
}

fn term_uses_var(t: &RTerm, v: u32) -> bool {
    match t {
        RTerm::Var(u) => *u == v,
        RTerm::Const(_) => false,
        RTerm::Skolem { args, .. } => args.iter().any(|a| term_uses_var(a, v)),
    }
}

fn expr_uses_var(e: &RExpr, v: u32) -> bool {
    match e {
        RExpr::Var(u) => *u == v,
        RExpr::Const(_) => false,
        RExpr::Binary(_, a, b) | RExpr::Cmp(_, a, b) => expr_uses_var(a, v) || expr_uses_var(b, v),
        RExpr::Call { args, .. } => args.iter().any(|a| expr_uses_var(a, v)),
    }
}

/// `v >= e` / `v > e` (max-posted) or `v <= e` / `v < e` (min-posted),
/// in either orientation, with `v` absent from the other side.
fn is_monotone_guard(e: &RExpr, v: u32, keep_max: bool) -> bool {
    use crate::ast::CmpOp::*;
    let RExpr::Cmp(op, a, b) = e else {
        return false;
    };
    let var_left = matches!(**a, RExpr::Var(u) if u == v) && !expr_uses_var(b, v);
    let var_right = matches!(**b, RExpr::Var(u) if u == v) && !expr_uses_var(a, v);
    match (var_left, var_right) {
        (true, false) => {
            if keep_max {
                matches!(op, Gt | Ge)
            } else {
                matches!(op, Lt | Le)
            }
        }
        (false, true) => {
            if keep_max {
                matches!(op, Lt | Le)
            } else {
                matches!(op, Gt | Ge)
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::resolve::{compile, resolve_rules};

    fn graph_of(src: &str) -> (UnitGraph, Database, Vec<RRule>, Program) {
        let program = Program::parse(src).unwrap();
        let compiled = compile(&program).unwrap();
        let mut db = Database::new();
        let rules = resolve_rules(&program, &mut db).unwrap();
        let g = build_units(&program, &compiled, &rules, &db).unwrap();
        (g, db, rules, program)
    }

    /// Index of the unit deriving `pred`.
    fn unit_of(g: &UnitGraph, db: &Database, pred: &str) -> usize {
        let p = db.find_pred(pred).unwrap();
        g.units.iter().position(|u| u.preds.contains(&p)).unwrap()
    }

    fn unit_mode(g: &UnitGraph, db: &Database, pred: &str) -> Mode {
        g.units[unit_of(g, db, pred)].mode
    }

    #[test]
    fn closelink_units_split_aggregate_from_pure_recursion() {
        let (g, db, _, _) = graph_of(
            "acc(X, Y, V) :- own(X, Y, W), X != Y, V = msum(W, <X, Y>).\n\
             acc(X, Y, V) :- own(X, Z, W1), Z != X, acc(Z, Y, W2), Y != X, V = msum(W1 * W2, <Z>).\n\
             cl(X, Y) :- acc(X, Y, V), th(T), V >= T.\n\
             cl(X, Y) :- cl(Y, X).",
        );
        assert!(!g.fallback_full);
        assert_eq!(unit_mode(&g, &db, "acc"), Mode::Replay);
        assert_eq!(unit_mode(&g, &db, "cl"), Mode::DRed);
        // acc (the replayed unit) evaluates before cl.
        let acc = unit_of(&g, &db, "acc");
        let cl = unit_of(&g, &db, "cl");
        assert!(acc < cl);
    }

    #[test]
    fn pure_units_get_dred_recursive_or_not() {
        let (g, db, _, _) = graph_of(
            "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).\n\
             summary(X) :- t(X, _), n(X).",
        );
        assert_eq!(unit_mode(&g, &db, "t"), Mode::DRed);
        assert_eq!(unit_mode(&g, &db, "summary"), Mode::DRed);
    }

    #[test]
    fn aggregate_feeder_is_tainted_to_replay() {
        // base is pure and non-recursive, but its row order feeds the
        // aggregate in total — so it must be replayed, not DRed-maintained.
        // The reader sits a stratum above it.
        let (g, db, _, _) = graph_of(
            "base(X, Y, W) :- e(X, Y, W).\n\
             acc(X, V) :- base(X, _, W), not skip(X), V = msum(W, <X>).",
        );
        assert_eq!(unit_mode(&g, &db, "base"), Mode::Replay);
        assert_eq!(unit_mode(&g, &db, "acc"), Mode::Replay);
        let b = unit_of(&g, &db, "base");
        let a = unit_of(&g, &db, "acc");
        assert!(g.units[b].stratum < g.units[a].stratum);
    }

    #[test]
    fn replayed_aggregate_taints_derived_inputs() {
        // The aggregate reads helper, a derived unit: replay correctness
        // needs helper's contents *and row order* to match the baseline,
        // so the taint replays helper too. Strata split on every
        // cross-component dependency, so helper converges in an earlier
        // stratum than acc and a standalone replay of acc sees it final.
        let (g, db, _, _) = graph_of(
            "helper(X, Y, W) :- e(X, Y, W), own(X).\n\
             acc(X, V) :- helper(X, _, W), V = msum(W, <X>).",
        );
        assert!(
            g.units[unit_of(&g, &db, "helper")].stratum < g.units[unit_of(&g, &db, "acc")].stratum
        );
        assert_eq!(unit_mode(&g, &db, "helper"), Mode::Replay);
        assert_eq!(unit_mode(&g, &db, "acc"), Mode::Replay);
    }

    #[test]
    fn taint_reaches_feeders_of_feeders() {
        let (g, db, _, _) = graph_of(
            "pre(X, W) :- e(X, W).\n\
             helper(X, W) :- pre(X, W), own(X).\n\
             acc(X, V) :- helper(X, W), V = msum(W, <X>).\n\
             side(X) :- pre(X, _).",
        );
        assert_eq!(unit_mode(&g, &db, "pre"), Mode::Replay);
        assert_eq!(unit_mode(&g, &db, "helper"), Mode::Replay);
        assert_eq!(unit_mode(&g, &db, "side"), Mode::DRed);
    }

    #[test]
    fn downward_guard_on_max_posted_pred_forces_full_fallback() {
        // `V <= T` on a max-posted aggregate: intermediate emissions can
        // fire where the final value does not — no incremental strategy is
        // safe, fall back to full recomputation.
        let (g, _, _, _) = graph_of(
            "acc(X, V) :- own(X, W), V = msum(W, <X>).\n\
             small(X) :- acc(X, V), V <= 0.5.",
        );
        assert!(g.fallback_full);
    }

    #[test]
    fn upward_guard_on_max_posted_pred_is_safe() {
        let (g, _, _, _) = graph_of(
            "acc(X, V) :- own(X, W), V = msum(W, <X>).\n\
             big(X) :- acc(X, V), V >= 0.5.",
        );
        assert!(!g.fallback_full);
    }

    #[test]
    fn negation_introduces_separate_strata_units() {
        let (g, db, _, _) = graph_of(
            "reach(Y) :- start(Y). reach(Y) :- reach(X), e(X, Y).\n\
             unreach(X) :- node(X), not reach(X).",
        );
        assert_eq!(unit_mode(&g, &db, "reach"), Mode::DRed);
        assert_eq!(unit_mode(&g, &db, "unreach"), Mode::DRed);
        let ru = unit_of(&g, &db, "reach");
        let uu = unit_of(&g, &db, "unreach");
        assert!(g.units[ru].stratum < g.units[uu].stratum);
        assert_eq!(g.units[uu].neg_inputs.len(), 1);
    }
}
