//! Incremental view maintenance.
//!
//! An [`IncrementalEngine`] wraps an [`Engine`] and a [`Database`] into a
//! long-lived session: after one initial fixpoint, base-fact insertions
//! *and deletions* are propagated through the stratified program instead
//! of re-running it from scratch. The contract is exact: after
//! [`IncrementalEngine::apply_update`] the database is set-identical to
//! replaying the whole update log against a fresh database and running
//! the engine once (the *log-replay baseline* — the differential suites
//! compare against exactly that, via [`Database::dump_canonical`] so
//! labelled nulls are compared structurally).
//!
//! Strategy selection is per dependency unit (see [`units`]), and there
//! are two strategies. Pure units, recursive or not, are maintained by
//! delete-and-rederive (DRed); a pure unit whose *negated* input changed
//! is replayed instead, since propagation through negation flips signs.
//! Order-sensitive units (aggregates, Skolem invention, external calls,
//! `@post`) are replayed: cleared and re-run through the engine's own
//! stratum evaluator, which is byte-faithful because the session keeps
//! symbol interning, seed rows, and input row order identical to the
//! baseline. Programs whose readers of compacted aggregate predicates
//! fail the subsumption check fall back to full recomputation per
//! update: slower, never wrong.
//!
//! Sessions do not support provenance tracking (`EngineOptions::provenance`
//! is rejected at construction): replayed relations would lose the row
//! provenance of the initial run.

mod delta;
mod units;

use std::time::{Duration, Instant};

use crate::ast::{Lit, Program, Term};
use crate::db::Database;
use crate::error::{DatalogError, Result};
use crate::eval::agg::AggStore;
use crate::eval::exec::Workspace;
use crate::eval::resolve::{resolve_rules, RRule};
use crate::eval::{apply_post, run_stratum, Engine, RunStats};
use crate::fx::{FxHashMap, FxHashSet};
use crate::value::{Const, Tuple};

use delta::{enumerate, head_tuple, PredDelta, RowsView, RulePlan};
use units::{build_units, Mode, UnitGraph};

/// A transactional base-fact update: deletions are applied first, then
/// insertions. Deleting an absent fact or inserting a present one is a
/// no-op; a fact both deleted and inserted ends up present and derives
/// nothing new. Only extensional (non-derived) predicates may be updated.
#[derive(Debug, Clone, Default)]
pub struct Update {
    /// Facts to insert, as (predicate, tuple).
    pub insert: Vec<(String, Vec<Const>)>,
    /// Facts to delete, as (predicate, tuple).
    pub delete: Vec<(String, Vec<Const>)>,
}

impl Update {
    /// True when the update contains no operations.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }
}

/// How an update was propagated.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateStats {
    /// Units maintained by delete-and-rederive.
    pub dred_units: usize,
    /// Units re-run through the engine.
    pub replayed_units: usize,
    /// Units skipped because no input of theirs changed.
    pub skipped_units: usize,
    /// Facts rederived after overdeletion (DRed phase B).
    pub rederived: usize,
    /// True when the whole program was recomputed (subsumption fallback).
    pub full_recompute: bool,
    /// Wall-clock duration of the update.
    pub duration: Duration,
}

/// Net fact-level effect of one update, base and derived, in canonical
/// (predicate name, tuple) form sorted by predicate then tuple.
#[derive(Debug, Clone, Default)]
pub struct ChangeSet {
    /// Facts that entered the database.
    pub inserted: Vec<(String, Vec<Const>)>,
    /// Facts that left the database.
    pub deleted: Vec<(String, Vec<Const>)>,
    /// Propagation statistics.
    pub stats: UpdateStats,
}

impl ChangeSet {
    /// True when the update changed nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

/// Which maintenance strategies a session selected (diagnostics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionInfo {
    /// Units maintained by delete-and-rederive.
    pub dred_units: usize,
    /// Units replayed through the engine.
    pub replay_units: usize,
    /// True when every update recomputes from scratch (subsumption
    /// fallback).
    pub full_fallback: bool,
}

/// A long-lived incremental reasoning session over one program and one
/// database.
pub struct IncrementalEngine {
    engine: Engine,
    db: Database,
    rules: Vec<RRule>,
    graph: UnitGraph,
    /// Forward enumeration plans for rules of maintained units.
    plans: FxHashMap<usize, RulePlan>,
    /// Rederivation plans for DRed units, keyed by (rule, head index).
    rederive_plans: FxHashMap<(usize, usize), RulePlan>,
    /// Derived-predicate facts asserted before the initial run: they are
    /// axioms, never deleted by maintenance, and restored on replay.
    seeds: FxHashSet<(u32, Tuple)>,
    /// Seed rows per predicate in original insertion order.
    seed_rows: FxHashMap<u32, Vec<Tuple>>,
    threads: usize,
}

impl IncrementalEngine {
    /// Opens a session with default engine options: runs the initial
    /// fixpoint on `db` and prepares maintenance state.
    pub fn new(program: &Program, db: Database) -> Result<Self> {
        Self::with(Engine::new(program)?, db)
    }

    /// Opens a session around a pre-configured engine.
    pub fn with(engine: Engine, mut db: Database) -> Result<Self> {
        if engine.options().provenance {
            return Err(DatalogError::Validation(
                "incremental sessions do not support provenance tracking".into(),
            ));
        }
        let threads = par::resolve(engine.options().threads);
        // Resolve before the initial run so seed rows of derived
        // predicates can be captured. The engine re-resolves internally;
        // interning is idempotent, so the ids agree.
        let rules = resolve_rules(engine.program(), &mut db)?;
        let mut derived: FxHashSet<u32> = FxHashSet::default();
        for rule in &rules {
            for h in &rule.head {
                derived.insert(h.pred);
            }
        }
        let mut seeds = FxHashSet::default();
        let mut seed_rows: FxHashMap<u32, Vec<Tuple>> = FxHashMap::default();
        for &p in &derived {
            let rel = &db.relations[p as usize];
            if rel.is_empty() {
                continue;
            }
            let rows: Vec<Tuple> = rel.rows().map(Tuple::from).collect();
            for t in &rows {
                seeds.insert((p, t.clone()));
            }
            seed_rows.insert(p, rows);
        }
        engine.run(&mut db)?;
        let graph = build_units(engine.program(), engine.compiled(), &rules, &db)?;
        let mut session = IncrementalEngine {
            engine,
            db,
            rules,
            graph,
            plans: FxHashMap::default(),
            rederive_plans: FxHashMap::default(),
            seeds,
            seed_rows,
            threads,
        };
        session.build_plans()?;
        Ok(session)
    }

    /// The session database (post initial run / last update).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Interns a symbol for building update tuples.
    pub fn sym(&mut self, s: &str) -> Const {
        self.db.sym(s)
    }

    /// Strategy summary for diagnostics.
    pub fn info(&self) -> SessionInfo {
        let mut info = SessionInfo {
            full_fallback: self.graph.fallback_full,
            ..SessionInfo::default()
        };
        for u in &self.graph.units {
            match u.mode {
                Mode::DRed => info.dred_units += 1,
                Mode::Replay => info.replay_units += 1,
            }
        }
        info
    }

    /// Parses an update file: one ground fact per line, prefixed with `+`
    /// (insert) or `-` (delete). `%` starts a comment; blank lines are
    /// skipped. A trailing `.` on the fact is optional.
    pub fn parse_update(&mut self, src: &str) -> Result<Update> {
        let mut update = Update::default();
        for (lineno, raw) in src.lines().enumerate() {
            let line = match raw.find('%') {
                Some(i) => raw[..i].trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            let (sign, rest) = match line.chars().next() {
                Some('+') => (true, &line[1..]),
                Some('-') => (false, &line[1..]),
                _ => {
                    return Err(DatalogError::Parse {
                        line: lineno + 1,
                        message: "update line must start with '+' or '-'".into(),
                    })
                }
            };
            let fact_src = {
                let r = rest.trim();
                if r.ends_with('.') {
                    r.to_string()
                } else {
                    format!("{r}.")
                }
            };
            let parsed = Program::parse(&fact_src).map_err(|e| DatalogError::Parse {
                line: lineno + 1,
                message: format!("bad update fact: {e}"),
            })?;
            let bad = |message: String| DatalogError::Parse {
                line: lineno + 1,
                message,
            };
            if parsed.rules.len() != 1 {
                return Err(bad("expected exactly one fact per line".into()));
            }
            let rule = &parsed.rules[0];
            if !rule.body.is_empty() || rule.head.len() != 1 {
                return Err(bad("update lines must be ground facts".into()));
            }
            let atom = &rule.head[0];
            let mut tuple = Vec::with_capacity(atom.terms.len());
            for term in &atom.terms {
                match term {
                    Term::Lit(Lit::Str(s)) => tuple.push(self.db.sym(s)),
                    Term::Lit(Lit::Int(i)) => tuple.push(Const::Int(*i)),
                    Term::Lit(Lit::Float(f)) => tuple.push(Const::float(*f)),
                    Term::Lit(Lit::Bool(b)) => tuple.push(Const::Bool(*b)),
                    _ => return Err(bad("update facts must be ground".into())),
                }
            }
            let entry = (atom.pred.clone(), tuple);
            if sign {
                update.insert.push(entry);
            } else {
                update.delete.push(entry);
            }
        }
        Ok(update)
    }

    /// Applies a base-fact update and propagates it through the program.
    ///
    /// A [`DatalogError::BadFact`] rejects the update before any state is
    /// touched. On any other error the session state is unspecified;
    /// discard it.
    pub fn apply_update(&mut self, update: &Update) -> Result<ChangeSet> {
        let start = Instant::now();
        self.validate(update)?;
        // Apply EDB deletions, then insertions; record raw per-pred deltas.
        let mut raw: FxHashMap<u32, PredDelta> = FxHashMap::default();
        for (name, tuple) in &update.delete {
            let Some(p) = self.db.find_pred(name) else {
                continue;
            };
            let t: Tuple = tuple.clone().into();
            if self.db.relations[p as usize].find(&t).is_some() {
                raw.entry(p).or_default().push_del(t);
            }
        }
        for (p, d) in raw.iter() {
            self.db.relation_mut(*p).remove_tuples(&d.del_set);
        }
        for (name, tuple) in &update.insert {
            let p = self.db.pred_id(name);
            self.db.check_arity(p, tuple.len())?; // pins a new pred's arity
            let t: Tuple = tuple.clone().into();
            if self.db.relations[p as usize].find(&t).is_none() {
                self.db.relation_mut(p).insert(t.clone(), None);
                raw.entry(p).or_default().push_ins(t);
            }
        }
        // Net per-pred deltas (delete+reinsert cancels out).
        let mut changed: FxHashMap<u32, PredDelta> = FxHashMap::default();
        for (p, d) in raw {
            let net = normalize(d);
            if !net.is_empty() {
                changed.insert(p, net);
            }
        }
        let mut stats = UpdateStats::default();
        if changed.is_empty() {
            stats.duration = start.elapsed();
            return Ok(ChangeSet {
                stats,
                ..ChangeSet::default()
            });
        }

        if self.graph.fallback_full {
            self.full_recompute(&mut changed, &mut stats)?;
        } else {
            self.sweep_units(&mut changed, &mut stats)?;
        }
        stats.duration = start.elapsed();
        Ok(self.changeset(changed, stats))
    }

    /// Rejects an update that names a derived predicate or mixes
    /// arities, without mutating anything: arities of predicates the
    /// update would introduce are tracked locally, not interned.
    fn validate(&self, update: &Update) -> Result<()> {
        let mut introduced: FxHashMap<&str, usize> = FxHashMap::default();
        let deletes = update.delete.iter().map(|op| (op, false));
        let inserts = update.insert.iter().map(|op| (op, true));
        for ((name, tuple), insert) in deletes.chain(inserts) {
            let pred = self.db.find_pred(name);
            if pred.is_some_and(|p| self.graph.derived.contains(&p)) {
                return Err(DatalogError::BadFact(format!(
                    "cannot update derived predicate '{name}'"
                )));
            }
            let arity = match pred.and_then(|p| self.db.arity(p)) {
                Some(a) => a,
                None if insert => *introduced.entry(name).or_insert(tuple.len()),
                // Deleting from a predicate without rows is a no-op.
                None => continue,
            };
            if arity != tuple.len() {
                return Err(DatalogError::BadFact(format!(
                    "predicate {name} used with arity {}, previously {arity}",
                    tuple.len()
                )));
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // session construction helpers
    // ---------------------------------------------------------------

    fn build_plans(&mut self) -> Result<()> {
        let empty = FxHashSet::default();
        for unit in &self.graph.units {
            if unit.mode != Mode::DRed {
                continue;
            }
            let pset: FxHashSet<u32> = unit.preds.iter().copied().collect();
            for &ri in &unit.rules {
                let rule = &self.rules[ri];
                let plan = RulePlan::build(rule, &empty)?;
                plan.register_indexes(rule, &mut self.db);
                self.plans.insert(ri, plan);
                for (hi, h) in rule.head.iter().enumerate() {
                    if !pset.contains(&h.pred) {
                        continue;
                    }
                    let mut head_vars = FxHashSet::default();
                    for t in &h.terms {
                        collect_rterm_vars(t, &mut head_vars);
                    }
                    let plan = RulePlan::build(rule, &head_vars)?;
                    plan.register_indexes(rule, &mut self.db);
                    self.rederive_plans.insert((ri, hi), plan);
                }
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // propagation
    // ---------------------------------------------------------------

    fn sweep_units(
        &mut self,
        changed: &mut FxHashMap<u32, PredDelta>,
        stats: &mut UpdateStats,
    ) -> Result<()> {
        for i in 0..self.graph.units.len() {
            let unit = &self.graph.units[i];
            if !unit.reads_any(changed) {
                stats.skipped_units += 1;
                continue;
            }
            let deltas = if unit.mode == Mode::DRed && !unit.negated_input_changed(changed) {
                stats.dred_units += 1;
                self.dred_maintain(i, changed, stats)?
            } else {
                stats.replayed_units += 1;
                self.replay_unit(i)?
            };
            merge_deltas(changed, deltas);
        }
        Ok(())
    }

    /// Clears unit `i`'s relations (restoring seed rows) and re-runs its
    /// rules through the engine's stratum evaluator, returning the diff.
    fn replay_unit(&mut self, i: usize) -> Result<Vec<(u32, PredDelta)>> {
        let unit = &self.graph.units[i];
        let preds = &unit.preds;
        let old: Vec<(u32, Vec<Tuple>)> = preds
            .iter()
            .map(|&p| {
                let rows = self.db.relations[p as usize]
                    .rows()
                    .map(Tuple::from)
                    .collect();
                (p, rows)
            })
            .collect();
        for &p in preds {
            let seed = self.seed_rows.get(&p).cloned().unwrap_or_default();
            self.db.relation_mut(p).replace_all(seed);
        }
        let mut agg = AggStore::default();
        let mut ws = Workspace::default();
        let mut scratch = RunStats::default();
        run_stratum(
            &self.rules,
            &unit.rules,
            unit.stratum,
            &mut self.db,
            self.engine.registry(),
            self.engine.options(),
            &FxHashSet::default(),
            self.threads,
            &mut agg,
            &mut ws,
            &mut scratch,
        )?;
        if self.engine.options().apply_post {
            for (p, name, op) in &self.graph.posted {
                if preds.contains(p) {
                    apply_post(&mut self.db, name, op);
                }
            }
        }
        Ok(old
            .into_iter()
            .map(|(p, rows)| {
                (
                    p,
                    normalize(PredDelta::from_diff(&rows, &self.db.relations[p as usize])),
                )
            })
            .collect())
    }

    /// Delete-and-rederive for a pure unit.
    fn dred_maintain(
        &mut self,
        i: usize,
        changed: &FxHashMap<u32, PredDelta>,
        stats: &mut UpdateStats,
    ) -> Result<Vec<(u32, PredDelta)>> {
        let unit = &self.graph.units[i];
        let pset: FxHashSet<u32> = unit.preds.iter().copied().collect();
        let unit_rules = unit.rules.clone();

        // -- Phase A: overdeletion (semi-naive over the OLD state) -------
        // Unit relations are untouched until phase C, so unit atoms read
        // `All`; input atoms read their OLD views.
        let mut dset: FxHashMap<u32, FxHashSet<Tuple>> = FxHashMap::default();
        let mut dorder: FxHashMap<u32, Vec<Tuple>> = FxHashMap::default();
        let mut frontier: FxHashMap<u32, Vec<Tuple>> = FxHashMap::default();
        let overdelete = |dset: &mut FxHashMap<u32, FxHashSet<Tuple>>,
                          dorder: &mut FxHashMap<u32, Vec<Tuple>>,
                          frontier: &mut FxHashMap<u32, Vec<Tuple>>,
                          db: &Database,
                          rule: &RRule,
                          plan: &RulePlan,
                          views: &[RowsView<'_>],
                          seeds: &FxHashSet<(u32, Tuple)>|
         -> Result<()> {
            let mut binding = vec![None; rule.nvars];
            let mut found: Vec<(u32, Tuple)> = Vec::new();
            enumerate(plan, rule, db, views, &mut binding, &mut |b| {
                for h in &rule.head {
                    if let Ok(t) = head_tuple(h, b) {
                        found.push((h.pred, t));
                    }
                }
                true
            })?;
            for (p, t) in found {
                if db.relations[p as usize].find(&t).is_none() {
                    continue;
                }
                if seeds.contains(&(p, t.clone())) {
                    continue;
                }
                if dset.entry(p).or_default().insert(t.clone()) {
                    dorder.entry(p).or_default().push(t.clone());
                    frontier.entry(p).or_default().push(t);
                }
            }
            Ok(())
        };
        // Round 0: pin on input deletions.
        for &ri in &unit_rules {
            let rule = &self.rules[ri];
            let plan = &self.plans[&ri];
            let n = plan.atoms.len();
            for k in 0..n {
                let pk = plan.preds[k];
                if pset.contains(&pk) {
                    continue;
                }
                let Some(dk) = changed.get(&pk) else { continue };
                if dk.del.is_empty() {
                    continue;
                }
                let views: Vec<RowsView<'_>> = (0..n)
                    .map(|j| {
                        if j == k {
                            RowsView::List(&dk.del)
                        } else {
                            old_view(plan.preds[j], &pset, changed)
                        }
                    })
                    .collect();
                overdelete(
                    &mut dset,
                    &mut dorder,
                    &mut frontier,
                    &self.db,
                    rule,
                    plan,
                    &views,
                    &self.seeds,
                )?;
            }
        }
        // Later rounds: pin on newly overdeleted unit facts.
        while !frontier.is_empty() {
            let cur = std::mem::take(&mut frontier);
            for &ri in &unit_rules {
                let rule = &self.rules[ri];
                let plan = &self.plans[&ri];
                let n = plan.atoms.len();
                for k in 0..n {
                    let pk = plan.preds[k];
                    let Some(pins) = cur.get(&pk) else { continue };
                    if pins.is_empty() {
                        continue;
                    }
                    let views: Vec<RowsView<'_>> = (0..n)
                        .map(|j| {
                            if j == k {
                                RowsView::List(pins)
                            } else {
                                old_view(plan.preds[j], &pset, changed)
                            }
                        })
                        .collect();
                    overdelete(
                        &mut dset,
                        &mut dorder,
                        &mut frontier,
                        &self.db,
                        rule,
                        plan,
                        &views,
                        &self.seeds,
                    )?;
                }
            }
        }

        // -- Phase B: rederivation (top-down, early exit) ----------------
        let mut alive: FxHashMap<u32, FxHashSet<Tuple>> = FxHashMap::default();
        loop {
            let dead: FxHashMap<u32, FxHashSet<Tuple>> = dset
                .iter()
                .map(|(p, s)| {
                    let a = alive.get(p);
                    let d: FxHashSet<Tuple> = s
                        .iter()
                        .filter(|t| !a.is_some_and(|a| a.contains(*t)))
                        .cloned()
                        .collect();
                    (*p, d)
                })
                .collect();
            let mut progress = false;
            for (&p, order) in &dorder {
                for t in order {
                    if alive.get(&p).is_some_and(|a| a.contains(t)) {
                        continue;
                    }
                    if self.rederivable(p, t, &pset, &dead, &unit_rules)? {
                        alive.entry(p).or_default().insert(t.clone());
                        progress = true;
                    }
                }
            }
            if !progress {
                break;
            }
        }

        // -- Phase C: apply surviving deletions --------------------------
        let mut out: FxHashMap<u32, PredDelta> = FxHashMap::default();
        for (&p, order) in &dorder {
            let a = alive.get(&p);
            let d = out.entry(p).or_default();
            for t in order {
                if !a.is_some_and(|a| a.contains(t)) {
                    d.push_del(t.clone());
                }
            }
            stats.rederived += a.map_or(0, |a| a.len());
            if !d.del_set.is_empty() {
                self.db.relation_mut(p).remove_tuples(&d.del_set);
            }
        }

        // -- Phase D: insertion (semi-naive over the NEW state) ----------
        let mut frontier: FxHashMap<u32, Vec<Tuple>> = FxHashMap::default();
        for (&p, d) in changed.iter() {
            if !pset.contains(&p) && !d.ins.is_empty() {
                frontier.insert(p, d.ins.clone());
            }
        }
        let mut first_round = true;
        while !frontier.is_empty() {
            let cur = std::mem::take(&mut frontier);
            let mut queued: Vec<(u32, Tuple)> = Vec::new();
            let mut queued_set: FxHashSet<(u32, Tuple)> = FxHashSet::default();
            for &ri in &unit_rules {
                let rule = &self.rules[ri];
                let plan = &self.plans[&ri];
                let n = plan.atoms.len();
                for k in 0..n {
                    let pk = plan.preds[k];
                    // After round 0 only unit-pred frontiers exist.
                    if first_round && pset.contains(&pk) {
                        continue;
                    }
                    let Some(pins) = cur.get(&pk) else { continue };
                    let views: Vec<RowsView<'_>> = (0..n)
                        .map(|j| {
                            if j == k {
                                RowsView::List(pins)
                            } else {
                                RowsView::All
                            }
                        })
                        .collect();
                    let mut binding = vec![None; rule.nvars];
                    enumerate(plan, rule, &self.db, &views, &mut binding, &mut |b| {
                        for h in &rule.head {
                            if let Ok(t) = head_tuple(h, b) {
                                if self.db.relations[h.pred as usize].find(&t).is_none() {
                                    let key = (h.pred, t);
                                    if queued_set.insert(key.clone()) {
                                        queued.push(key);
                                    }
                                }
                            }
                        }
                        true
                    })?;
                }
            }
            first_round = false;
            for (p, t) in queued {
                self.db.relation_mut(p).insert(t.clone(), None);
                out.entry(p).or_default().push_ins(t.clone());
                frontier.entry(p).or_default().push(t);
            }
        }

        Ok(out
            .into_iter()
            .map(|(p, d)| (p, normalize(d)))
            .filter(|(_, d)| !d.is_empty())
            .collect())
    }

    /// True when `t` of unit predicate `p` has a derivation avoiding dead
    /// facts: the DRed rederivation test.
    fn rederivable(
        &self,
        p: u32,
        t: &Tuple,
        pset: &FxHashSet<u32>,
        dead: &FxHashMap<u32, FxHashSet<Tuple>>,
        unit_rules: &[usize],
    ) -> Result<bool> {
        for &ri in unit_rules {
            let rule = &self.rules[ri];
            for (hi, h) in rule.head.iter().enumerate() {
                if h.pred != p {
                    continue;
                }
                let Some(plan) = self.rederive_plans.get(&(ri, hi)) else {
                    continue;
                };
                let mut binding: Vec<Option<Const>> = vec![None; rule.nvars];
                if !bind_head(h, t, &mut binding) {
                    continue;
                }
                let views: Vec<RowsView<'_>> = plan
                    .preds
                    .iter()
                    .map(|pj| {
                        if pset.contains(pj) {
                            match dead.get(pj) {
                                Some(d) if !d.is_empty() => RowsView::AllMinus(d),
                                _ => RowsView::All,
                            }
                        } else {
                            RowsView::All
                        }
                    })
                    .collect();
                let stopped =
                    !enumerate(plan, rule, &self.db, &views, &mut binding, &mut |_| false)?;
                if stopped {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Subsumption-fallback path: restore seed rows, clear derived
    /// relations, and re-run the whole program.
    fn full_recompute(
        &mut self,
        changed: &mut FxHashMap<u32, PredDelta>,
        stats: &mut UpdateStats,
    ) -> Result<()> {
        let mut derived: Vec<u32> = self.graph.derived.iter().copied().collect();
        derived.sort_unstable();
        let old: Vec<(u32, Vec<Tuple>)> = derived
            .iter()
            .map(|&p| {
                let rows = self.db.relations[p as usize]
                    .rows()
                    .map(Tuple::from)
                    .collect();
                (p, rows)
            })
            .collect();
        for &p in &derived {
            let seed = self.seed_rows.get(&p).cloned().unwrap_or_default();
            self.db.relation_mut(p).replace_all(seed);
        }
        self.engine.run(&mut self.db)?;
        for (p, rows) in old {
            let d = normalize(PredDelta::from_diff(&rows, &self.db.relations[p as usize]));
            if !d.is_empty() {
                changed.insert(p, d);
            }
        }
        stats.full_recompute = true;
        Ok(())
    }

    fn changeset(&self, changed: FxHashMap<u32, PredDelta>, stats: UpdateStats) -> ChangeSet {
        let mut inserted: Vec<(String, Vec<Const>)> = Vec::new();
        let mut deleted: Vec<(String, Vec<Const>)> = Vec::new();
        let mut preds: Vec<u32> = changed.keys().copied().collect();
        preds.sort_by(|a, b| self.db.pred_name(*a).cmp(self.db.pred_name(*b)));
        for p in preds {
            let name = self.db.pred_name(p);
            let d = &changed[&p];
            let mut ins: Vec<&Tuple> = d.ins.iter().collect();
            let mut del: Vec<&Tuple> = d.del.iter().collect();
            ins.sort();
            del.sort();
            for t in ins {
                inserted.push((name.to_string(), t.to_vec()));
            }
            for t in del {
                deleted.push((name.to_string(), t.to_vec()));
            }
        }
        ChangeSet {
            inserted,
            deleted,
            stats,
        }
    }
}

/// OLD view of a predicate during DRed phase A: unit relations are still
/// physically old (`All`); inputs have their deltas already applied, so
/// OLD = relation ∖ ins ∪ del.
fn old_view<'a>(
    pred: u32,
    pset: &FxHashSet<u32>,
    changed: &'a FxHashMap<u32, PredDelta>,
) -> RowsView<'a> {
    if pset.contains(&pred) {
        return RowsView::All;
    }
    match changed.get(&pred) {
        Some(d) => RowsView::AllMinusPlus(&d.ins_set, &d.del),
        None => RowsView::All,
    }
}

/// Unifies a head atom against a concrete tuple, pre-binding its
/// variables for a rederivation plan.
fn bind_head(h: &crate::eval::resolve::RAtom, t: &Tuple, binding: &mut [Option<Const>]) -> bool {
    use crate::eval::resolve::RTerm;
    if h.terms.len() != t.len() {
        return false;
    }
    for (term, &c) in h.terms.iter().zip(t.iter()) {
        match term {
            RTerm::Const(k) => {
                if *k != c {
                    return false;
                }
            }
            RTerm::Var(v) => match binding[*v as usize] {
                Some(existing) => {
                    if existing != c {
                        return false;
                    }
                }
                None => binding[*v as usize] = Some(c),
            },
            RTerm::Skolem { .. } => return false,
        }
    }
    true
}

fn collect_rterm_vars(t: &crate::eval::resolve::RTerm, out: &mut FxHashSet<u32>) {
    use crate::eval::resolve::RTerm;
    match t {
        RTerm::Var(v) => {
            out.insert(*v);
        }
        RTerm::Const(_) => {}
        RTerm::Skolem { args, .. } => {
            for a in args {
                collect_rterm_vars(a, out);
            }
        }
    }
}

/// Cancels overlapping insert/delete pairs (e.g. delete + rederive-insert
/// of the same tuple) so deltas record net membership changes only.
fn normalize(d: PredDelta) -> PredDelta {
    if d.ins.iter().all(|t| !d.del_set.contains(t)) && d.del.iter().all(|t| !d.ins_set.contains(t))
    {
        return d;
    }
    let mut out = PredDelta::default();
    for t in &d.ins {
        if !d.del_set.contains(t) {
            out.push_ins(t.clone());
        }
    }
    for t in &d.del {
        if !d.ins_set.contains(t) {
            out.push_del(t.clone());
        }
    }
    out
}

fn merge_deltas(changed: &mut FxHashMap<u32, PredDelta>, deltas: Vec<(u32, PredDelta)>) {
    for (p, d) in deltas {
        if d.is_empty() {
            continue;
        }
        debug_assert!(
            !changed.contains_key(&p),
            "each derived predicate is produced by exactly one unit"
        );
        changed.insert(p, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A symbol-table-independent constant spec for building the same
    /// fact in the session and the baseline database.
    #[derive(Debug, Clone)]
    enum V {
        S(&'static str),
        I(i64),
        F(f64),
    }

    fn tuple(db: &mut Database, vals: &[V]) -> Vec<Const> {
        vals.iter()
            .map(|v| match v {
                V::S(s) => db.sym(s),
                V::I(i) => Const::Int(*i),
                V::F(f) => Const::float(*f),
            })
            .collect()
    }

    type Facts = Vec<(&'static str, Vec<V>)>;

    #[derive(Debug, Clone, Default)]
    struct Step {
        del: Facts,
        ins: Facts,
    }

    /// Replays the full op log against a fresh database and runs the
    /// engine once: the from-scratch reference for the session state.
    fn baseline(program: &Program, init: &Facts, steps: &[Step]) -> Database {
        let mut db = Database::new();
        for (p, vals) in init {
            let t = tuple(&mut db, vals);
            db.assert_fact(p, &t).unwrap();
        }
        for step in steps {
            for (p, vals) in &step.del {
                let t = tuple(&mut db, vals);
                db.retract_fact(p, &t);
            }
            for (p, vals) in &step.ins {
                let t = tuple(&mut db, vals);
                db.assert_fact(p, &t).unwrap();
            }
        }
        Engine::new(program).unwrap().run(&mut db).unwrap();
        db
    }

    fn assert_same(session: &IncrementalEngine, fresh: &Database, ctx: &str) {
        for pid in 0..session.db().pred_count() as u32 {
            let name = session.db().pred_name(pid).to_string();
            assert_eq!(
                session.db().dump_canonical(&name),
                fresh.dump_canonical(&name),
                "{ctx}: mismatch on '{name}'"
            );
        }
    }

    /// Opens a session on the init facts, applies each step
    /// incrementally, and after every step compares the session database
    /// with a from-scratch run over the replayed log. Returns the session
    /// and the stats of every step.
    fn differential(
        src: &str,
        init: Facts,
        steps: Vec<Step>,
    ) -> (IncrementalEngine, Vec<UpdateStats>) {
        let program = Program::parse(src).unwrap();
        let mut db = Database::new();
        for (p, vals) in &init {
            let t = tuple(&mut db, vals);
            db.assert_fact(p, &t).unwrap();
        }
        let mut session = IncrementalEngine::new(&program, db).unwrap();
        assert_same(&session, &baseline(&program, &init, &[]), "initial run");
        let mut applied: Vec<Step> = Vec::new();
        let mut stats = Vec::new();
        for (i, step) in steps.into_iter().enumerate() {
            let mut update = Update::default();
            for (p, vals) in &step.del {
                let t = tuple(&mut session.db, vals);
                update.delete.push((p.to_string(), t));
            }
            for (p, vals) in &step.ins {
                let t = tuple(&mut session.db, vals);
                update.insert.push((p.to_string(), t));
            }
            stats.push(session.apply_update(&update).unwrap().stats);
            applied.push(step);
            assert_same(
                &session,
                &baseline(&program, &init, &applied),
                &format!("step {i}"),
            );
        }
        (session, stats)
    }

    fn e(a: &'static str, b: &'static str) -> (&'static str, Vec<V>) {
        ("e", vec![V::S(a), V::S(b)])
    }

    #[test]
    fn transitive_closure_insert_and_delete() {
        // Delete the bridge a→b while a→c→b survives: overdeletion must
        // rederive t(a,b) through the alternate path; deleting c→b next
        // removes it for real.
        let src = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).";
        let init = vec![e("a", "b"), e("b", "d"), e("a", "c"), e("c", "b")];
        let steps = vec![
            Step {
                del: vec![e("a", "b")],
                ins: vec![],
            },
            Step {
                del: vec![e("c", "b")],
                ins: vec![e("d", "a")],
            },
            Step {
                del: vec![e("b", "d")],
                ins: vec![e("b", "b")],
            },
        ];
        let (session, _) = differential(src, init, steps);
        assert_eq!(session.info().dred_units, 1);
    }

    #[test]
    fn dred_rederives_non_recursive_facts_with_a_surviving_derivation() {
        // p(a) has two derivations through b; deleting one overdeletes
        // p(a) and phase B rederives it, deleting the second removes it.
        let src = "p(X) :- a(X), b(X, _).";
        let init = vec![
            ("a", vec![V::S("a")]),
            ("b", vec![V::S("a"), V::I(1)]),
            ("b", vec![V::S("a"), V::I(2)]),
        ];
        let steps = vec![
            Step {
                del: vec![("b", vec![V::S("a"), V::I(1)])],
                ins: vec![],
            },
            Step {
                del: vec![("b", vec![V::S("a"), V::I(2)])],
                ins: vec![("b", vec![V::S("a"), V::I(3)])],
            },
            Step {
                del: vec![("b", vec![V::S("a"), V::I(3)])],
                ins: vec![],
            },
        ];
        let (session, stats) = differential(src, init, steps);
        assert_eq!(session.info().dred_units, 1);
        assert!(stats[0].rederived > 0, "{:?}", stats[0]);
    }

    #[test]
    fn negation_stratum_is_maintained() {
        let src = "reach(Y) :- start(Y). reach(Y) :- reach(X), e(X, Y).\n\
                   unreach(X) :- node(X), not reach(X).";
        let init = vec![
            ("start", vec![V::S("a")]),
            ("node", vec![V::S("a")]),
            ("node", vec![V::S("b")]),
            ("node", vec![V::S("c")]),
            e("a", "b"),
        ];
        let steps = vec![
            Step {
                del: vec![],
                ins: vec![e("b", "c")],
            },
            Step {
                del: vec![e("a", "b")],
                ins: vec![],
            },
            Step {
                del: vec![],
                ins: vec![("node", vec![V::S("d")])],
            },
        ];
        differential(src, init, steps);
    }

    #[test]
    fn aggregate_program_replays_and_matches() {
        // Ownership accumulation with a recursive monotonic aggregate and
        // a pure reader above it — acc is replayed, cl is DRed-maintained.
        let src = "acc(X, Y, V) :- own(X, Y, W), X != Y, V = msum(W, <X, Y>).\n\
                   acc(X, Y, V) :- own(X, Z, W1), Z != X, acc(Z, Y, W2), Y != X, \
                   V = msum(W1 * W2, <Z>).\n\
                   cl(X, Y) :- acc(X, Y, V), th(T), V >= T.\n\
                   cl(X, Y) :- cl(Y, X).";
        let own =
            |a: &'static str, b: &'static str, w: f64| ("own", vec![V::S(a), V::S(b), V::F(w)]);
        let init = vec![
            ("th", vec![V::F(0.5)]),
            own("a", "b", 0.6),
            own("b", "c", 0.7),
            own("a", "d", 0.3),
            own("d", "c", 0.9),
        ];
        let steps = vec![
            Step {
                del: vec![],
                ins: vec![own("c", "e", 0.8)],
            },
            Step {
                del: vec![own("b", "c", 0.7)],
                ins: vec![],
            },
            Step {
                del: vec![own("a", "d", 0.3)],
                ins: vec![own("a", "d", 0.6)],
            },
        ];
        let (session, _) = differential(src, init, steps);
        let info = session.info();
        assert!(info.replay_units >= 1);
        assert_eq!(info.dred_units, 1);
        assert!(!info.full_fallback);
    }

    #[test]
    fn subsumption_fallback_recomputes_correctly() {
        // `V <= T` against a max-posted aggregate defeats incremental
        // maintenance; the session must detect it and recompute fully.
        let src = "acc(X, V) :- own(X, W), V = msum(W, <X>).\n\
                   small(X) :- acc(X, V), V <= 0.5.";
        let init = vec![
            ("own", vec![V::S("a"), V::F(0.2)]),
            ("own", vec![V::S("b"), V::F(0.7)]),
        ];
        let steps = vec![
            Step {
                del: vec![],
                ins: vec![("own", vec![V::S("a"), V::F(0.4)])],
            },
            Step {
                del: vec![("own", vec![V::S("b"), V::F(0.7)])],
                ins: vec![],
            },
        ];
        let (session, _) = differential(src, init, steps);
        assert!(session.info().full_fallback);
    }

    #[test]
    fn seed_facts_survive_deletion_and_replay() {
        // t(z,z) is asserted as a base fact of a derived predicate: it is
        // an axiom the maintenance must never delete.
        let program = Program::parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let mut db = Database::new();
        let (z, a, b) = (db.sym("z"), db.sym("a"), db.sym("b"));
        db.assert_fact("t", &[z, z]).unwrap();
        db.assert_fact("e", &[a, b]).unwrap();
        let mut session = IncrementalEngine::new(&program, db).unwrap();
        let update = Update {
            delete: vec![("e".into(), vec![a, b])],
            insert: vec![],
        };
        session.apply_update(&update).unwrap();
        assert!(session.db().relation("t").unwrap().find(&[z, z]).is_some());
        assert!(session.db().relation("t").unwrap().find(&[a, b]).is_none());
    }

    #[test]
    fn derived_predicate_updates_are_rejected() {
        let program = Program::parse("t(X, Y) :- e(X, Y).").unwrap();
        let mut db = Database::new();
        let (a, b) = (db.sym("a"), db.sym("b"));
        db.assert_fact("e", &[a, b]).unwrap();
        let mut session = IncrementalEngine::new(&program, db).unwrap();
        let update = Update {
            delete: vec![],
            insert: vec![("t".into(), vec![a, a])],
        };
        assert!(session.apply_update(&update).is_err());
    }

    #[test]
    fn mixed_arity_update_is_rejected_before_any_mutation() {
        // zz is unseen: its two inserts disagree on arity. The whole
        // update must be refused with the session exactly as before,
        // e(a,b) still present and zz not interned.
        let src = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).";
        let program = Program::parse(src).unwrap();
        let init = vec![e("a", "b"), e("b", "c")];
        let mut db = Database::new();
        for (p, vals) in &init {
            let t = tuple(&mut db, vals);
            db.assert_fact(p, &t).unwrap();
        }
        let mut session = IncrementalEngine::new(&program, db).unwrap();
        let update = session.parse_update("-e(a,b)\n+zz(a)\n+zz(a,b)\n").unwrap();
        let err = session.apply_update(&update).unwrap_err();
        assert!(matches!(err, DatalogError::BadFact(_)), "{err}");
        assert_same(&session, &baseline(&program, &init, &[]), "rejected");
        assert!(session.db().find_pred("zz").is_none());

        // The session keeps working on the unchanged state.
        let update = session.parse_update("-e(a,b)\n+zz(a)\n").unwrap();
        session.apply_update(&update).unwrap();
        let step = Step {
            del: vec![e("a", "b")],
            ins: vec![("zz", vec![V::S("a")])],
        };
        assert_same(&session, &baseline(&program, &init, &[step]), "accepted");
    }

    #[test]
    fn delete_then_reinsert_is_a_net_noop() {
        let program = Program::parse("t(X, Y) :- e(X, Y).").unwrap();
        let mut db = Database::new();
        let (a, b) = (db.sym("a"), db.sym("b"));
        db.assert_fact("e", &[a, b]).unwrap();
        let mut session = IncrementalEngine::new(&program, db).unwrap();
        let update = Update {
            delete: vec![("e".into(), vec![a, b])],
            insert: vec![("e".into(), vec![a, b])],
        };
        let cs = session.apply_update(&update).unwrap();
        assert!(cs.is_empty(), "{cs:?}");
        assert!(session.db().relation("t").unwrap().find(&[a, b]).is_some());
    }

    #[test]
    fn changeset_lists_base_and_derived_changes() {
        let program = Program::parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let mut db = Database::new();
        let (a, b, c) = (db.sym("a"), db.sym("b"), db.sym("c"));
        db.assert_fact("e", &[a, b]).unwrap();
        let mut session = IncrementalEngine::new(&program, db).unwrap();
        let update = Update {
            delete: vec![],
            insert: vec![("e".into(), vec![b, c])],
        };
        let cs = session.apply_update(&update).unwrap();
        let names: Vec<&str> = cs.inserted.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["e", "t", "t"]);
        assert!(cs.deleted.is_empty());
    }

    #[test]
    fn parse_update_reads_signed_facts() {
        let program = Program::parse("t(X, Y) :- e(X, Y).").unwrap();
        let mut db = Database::new();
        let (a, b) = (db.sym("a"), db.sym("b"));
        db.assert_fact("e", &[a, b]).unwrap();
        let mut session = IncrementalEngine::new(&program, db).unwrap();
        let update = session
            .parse_update("% a comment\n+e(b, c).\n-e(a, b)\n")
            .unwrap();
        assert_eq!(update.insert.len(), 1);
        assert_eq!(update.delete.len(), 1);
        let cs = session.apply_update(&update).unwrap();
        assert_eq!(cs.inserted.len(), 2); // e(b,c), t(b,c)
        assert_eq!(cs.deleted.len(), 2); // e(a,b), t(a,b)
        assert!(session.parse_update("e(a, b).").is_err());
    }

    #[test]
    fn provenance_sessions_are_rejected() {
        let program = Program::parse("t(X, Y) :- e(X, Y).").unwrap();
        let engine = Engine::with(
            &program,
            crate::builtins::FunctionRegistry::default(),
            crate::eval::EngineOptions {
                provenance: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(IncrementalEngine::with(engine, Database::new()).is_err());
    }

    #[test]
    fn update_on_unknown_predicate_creates_edb_relation() {
        let program = Program::parse("t(X, Y) :- e(X, Y).").unwrap();
        let mut db = Database::new();
        let (a, b) = (db.sym("a"), db.sym("b"));
        db.assert_fact("e", &[a, b]).unwrap();
        let mut session = IncrementalEngine::new(&program, db).unwrap();
        let c = session.sym("c");
        let update = Update {
            delete: vec![("ghost".into(), vec![c])],
            insert: vec![("extra".into(), vec![c])],
        };
        let cs = session.apply_update(&update).unwrap();
        assert_eq!(cs.inserted.len(), 1);
        assert!(session.db().relation("extra").unwrap().find(&[c]).is_some());
    }
}
