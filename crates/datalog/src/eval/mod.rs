//! The reasoning engine: stratified semi-naive fixpoint with chase-style
//! existentials and monotonic aggregation.
//!
//! An [`Engine`] is compiled once from a [`Program`] (validation +
//! stratification) and can then be [run](Engine::run) against any
//! [`Database`]. Evaluation proceeds stratum by stratum; within a stratum,
//! round 0 evaluates every rule naively and subsequent rounds evaluate each
//! rule once per delta position (positive body atom whose predicate is
//! derived in the stratum), restricted to the facts added in the previous
//! round. Set semantics (tuple dedup) plays the role of Vadalog's
//! isomorphism check; the fact and round budgets in [`EngineOptions`] are
//! the defense-in-depth termination guards discussed in Section 4.4 of the
//! paper.
//!
//! At each stratum entry the engine samples relation cardinalities and
//! compiles every rule into cost-based execution plans ([`plan`]): joins
//! are greedily reordered by estimated selectivity, filters and negations
//! are pushed to the earliest point where their variables are bound, and
//! semi-naive rounds drive from the delta atom. Only the hash indexes the
//! chosen plans actually probe are registered. Each round's derivations
//! are inserted in canonical `(pred, tuple, prov)` order — the derived
//! *set* of a round does not depend on join order, so canonical insertion
//! makes row ids and provenance byte-identical whether planning is on
//! ([`EngineOptions::plan`]) or off.
//!
//! Rounds can evaluate on [`par`] worker threads ([`EngineOptions::threads`]):
//! rules whose bodies touch no shared evaluation state (no aggregates, no
//! Skolem invention, no external calls) are split into chunks of their
//! driving literal's candidate rows, and chunk outputs are merged back in
//! sequential order, so the derived facts — values, insertion order, row
//! ids, provenance — are identical for every thread count.

pub(crate) mod agg;
pub(crate) mod batch;
pub(crate) mod compile;
pub(crate) mod exec;
pub(crate) mod kernels;
pub(crate) mod plan;
pub(crate) mod resolve;

use std::time::{Duration, Instant};

use crate::analysis::{adorn, analyze_with, AnalysisConfig};
use crate::ast::{Directive, Lit, PostOp, Program, Query};
use crate::builtins::FunctionRegistry;
use crate::db::{Database, Relation, SkolemTable, SymbolTable};
use crate::error::{DatalogError, Result};
use crate::fx::{FxHashMap, FxHashSet};
use crate::value::{Const, Tuple};

use agg::AggStore;
use compile::{compile_stratum, eval_compiled_chunk, CompiledRule, CompiledRulePlans};
use exec::{driver_rows, eval_rule_chunk, Derived, RunCtx, Workspace};
use plan::{plan_stratum, RulePlan, RulePlans, Step, StratumStats};
use resolve::{resolve_rules, CompiledProgram, RLiteral, RRule};

/// Tunable evaluation options.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Hard cap on the total number of stored facts.
    pub max_facts: usize,
    /// Hard cap on fixpoint rounds per stratum.
    pub max_rounds: usize,
    /// Minimum aggregate-value change that counts as "new" — guarantees
    /// termination of convergent recursive aggregations (e.g. accumulated
    /// ownership over cyclic shareholding).
    pub epsilon: f64,
    /// Record provenance for derived facts (enables explanations).
    pub provenance: bool,
    /// Apply `@post` directives and auto-compaction of aggregate predicates
    /// after the fixpoint.
    pub apply_post: bool,
    /// Static-analysis configuration applied at engine construction.
    /// With the default config, programs carrying error-level diagnostics
    /// are rejected as [`DatalogError::Analysis`];
    /// [`AnalysisConfig::permissive`] restores the pre-analyzer behavior
    /// (problems surface at evaluation time, if at all).
    pub analysis: AnalysisConfig,
    /// Worker threads for rule evaluation within a fixpoint round. `0`
    /// resolves via [`par::threads`] (the `VADALINK_THREADS` environment
    /// variable, then available parallelism); `1` forces the sequential
    /// path. The result is byte-identical for every value: parallel rounds
    /// splice their per-chunk outputs back in sequential order.
    pub threads: usize,
    /// Cost-based join planning: reorder rule bodies by estimated
    /// selectivity and drive semi-naive rounds from the delta atom. The
    /// result — row ids, provenance, everything — is byte-identical with
    /// planning on or off; this switch exists for benchmarking and
    /// differential testing.
    pub plan: bool,
    /// Compiled plan execution: lower each planned rule into a chain of
    /// specialized closures per stratum ([`compile`]) and freeze stable
    /// relations to the columnar/CSR layout, so the fixpoint inner loop
    /// skips per-tuple step interpretation. Byte-identical to interpreted
    /// execution; turning it off selects the interpreted executor, the
    /// reference oracle for benchmarking and differential testing.
    /// Defaults to true.
    pub compile: bool,
    /// Batch-at-a-time execution tier on top of compiled plans: naive
    /// plans whose inputs are all frozen [`Columnar`](crate::db) images
    /// run scan/filter/probe/compare over column slices in fixed-width
    /// batches with selection vectors ([`batch`](compile) lowering)
    /// instead of materializing tuples, falling back to the tuple
    /// closures for delta rounds, provenance-carrying runs, aggregates
    /// and anything else outside the batch subset. Byte-identical to
    /// tuple execution — the switch exists for differential testing and
    /// benchmarking. Ignored when `compile` is off.
    pub batch: bool,
    /// Predicates the cost planner should assume are small before any
    /// statistics exist — the demand (`magic_*`) relations of a
    /// goal-directed rewrite, whose extent is bounded by the query's
    /// bindings rather than the database. Set by [`Engine::query`];
    /// harmless (and useless) for ordinary programs.
    pub demand_hints: Vec<String>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            max_facts: 50_000_000,
            max_rounds: 100_000,
            epsilon: 1e-9,
            provenance: false,
            apply_post: true,
            analysis: AnalysisConfig::default(),
            threads: 0,
            plan: true,
            compile: true,
            batch: true,
            demand_hints: Vec::new(),
        }
    }
}

/// Statistics of one evaluation.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total semi-naive rounds across strata.
    pub rounds: usize,
    /// Number of new facts derived (after dedup).
    pub derived: usize,
    /// Number of strata evaluated.
    pub strata: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
}

/// A compiled, reusable reasoning engine.
#[derive(Debug)]
pub struct Engine {
    program: Program,
    compiled: CompiledProgram,
    registry: FunctionRegistry,
    options: EngineOptions,
}

impl Engine {
    /// Compiles a program with the standard function library and default
    /// options.
    pub fn new(program: &Program) -> Result<Self> {
        Self::with(
            program,
            FunctionRegistry::default(),
            EngineOptions::default(),
        )
    }

    /// Compiles a program with a custom registry and options.
    pub fn with(
        program: &Program,
        registry: FunctionRegistry,
        options: EngineOptions,
    ) -> Result<Self> {
        if options.analysis.enforce {
            let analysis = analyze_with(program, &options.analysis);
            if analysis.has_errors() {
                return Err(DatalogError::Analysis(analysis.into_errors()));
            }
        }
        let compiled = resolve::compile(program)?;
        Ok(Engine {
            program: program.clone(),
            compiled,
            registry,
            options,
        })
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Stratum index of a predicate (0 = lowest), if it occurs in the
    /// program. Useful for inspecting how the dependency condensation
    /// layered the rules: base relations sit at 0, and every
    /// cross-component edge (positive or negated) adds a layer.
    pub fn stratum_of(&self, pred: &str) -> Option<usize> {
        self.compiled.pred_stratum.get(pred).copied()
    }

    /// Evaluation options (mutable, to tweak between runs).
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        &mut self.options
    }

    /// Evaluation options (read-only).
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The name-level compilation output (strata, auto-post list).
    pub(crate) fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The function registry the engine evaluates external calls with.
    pub(crate) fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Registers an external function (callable as `#name`).
    pub fn register_function(
        &mut self,
        name: &str,
        f: impl Fn(
                &mut crate::builtins::FnCtx<'_>,
                &[crate::value::Const],
            ) -> std::result::Result<crate::value::Const, String>
            + Send
            + Sync
            + 'static,
    ) {
        self.registry.register(name, f);
    }

    /// Renders the execution plans the engine would choose for `db`:
    /// per stratum and rule, the literal order, probe keys and estimated
    /// cardinalities. Estimates reflect the database as given (pre-fixpoint
    /// sizes); in-stratum derived predicates start at their current size.
    /// Honors [`EngineOptions::plan`], so the report with planning disabled
    /// shows the identity plans.
    pub fn plan_report(&self, db: &Database) -> Result<String> {
        use std::fmt::Write as _;
        // Resolution interns predicates and constants, so work on a clone.
        let mut db = db.clone();
        let rules = resolve_rules(&self.program, &mut db)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "execution: {} plans",
            if self.options.compile {
                "compiled (closure-chain)"
            } else {
                "interpreted"
            }
        );
        for (si, stratum) in self.compiled.strata.iter().enumerate() {
            let _ = writeln!(out, "stratum {si}:");
            let stats = StratumStats::collect(&rules, stratum, &db.relations);
            let plans = plan_stratum(&rules, stratum, &stats, self.options.plan);
            // In-stratum predicates are never frozen mid-fixpoint, so a
            // rule reading one can never take the batched path at run
            // time, however its plan lowers.
            let stratum_preds: std::collections::HashSet<u32> = stratum
                .iter()
                .flat_map(|&ri| rules[ri].head.iter().map(|h| h.pred))
                .collect();
            for &ri in stratum {
                let rp = plans[ri].as_ref().expect("stratum rules are planned");
                let vars = &self.program.rules[ri].vars;
                let reads_stratum = rules[ri].body.iter().any(|l| match l {
                    RLiteral::Atom { atom, .. } | RLiteral::Negated(atom) => {
                        stratum_preds.contains(&atom.pred)
                    }
                    _ => false,
                });
                // The executor each round would use under the current
                // options: batched rules still fall back to tuple chains
                // for delta rounds (the delta side is never frozen).
                let executor = if !self.options.compile {
                    "interpreted"
                } else if !(self.options.batch
                    && !self.options.provenance
                    && batch::batch_eligible(&rules[ri], &rp.naive))
                {
                    "tuple"
                } else if reads_stratum {
                    "tuple (batch-eligible, but recursive inputs stay unfrozen)"
                } else {
                    "batched (tuple for delta rounds)"
                };
                out.push_str(&plan::render_rule_report(
                    ri, &rules[ri], rp, vars, &db, executor,
                ));
            }
        }
        Ok(out)
    }

    /// Runs the program to fixpoint over `db`.
    pub fn run(&self, db: &mut Database) -> Result<RunStats> {
        run_compiled(
            &self.program,
            &self.compiled,
            &self.registry,
            &self.options,
            db,
        )
    }

    /// Evaluates a single goal, e.g. `control("c1", X)?`, goal-directed.
    ///
    /// The goal is parsed ([`Query::parse`]), the program is rewritten by
    /// the demand (magic-sets) transformation
    /// ([`crate::analysis::adorn::rewrite`]) so only facts relevant to
    /// the goal's bound constants are derived, and the rewritten program
    /// is planned and evaluated on a scratch copy of `db` — the caller's
    /// database is never mutated. When the goal cannot be
    /// demand-restricted (all-free pattern, extensional predicate,
    /// negation in the cone, or re-analysis rejected the rewrite), the
    /// engine transparently falls back to full bottom-up evaluation; the
    /// answer is identical either way, only the work differs
    /// ([`QueryAnswer::demanded`] tells which path ran).
    pub fn query(&self, db: &Database, goal: &str) -> Result<QueryAnswer> {
        let q = Query::parse(goal)?;
        let rw = adorn::rewrite(&self.program, &q)?;
        let mut demanded = rw.demanded;
        let mut fallback_reason = rw.fallback_reason.clone();
        let mut result_pred = rw.result_pred.clone();
        let mut work;
        let stats = if demanded {
            match resolve::compile(&rw.program) {
                Ok(compiled) => {
                    let mut options = self.options.clone();
                    options.demand_hints = rw.magic_preds.clone();
                    // The rewrite already re-ran the analyzer.
                    options.analysis = AnalysisConfig::permissive();
                    // The scratch copy carries rows only for relations the
                    // rewritten program can observe — the goal's cone plus
                    // the answer relation. Attribute tables outside the
                    // cone stay behind, which for point lookups is most of
                    // the copying work.
                    let mut keep = mentioned_preds(&rw.program);
                    keep.insert(result_pred.clone());
                    work = db.scratch_for(&keep);
                    run_compiled(&rw.program, &compiled, &self.registry, &options, &mut work)?
                }
                Err(e) => {
                    demanded = false;
                    fallback_reason = Some(format!("rewritten program failed to compile: {e}"));
                    result_pred = q.pred.clone();
                    work = db.clone();
                    self.run(&mut work)?
                }
            }
        } else {
            work = db.clone();
            self.run(&mut work)?
        };
        let rows = goal_matches_in(&work, &result_pred, &q);
        Ok(QueryAnswer {
            goal: q,
            rows,
            demanded,
            fallback_reason,
            report: rw.report,
            stats,
        })
    }
}

/// The result of a goal-directed [`Engine::query`].
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The parsed goal.
    pub goal: Query,
    /// Matching facts, canonically rendered as `pred(c1, ..., cn)` with
    /// labelled nulls in structural Skolem form, sorted. This is the
    /// byte-equivalence contract: identical to rendering the goal
    /// predicate's matching facts after full bottom-up evaluation.
    pub rows: Vec<String>,
    /// True when the demand rewrite restricted evaluation to the goal.
    pub demanded: bool,
    /// Why evaluation fell back to the full program, when it did.
    pub fallback_reason: Option<String>,
    /// The adornment dataflow summary of the rewrite.
    pub report: adorn::BindingReport,
    /// Statistics of the run that produced the answer.
    pub stats: RunStats,
}

/// Canonically renders the facts of `goal`'s predicate that match its
/// bound constants, sorted — the extraction/comparison lens of
/// [`Engine::query`] and the query differential tests.
pub fn goal_matches(db: &Database, goal: &Query) -> Vec<String> {
    goal_matches_in(db, &goal.pred, goal)
}

/// As [`goal_matches`], reading relation `pred` but rendering rows under
/// the goal's predicate name (the demand rewrite stores answers in the
/// goal's adorned variant).
fn goal_matches_in(db: &Database, pred: &str, goal: &Query) -> Vec<String> {
    let mut pattern: Vec<Option<Const>> = Vec::with_capacity(goal.args.len());
    for a in &goal.args {
        pattern.push(match a {
            None => None,
            Some(Lit::Str(s)) => match db.find_sym(s) {
                Some(c) => Some(c),
                // The constant was never interned: nothing can match.
                None => return Vec::new(),
            },
            Some(Lit::Int(i)) => Some(Const::Int(*i)),
            Some(Lit::Float(f)) => Some(Const::float(*f)),
            Some(Lit::Bool(b)) => Some(Const::Bool(*b)),
        });
    }
    let mut out: Vec<String> = db
        .query(pred, &pattern)
        .into_iter()
        .map(|row| {
            let parts: Vec<String> = row.iter().map(|c| db.canonical(*c)).collect();
            format!("{}({})", goal.pred, parts.join(", "))
        })
        .collect();
    out.sort();
    out
}

/// Every predicate a program's rules and directives mention — the set of
/// relations a fixpoint over the program can read or write.
fn mentioned_preds(program: &Program) -> FxHashSet<String> {
    use crate::ast::Literal;
    let mut preds = FxHashSet::default();
    for rule in &program.rules {
        for atom in &rule.head {
            preds.insert(atom.pred.clone());
        }
        for lit in &rule.body {
            if let Literal::Atom(a) | Literal::Negated(a) = lit {
                preds.insert(a.pred.clone());
            }
        }
    }
    for d in &program.directives {
        match d {
            Directive::Input(p) | Directive::Output(p) | Directive::Post(p, _) => {
                preds.insert(p.clone());
            }
        }
    }
    preds
}

/// Runs a compiled program to fixpoint over `db` — the shared body of
/// [`Engine::run`] and the goal-directed path of [`Engine::query`], which
/// evaluates a rewritten program with the engine's own registry and
/// options without constructing a second engine.
pub(crate) fn run_compiled(
    program: &Program,
    compiled: &CompiledProgram,
    registry: &FunctionRegistry,
    options: &EngineOptions,
    db: &mut Database,
) -> Result<RunStats> {
    let start = Instant::now();
    let rules = resolve_rules(program, db)?;
    if options.provenance {
        for rel in &mut db.relations {
            rel.set_track_prov(true);
        }
    }
    let demand: FxHashSet<u32> = options
        .demand_hints
        .iter()
        .filter_map(|name| db.find_pred(name))
        .collect();
    let threads = par::resolve(options.threads);
    let mut stats = RunStats::default();
    let mut agg = AggStore::default();
    let mut ws = Workspace::default();

    for stratum in &compiled.strata {
        stats.strata += 1;
        run_stratum(
            &rules,
            stratum,
            stats.strata - 1,
            db,
            registry,
            options,
            &demand,
            threads,
            &mut agg,
            &mut ws,
            &mut stats,
        )?;
    }

    if options.apply_post {
        for (pred, op) in &compiled.auto_post {
            apply_post(db, pred, op);
        }
        for d in &program.directives {
            if let Directive::Post(pred, op) = d {
                apply_post(db, pred, op);
            }
        }
    }
    stats.duration = start.elapsed();
    Ok(stats)
}

/// Runs one stratum's semi-naive fixpoint over `db`: round 0 evaluates
/// every rule in `stratum` naively, later rounds once per (rule,
/// in-stratum delta literal). Extracted from [`Engine::run`] so the
/// incremental-maintenance subsystem ([`crate::incr`]) can replay a rule
/// subset (a dependency unit, or a whole stratum) with its own aggregate
/// store; the behavior — canonical per-round insertion order, growth-
/// triggered replanning, budgets — is exactly the engine's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stratum(
    rules: &[RRule],
    stratum: &[usize],
    stratum_label: usize,
    db: &mut Database,
    registry: &FunctionRegistry,
    options: &EngineOptions,
    demand: &FxHashSet<u32>,
    threads: usize,
    agg: &mut AggStore,
    ws: &mut Workspace,
    stats: &mut RunStats,
) -> Result<()> {
    {
        // Predicates derived in this stratum (delta sources).
        let stratum_preds: Vec<u32> = stratum
            .iter()
            .flat_map(|&ri| rules[ri].head.iter().map(|h| h.pred))
            .collect();
        // Plan the stratum's rules against current cardinalities and
        // register exactly the probe indexes the plans use. When any
        // rule actually got a cost-based order, the stratum *replans
        // every round*: recursive predicates are empty at stratum
        // entry, so only from round 1 onward do the delta plans see the
        // real relation sizes they join against. Plans influence
        // evaluation order only — the canonical sort below makes any
        // order produce the same database — so replanning is free of
        // output drift, and `register_index` is a no-op for masks
        // already present. Strata of identity plans (planner disabled,
        // or every rule order-sensitive) skip the per-round stats pass.
        // Stats are scoped to reorderable rules' predicates and cached
        // by row count, so each round only re-samples relations that
        // both grew and feed a cost-planned join.
        let mut stats_cache = crate::fx::FxHashMap::default();
        let enable = options.plan;
        let sample_cap = if demand.is_empty() {
            plan::DISTINCT_SAMPLE
        } else {
            plan::DEMAND_SAMPLE
        };
        let compile_on = options.compile;
        let stratum_preds_ref = &stratum_preds;
        let mut plan_round = |db: &mut Database| {
            let mut stratum_stats = if enable {
                StratumStats::collect_reorderable(
                    rules,
                    stratum,
                    &db.relations,
                    &mut stats_cache,
                    sample_cap,
                )
            } else {
                StratumStats::default()
            };
            stratum_stats.demand = demand.clone();
            let plans = plan_stratum(rules, stratum, &stratum_stats, enable);
            // Relations *stable for this stratum* — no stratum rule derives
            // into them, so the round loop's inserts cannot invalidate a
            // frozen image mid-stratum — are promoted to the columnar
            // layout: per-column strips, plus CSR adjacency for the
            // probe masks the plans use, multi-column keys included
            // (those skip the hash index entirely). Unstable
            // (delta-side) relations keep the on-demand hash indexes.
            let mut freeze: crate::fx::FxHashMap<u32, Vec<u64>> = crate::fx::FxHashMap::default();
            for rp in plans.iter().flatten() {
                for p in std::iter::once(&rp.naive).chain(rp.delta.iter()) {
                    for step in &p.steps {
                        if let Step::Atom(a) = step {
                            let stable = compile_on && !stratum_preds_ref.contains(&a.pred);
                            if stable {
                                let masks = freeze.entry(a.pred).or_default();
                                if a.mask != 0 && !a.full_key() {
                                    if !masks.contains(&a.mask) {
                                        masks.push(a.mask);
                                    }
                                    continue;
                                }
                            }
                            // Full-key probes go through the dedup map
                            // instead of a registered index.
                            if a.mask != 0 && !a.full_key() {
                                db.relation_mut(a.pred).register_index(a.mask);
                            }
                        }
                    }
                }
            }
            for (pred, masks) in &freeze {
                db.relation_mut(*pred).freeze_columnar(masks);
            }
            let compiled = if compile_on {
                Some(compile_stratum(rules, &plans))
            } else {
                None
            };
            (plans, compiled)
        };
        let (mut plans, mut compiled) = plan_round(db);
        // Replanning can only change an order for a cost-planned rule
        // with at least two joinable atoms whose body reads a predicate
        // this stratum is still deriving — anything else sees the same
        // statistics every round. `watched` collects the predicates
        // those rules read; a later round replans only when one of them
        // grew enough (2x, or from empty) to plausibly flip an order.
        let mut watched: Vec<u32> = Vec::new();
        for &ri in stratum {
            let planned = plans[ri]
                .as_ref()
                .is_some_and(|rp| rp.naive.planned || rp.delta.iter().any(|p| p.planned));
            if !planned {
                continue;
            }
            let atoms: Vec<u32> = rules[ri]
                .body
                .iter()
                .filter_map(|lit| match lit {
                    RLiteral::Atom { atom } => Some(atom.pred),
                    _ => None,
                })
                .collect();
            if atoms.len() >= 2 && atoms.iter().any(|p| stratum_preds.contains(p)) {
                watched.extend(atoms);
            }
        }
        watched.sort_unstable();
        watched.dedup();
        let mut planned_len: Vec<usize> = watched
            .iter()
            .map(|&p| db.relations[p as usize].len())
            .collect();
        let mut prev_len: Vec<u32> = db.relations.iter().map(|r| r.len() as u32).collect();
        let mut round = 0usize;
        loop {
            if round >= options.max_rounds {
                return Err(DatalogError::BudgetExceeded(format!(
                    "exceeded {} rounds in stratum {}",
                    options.max_rounds, stratum_label
                )));
            }
            if round > 0 && !watched.is_empty() {
                let grown = watched.iter().zip(&planned_len).any(|(&p, &l)| {
                    let n = db.relations[p as usize].len();
                    if l == 0 {
                        n > 0
                    } else {
                        n >= l * 2
                    }
                });
                if grown {
                    (plans, compiled) = plan_round(db);
                    for (i, &p) in watched.iter().enumerate() {
                        planned_len[i] = db.relations[p as usize].len();
                    }
                }
            }
            let mut out: Vec<Derived> = Vec::new();
            let fully_sequential;
            {
                let db_ref = &mut *db;
                let relations = &db_ref.relations;
                // The round's rule evaluations in sequential order:
                // round 0 is the naive pass; later rounds contribute
                // one item per (rule, in-stratum delta literal).
                let mut items: Vec<(usize, Option<(usize, u32)>)> = Vec::new();
                for &ri in stratum {
                    let rule = &rules[ri];
                    if round == 0 {
                        items.push((ri, None));
                    } else {
                        for (k, &li) in rule.positive_literals.iter().enumerate() {
                            let pred = rule.positive_preds[k];
                            if !stratum_preds.contains(&pred) {
                                continue;
                            }
                            let dstart = prev_len[pred as usize];
                            if (dstart as usize) >= relations[pred as usize].len() {
                                continue;
                            }
                            items.push((ri, Some((li, dstart))));
                        }
                    }
                }
                let mut ctx = RunCtx {
                    symbols: &mut db_ref.symbols,
                    skolems: &mut db_ref.skolems,
                    registry,
                    agg: &mut *agg,
                    out: &mut out,
                    ws: &mut *ws,
                    epsilon: options.epsilon,
                    provenance: options.provenance,
                };
                fully_sequential = eval_round(
                    rules,
                    &plans,
                    compiled.as_deref(),
                    relations,
                    &items,
                    threads,
                    options.batch,
                    &mut ctx,
                )?;
            }
            // Canonical per-round ordering: a round's derived *set* is
            // independent of body-literal order, so sorting before
            // insertion pins row ids and provenance regardless of the
            // plans that produced the buffer. Insertion keeps the first
            // occurrence of each tuple — i.e. the (pred, tuple, prov)
            // minimum — so collapsing in-round duplicates to that
            // minimum *before* sorting leaves the inserted sequence
            // untouched while the comparison-heavy sort only sees the
            // unique survivors. Joins that re-derive one head many times
            // per round (e.g. a close-link pair once per common
            // shareholder) shrink by orders of magnitude here.
            //
            // With provenance off a fully sequential round is already
            // duplicate-free: plain heads and conditional aggregates
            // consult the workspace emitted set, and epsilon-guarded
            // aggregate emissions never repeat a tuple within a round.
            // Parallel rounds still need the pass — workers share no
            // emitted set — as do provenance runs, where duplicates
            // carry distinct trees and the minimum must be kept.
            if out.len() > 1 && (options.provenance || !fully_sequential) {
                let mut best: FxHashMap<(u32, Tuple), usize> = FxHashMap::default();
                best.reserve(out.len());
                let mut keep = vec![false; out.len()];
                for (i, d) in out.iter().enumerate() {
                    match best.entry((d.pred, d.tuple.clone())) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(i);
                            keep[i] = true;
                        }
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            let j = *e.get();
                            if d.prov < out[j].prov {
                                keep[j] = false;
                                keep[i] = true;
                                e.insert(i);
                            }
                        }
                    }
                }
                let mut i = 0usize;
                out.retain(|_| {
                    let k = keep[i];
                    i += 1;
                    k
                });
            }
            out.sort_unstable_by(|a, b| {
                a.pred
                    .cmp(&b.pred)
                    .then_with(|| a.tuple.cmp(&b.tuple))
                    .then_with(|| a.prov.cmp(&b.prov))
            });
            // Snapshot lengths, then insert this round's derivations:
            // they become the next round's deltas.
            for (i, rel) in db.relations.iter().enumerate() {
                prev_len[i] = rel.len() as u32;
            }
            let mut new_facts = 0usize;
            for d in out {
                let (_, fresh) = db.relations[d.pred as usize].insert(d.tuple, d.prov);
                if fresh {
                    new_facts += 1;
                }
            }
            stats.derived += new_facts;
            stats.rounds += 1;
            round += 1;
            if db.total_facts() > options.max_facts {
                return Err(DatalogError::BudgetExceeded(format!(
                    "exceeded {} facts",
                    options.max_facts
                )));
            }
            if new_facts == 0 {
                break;
            }
        }
    }
    Ok(())
}

/// Driver rows below which a round runs sequentially: thread spawn and
/// merge overhead dominate tiny rounds, and the result is identical either
/// way.
const PAR_MIN_DRIVER_ROWS: usize = 512;

/// Evaluates one round's work items, parallelizing the chunkable ones.
///
/// An item is chunkable when its rule is `par_full` — the body touches no
/// shared mutable state (symbol interning, Skolem invention, aggregate
/// accumulators) — and it has a leading positive atom whose candidate rows
/// drive the join. Those rows are split into contiguous chunks evaluated
/// on [`par`] workers against throwaway context tables; chunk outputs are
/// spliced back in (item, chunk) order, and non-chunkable items run
/// sequentially at their original position with the real context. The
/// resulting `out` buffer is byte-identical to a fully sequential round:
/// same derivations, same order, hence the same row ids and provenance
/// downstream.
///
/// Returns `true` when the whole round ran sequentially against the real
/// context — the caller can then skip its duplicate-collapse pass for
/// provenance-free runs, since sequential emission already dedups.
#[allow(clippy::too_many_arguments)]
fn eval_round(
    rules: &[RRule],
    plans: &[Option<RulePlans>],
    compiled: Option<&[Option<CompiledRulePlans>]>,
    relations: &[Relation],
    items: &[(usize, Option<(usize, u32)>)],
    threads: usize,
    batch: bool,
    ctx: &mut RunCtx<'_>,
) -> Result<bool> {
    // The plan for one work item: the naive plan on round 0, the matching
    // delta plan otherwise.
    let plan_for = |ri: usize, delta: Option<(usize, u32)>| -> &RulePlan {
        let rp = plans[ri].as_ref().expect("stratum rules are planned");
        match delta {
            None => &rp.naive,
            Some((li, _)) => {
                let k = rules[ri]
                    .positive_literals
                    .iter()
                    .position(|&p| p == li)
                    .expect("delta literal is a positive atom");
                &rp.delta[k]
            }
        }
    };
    // The compiled twin of `plan_for`, when compiled execution is on.
    let compiled_for = |ri: usize, delta: Option<(usize, u32)>| -> Option<&CompiledRule> {
        let cp = compiled?[ri].as_ref().expect("stratum rules are compiled");
        Some(match delta {
            None => &cp.naive,
            Some((li, _)) => {
                let k = rules[ri]
                    .positive_literals
                    .iter()
                    .position(|&p| p == li)
                    .expect("delta literal is a positive atom");
                &cp.delta[k]
            }
        })
    };
    // One work item (optionally chunk-restricted), through whichever
    // executor is active — both enumerate identically.
    let run_one = |ri: usize,
                   delta: Option<(usize, u32)>,
                   driver: Option<&[u32]>,
                   ctx: &mut RunCtx<'_>|
     -> Result<()> {
        match compiled_for(ri, delta) {
            Some(cr) => eval_compiled_chunk(
                cr,
                relations,
                delta.map_or(0, |(_, s)| s),
                driver,
                batch,
                ctx,
            ),
            None => eval_rule_chunk(
                &rules[ri],
                plan_for(ri, delta),
                relations,
                delta,
                driver,
                ctx,
            ),
        }
    };
    let run_seq = |ctx: &mut RunCtx<'_>| -> Result<()> {
        for &(ri, delta) in items {
            run_one(ri, delta, None, ctx)?;
        }
        Ok(())
    };
    if threads <= 1 {
        run_seq(ctx)?;
        return Ok(true);
    }
    // Candidate rows per chunkable item; `None` marks sequential items.
    let mut drivers: Vec<Option<Vec<u32>>> = Vec::with_capacity(items.len());
    let mut total = 0usize;
    for &(ri, delta) in items {
        let rule = &rules[ri];
        let rows = if rule.par_full {
            driver_rows(plan_for(ri, delta), relations, delta)
        } else {
            None
        };
        if let Some(r) = &rows {
            total += r.len();
        }
        drivers.push(rows);
    }
    if total < PAR_MIN_DRIVER_ROWS {
        run_seq(ctx)?;
        return Ok(true);
    }
    // Subtasks in (item, chunk) order; a few chunks per worker so a skewed
    // chunk cannot serialize the round.
    let chunk = (total / (threads * 4)).max(PAR_MIN_DRIVER_ROWS / 4);
    let mut subtasks: Vec<(usize, &[u32])> = Vec::new();
    for (idx, rows) in drivers.iter().enumerate() {
        if let Some(rows) = rows {
            let mut s = 0;
            while s < rows.len() {
                let e = (s + chunk).min(rows.len());
                subtasks.push((idx, &rows[s..e]));
                s = e;
            }
        }
    }
    let registry = ctx.registry;
    let epsilon = ctx.epsilon;
    let provenance = ctx.provenance;
    let results = par::par_map_with(&subtasks, threads, 1, |&(idx, rows)| {
        let (ri, delta) = items[idx];
        // par_full rules never consult the symbol/Skolem/aggregate state;
        // the worker gets throwaway instances so nothing is shared.
        let mut symbols = SymbolTable::default();
        let mut skolems = SkolemTable::default();
        let mut agg = AggStore::default();
        let mut ws = Workspace::default();
        let mut local: Vec<Derived> = Vec::new();
        let mut wctx = RunCtx {
            symbols: &mut symbols,
            skolems: &mut skolems,
            registry,
            agg: &mut agg,
            out: &mut local,
            ws: &mut ws,
            epsilon,
            provenance,
        };
        run_one(ri, delta, Some(rows), &mut wctx).map(|()| local)
    });
    // Splice in sequential order: chunk outputs at their item's position,
    // sequential items evaluated in place with the real context.
    let mut results = results.into_iter();
    let mut cursor = 0usize;
    for (idx, &(ri, delta)) in items.iter().enumerate() {
        if drivers[idx].is_some() {
            while cursor < subtasks.len() && subtasks[cursor].0 == idx {
                let local = results.next().expect("one result per subtask")?;
                ctx.out.extend(local);
                cursor += 1;
            }
        } else {
            run_one(ri, delta, None, ctx)?;
        }
    }
    Ok(false)
}

/// Applies a `@post` grouping filter: per grouping of all columns except the
/// value column, keep only the row with the extremal value.
pub(crate) fn apply_post(db: &mut Database, pred: &str, op: &PostOp) {
    let Some(p) = db.find_pred(pred) else {
        return;
    };
    let (col, keep_max) = match op {
        PostOp::MaxBy(c) => (*c, true),
        PostOp::MinBy(c) => (*c, false),
    };
    let rel = &db.relations[p as usize];
    if rel.is_empty() {
        return;
    }
    let arity = rel.row(0).len();
    if col >= arity {
        return;
    }
    let mut best: crate::fx::FxHashMap<Tuple, Tuple> = crate::fx::FxHashMap::default();
    for row in rel.rows() {
        let key: Tuple = row
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != col)
            .map(|(_, c)| *c)
            .collect();
        match best.get(&key) {
            Some(prev) => {
                let replace = if keep_max {
                    row[col] > prev[col]
                } else {
                    row[col] < prev[col]
                };
                if replace {
                    best.insert(key, row.into());
                }
            }
            None => {
                best.insert(key, row.into());
            }
        }
    }
    let mut rows: Vec<Tuple> = best.into_values().collect();
    rows.sort();
    db.relations[p as usize].replace_all(rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Const;

    fn run_src(src: &str, setup: impl FnOnce(&mut Database)) -> Database {
        let program = Program::parse(src).unwrap();
        let engine = Engine::new(&program).unwrap();
        let mut db = Database::new();
        setup(&mut db);
        engine.run(&mut db).unwrap();
        db
    }

    #[test]
    fn transitive_closure() {
        let db = run_src("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).", |db| {
            db.assert_str_facts("e", &[&["a", "b"], &["b", "c"], &["c", "d"]]);
        });
        assert_eq!(db.fact_count("t"), 6);
        assert!(db.contains_str_fact("t", &["a", "d"]));
        assert!(!db.contains_str_fact("t", &["b", "a"]));
    }

    #[test]
    fn cyclic_transitive_closure_terminates() {
        let db = run_src("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).", |db| {
            db.assert_str_facts("e", &[&["a", "b"], &["b", "a"]]);
        });
        assert_eq!(db.fact_count("t"), 4); // aa ab ba bb
    }

    #[test]
    fn ground_facts_in_program() {
        let db = run_src("e(a, b). e(b, c). t(X, Z) :- e(X, Y), e(Y, Z).", |_| {});
        assert!(db.contains_str_fact("t", &["a", "c"]));
    }

    #[test]
    fn stratified_negation() {
        let db = run_src(
            "reach(X) :- start(X). reach(Y) :- reach(X), e(X, Y).\n\
             unreach(X) :- node(X), not reach(X).",
            |db| {
                db.assert_str_facts("node", &[&["a"], &["b"], &["c"]]);
                db.assert_str_facts("start", &[&["a"]]);
                db.assert_str_facts("e", &[&["a", "b"]]);
            },
        );
        assert_eq!(db.dump("unreach"), vec!["c"]);
    }

    #[test]
    fn comparisons_and_arithmetic() {
        let db = run_src("big(X, V) :- n(X, W), V = W * 2 + 1, V > 5.", |db| {
            db.fact("n").sym("a").int(1).assert();
            db.fact("n").sym("b").int(3).assert();
        });
        assert_eq!(db.fact_count("big"), 1);
        let rel = db.relation("big").unwrap();
        assert_eq!(rel.row(0)[1], Const::Int(7));
    }

    #[test]
    fn company_control_paper_figure_1() {
        // Figure 1 of the paper: P1 controls C, D, E (jointly via D and a
        // direct 20%), and F (via E and D); no one controls L alone.
        let db = run_src(
            "control(X, X) :- company(X).\n\
             control(X, X) :- person(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.",
            |db| {
                for c in ["c", "d", "e", "f", "g", "h", "i", "l"] {
                    db.assert_str_facts("company", &[&[c]]);
                }
                db.assert_str_facts("person", &[&["p1"], &["p2"]]);
                for (x, y, w) in [
                    ("p1", "c", 0.8),
                    ("p1", "d", 0.75),
                    ("d", "e", 0.4),
                    ("p1", "e", 0.2),
                    ("d", "f", 0.2),
                    ("e", "f", 0.4),
                    ("p2", "g", 0.6),
                    ("g", "h", 0.6),
                    ("h", "i", 0.1),
                    ("p2", "i", 0.5),
                    ("f", "l", 0.2),
                    ("i", "l", 0.4),
                ] {
                    db.fact("own").sym(x).sym(y).float(w).assert();
                }
            },
        );
        for target in ["c", "d", "e", "f"] {
            assert!(
                db.contains_str_fact("control", &["p1", target]),
                "p1 should control {target}"
            );
        }
        assert!(!db.contains_str_fact("control", &["p1", "l"]));
        for target in ["g", "h", "i"] {
            assert!(
                db.contains_str_fact("control", &["p2", target]),
                "p2 should control {target}"
            );
        }
        assert!(!db.contains_str_fact("control", &["p2", "l"]));
    }

    #[test]
    fn control_handles_ownership_cycles() {
        // a owns 60% of b, b owns 60% of c, c owns 60% of b (cycle b<->c).
        let db = run_src(
            "control(X, X) :- company(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.",
            |db| {
                db.assert_str_facts("company", &[&["a"], &["b"], &["c"]]);
                db.fact("own").sym("a").sym("b").float(0.6).assert();
                db.fact("own").sym("b").sym("c").float(0.6).assert();
                db.fact("own").sym("c").sym("b").float(0.6).assert();
            },
        );
        assert!(db.contains_str_fact("control", &["a", "b"]));
        assert!(db.contains_str_fact("control", &["a", "c"]));
    }

    #[test]
    fn joint_control_requires_summation() {
        // x controls a (60%) and b (60%); a and b each own 30% of y.
        // Only the msum over {a, b} pushes x over 50% of y.
        let db = run_src(
            "control(X, X) :- company(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.",
            |db| {
                db.assert_str_facts("company", &[&["x"], &["a"], &["b"], &["y"]]);
                db.fact("own").sym("x").sym("a").float(0.6).assert();
                db.fact("own").sym("x").sym("b").float(0.6).assert();
                db.fact("own").sym("a").sym("y").float(0.3).assert();
                db.fact("own").sym("b").sym("y").float(0.3).assert();
            },
        );
        assert!(db.contains_str_fact("control", &["x", "y"]));
    }

    #[test]
    fn accumulated_ownership_with_let_aggregate() {
        // Diamond: x -0.5-> a -0.5-> y and x -0.4-> b -0.25-> y.
        // Φ(x,y) = 0.25 + 0.1 = 0.35.
        let db = run_src(
            "acc(X, Y, V) :- own(X, Y, W), V = msum(W, <X, Y>).\n\
             acc(X, Y, V) :- own(X, Z, W1), acc(Z, Y, W2), Z != Y, V = msum(W1 * W2, <Z>).",
            |db| {
                db.fact("own").sym("x").sym("a").float(0.5).assert();
                db.fact("own").sym("a").sym("y").float(0.5).assert();
                db.fact("own").sym("x").sym("b").float(0.4).assert();
                db.fact("own").sym("b").sym("y").float(0.25).assert();
            },
        );
        // After auto-compaction, one acc fact per (x, y) pair with the total.
        let rel = db.relation("acc").unwrap();
        let x = db.sym_of("x");
        let y = db.sym_of("y");
        let mut found = None;
        for row in rel.rows() {
            if row[0] == x && row[1] == y {
                assert!(found.is_none(), "compaction should leave one row");
                found = Some(row[2].as_f64().unwrap());
            }
        }
        assert!((found.unwrap() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn shared_aggregate_total_across_rules() {
        // Algorithm 8 semantics: two rules contribute to the same total.
        // p contributes via u(=0.3) and v(=0.3); threshold 0.5 crossed only
        // by the combination.
        let db = run_src(
            "reaches(P) :- u(P, W), msum(W, <P>) > 0.5.\n\
             reaches(P) :- v(P, W), msum(W, <P>) > 0.5.",
            |db| {
                db.fact("u").sym("p").float(0.3).assert();
                db.fact("v").sym("p").float(0.3).assert();
            },
        );
        // Contributor keys are namespaced by rule, so the two 0.3s add up.
        assert!(db.contains_str_fact("reaches", &["p"]));
    }

    #[test]
    fn existential_invents_nulls() {
        let db = run_src(
            "link(Z, X, Y) :- own(X, Y, _), Z = #mk(X, Y).\n\
             haslink(X, Y) :- link(_, X, Y).",
            |db| {
                db.fact("own").sym("a").sym("b").float(0.5).assert();
            },
        );
        assert_eq!(db.fact_count("link"), 1);
        let rel = db.relation("link").unwrap();
        assert!(rel.row(0)[0].is_null());
        assert!(db.contains_str_fact("haslink", &["a", "b"]));
    }

    #[test]
    fn implicit_existentials_are_skolemized() {
        // Head var Z not in body → labelled null, one per distinct frontier.
        let db = run_src("edge(Z, X, Y) :- own(X, Y, _).", |db| {
            db.fact("own").sym("a").sym("b").float(0.5).assert();
            db.fact("own").sym("a").sym("b").float(0.7).assert();
            db.fact("own").sym("a").sym("c").float(0.2).assert();
        });
        // Frontier is (X, Y): (a,b) appears twice → same null; (a,c) fresh.
        assert_eq!(db.fact_count("edge"), 2);
    }

    #[test]
    fn skolem_functions_are_deterministic_and_disjoint() {
        let db = run_src(
            "n1(Z) :- p(X), Z = #ska(X).\n\
             n2(Z) :- p(X), Z = #skb(X).\n\
             n3(Z) :- p(X), Z = #ska(X).",
            |db| {
                db.assert_str_facts("p", &[&["a"]]);
            },
        );
        let z1 = db.relation("n1").unwrap().row(0)[0];
        let z2 = db.relation("n2").unwrap().row(0)[0];
        let z3 = db.relation("n3").unwrap().row(0)[0];
        assert_eq!(z1, z3, "determinism across rules");
        assert_ne!(z1, z2, "disjoint ranges");
    }

    #[test]
    fn conjunctive_heads() {
        let db = run_src("node(X), nodetype(X, company) :- company(X).", |db| {
            db.assert_str_facts("company", &[&["acme"]]);
        });
        assert!(db.contains_str_fact("node", &["acme"]));
        assert!(db.contains_str_fact("nodetype", &["acme", "company"]));
    }

    #[test]
    fn external_functions() {
        let program = Program::parse("len(X, L) :- w(X), L = #strlen(X).").unwrap();
        let engine = Engine::new(&program).unwrap();
        let mut db = Database::new();
        db.assert_str_facts("w", &[&["hello"]]);
        engine.run(&mut db).unwrap();
        let rel = db.relation("len").unwrap();
        assert_eq!(rel.row(0)[1], Const::Int(5));
    }

    #[test]
    fn custom_function_registration() {
        let program = Program::parse("d(X, Y) :- p(X), Y = #triple(X).").unwrap();
        let mut engine = Engine::new(&program).unwrap();
        engine.register_function("triple", |_, args| {
            Ok(Const::Int(args[0].as_i64().ok_or("not int")? * 3))
        });
        let mut db = Database::new();
        db.fact("p").int(14).assert();
        engine.run(&mut db).unwrap();
        assert_eq!(db.relation("d").unwrap().row(0)[1], Const::Int(42));
    }

    #[test]
    fn mcount_aggregate() {
        let db = run_src("deg(X, C) :- e(X, Y), C = mcount(1, <Y>).", |db| {
            db.assert_str_facts("e", &[&["a", "b"], &["a", "c"], &["a", "b"], &["b", "c"]]);
        });
        let rel = db.relation("deg").unwrap();
        let a = db.sym_of("a");
        for row in rel.rows() {
            if row[0] == a {
                assert_eq!(row[1], Const::Int(2));
            }
        }
    }

    #[test]
    fn post_directive_keeps_extremal_rows() {
        let db = run_src(
            "@post(\"best\", \"max(1)\").\n\
             best(X, W) :- score(X, W).",
            |db| {
                db.fact("score").sym("a").float(1.0).assert();
                db.fact("score").sym("a").float(3.0).assert();
                db.fact("score").sym("b").float(2.0).assert();
            },
        );
        let rel = db.relation("best").unwrap();
        assert_eq!(rel.len(), 2);
        let a = db.sym_of("a");
        for row in rel.rows() {
            if row[0] == a {
                assert_eq!(row[1].as_f64(), Some(3.0));
            }
        }
    }

    #[test]
    fn fact_budget_is_enforced() {
        let program = Program::parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let mut engine = Engine::new(&program).unwrap();
        engine.options_mut().max_facts = 10;
        let mut db = Database::new();
        for i in 0..20 {
            let a = format!("n{i}");
            let b = format!("n{}", i + 1);
            db.fact("e").sym(&a).sym(&b).assert();
        }
        let err = engine.run(&mut db).unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded(_)));
    }

    #[test]
    fn recursive_aggregate_over_cycle_converges() {
        // a -> b -> a ownership cycle with product < 1: accumulated
        // ownership converges geometrically; the epsilon guard terminates.
        let db = run_src(
            "acc(X, Y, V) :- own(X, Y, W), V = msum(W, <X, Y>).\n\
             acc(X, Y, V) :- own(X, Z, W1), acc(Z, Y, W2), Z != Y, V = msum(W1 * W2, <Z>).",
            |db| {
                db.fact("own").sym("a").sym("b").float(0.5).assert();
                db.fact("own").sym("b").sym("a").float(0.5).assert();
                db.fact("own").sym("b").sym("c").float(0.8).assert();
            },
        );
        // Φ(a,c): walks a->b->c, a->b->a->b->c, ... = 0.4·(1+0.25+...) = 0.5333…
        let a = db.sym_of("a");
        let c = db.sym_of("c");
        let rel = db.relation("acc").unwrap();
        let mut val = None;
        for row in rel.rows() {
            if row[0] == a && row[1] == c {
                val = Some(row[2].as_f64().unwrap());
            }
        }
        let expected = 0.4 / (1.0 - 0.25);
        assert!(
            (val.unwrap() - expected).abs() < 1e-6,
            "got {val:?}, want {expected}"
        );
    }

    #[test]
    fn rerunning_is_idempotent() {
        let program = Program::parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let engine = Engine::new(&program).unwrap();
        let mut db = Database::new();
        db.assert_str_facts("e", &[&["a", "b"], &["b", "c"]]);
        engine.run(&mut db).unwrap();
        let n = db.fact_count("t");
        let stats = engine.run(&mut db).unwrap();
        assert_eq!(db.fact_count("t"), n);
        assert_eq!(stats.derived, 0);
    }

    #[test]
    fn stratum_of_reports_layers() {
        let program = Program::parse("r(X) :- n(X), not t(X). t(X) :- e(X, _).").unwrap();
        let engine = Engine::new(&program).unwrap();
        // Base relations occupy layer 0; every cross-component
        // dependency (not just negation) bumps the layer.
        assert_eq!(engine.stratum_of("e"), Some(0));
        assert_eq!(engine.stratum_of("t"), Some(1));
        assert_eq!(engine.stratum_of("r"), Some(2));
        assert_eq!(engine.stratum_of("zzz"), None);
    }

    #[test]
    fn negation_on_derived_relation() {
        let db = run_src(
            "owner(X) :- own(X, _, _).\n\
             leaf(X) :- company(X), not owner(X).",
            |db| {
                db.assert_str_facts("company", &[&["a"], &["b"]]);
                db.fact("own").sym("a").sym("b").float(1.0).assert();
            },
        );
        assert_eq!(db.dump("leaf"), vec!["b"]);
    }

    #[test]
    fn repeated_variables_in_atoms_unify() {
        let db = run_src("selfloop(X) :- e(X, X).", |db| {
            db.assert_str_facts("e", &[&["a", "a"], &["a", "b"]]);
        });
        assert_eq!(db.dump("selfloop"), vec!["a"]);
    }

    impl Database {
        /// Test helper: symbol constant for an existing string.
        fn sym_of(&self, s: &str) -> Const {
            Const::Sym(self.symbols.get(s).expect("symbol exists"))
        }
    }

    #[test]
    fn engine_rejects_ill_formed_programs_with_diagnostics() {
        // Cross-rule arity mismatch: caught at construction (V006), not
        // at run time.
        let program = Program::parse("p(X, Y) :- e(X, Y). q(X) :- p(X).").unwrap();
        match Engine::new(&program) {
            Err(DatalogError::Analysis(ds)) => {
                assert!(ds.iter().any(|d| d.code == crate::analysis::DiagCode::V006));
            }
            other => panic!("expected Analysis error, got {other:?}"),
        }
    }

    #[test]
    fn permissive_analysis_opts_out_of_gating() {
        let program = Program::parse("p(X, Y) :- e(X, Y). q(X) :- p(X).").unwrap();
        let options = EngineOptions {
            analysis: AnalysisConfig::permissive(),
            ..EngineOptions::default()
        };
        // Pre-analyzer behavior: construction succeeds; the arity clash
        // would surface (or not) during evaluation instead.
        Engine::with(&program, FunctionRegistry::default(), options)
            .expect("permissive engine must accept the program");
    }

    #[test]
    fn implicit_existentials_stay_accepted_by_default() {
        // V002 is a warning under the default config: Skolemizing unbound
        // head variables is the Datalog± chase, not an error.
        let program = Program::parse("edge(Z, X) :- own(X, _).").unwrap();
        Engine::new(&program).expect("existential program is legal");
        let options = EngineOptions {
            analysis: AnalysisConfig::strict(),
            ..EngineOptions::default()
        };
        assert!(matches!(
            Engine::with(&program, FunctionRegistry::default(), options),
            Err(DatalogError::Analysis(_))
        ));
    }
}
