//! Incremental-vs-from-scratch differential tests over generated update
//! logs.
//!
//! An [`IncrementalEngine`] session applies a sequence of base-fact
//! insertions and deletions; after every step its database must be
//! set-identical (per predicate, compared through the canonical dump so
//! labelled nulls are structural) to replaying the whole op log against a
//! fresh database and running the engine once. Programs come from the
//! PR 3 synthetic generator — shuffled chain joins, filters, arithmetic
//! bindings, stratified negation, bounded recursion — so the maintained
//! paths (DRed on recursive and non-recursive units, negation replay) all
//! get exercised, including deletions that sever one derivation path
//! while another survives.

use datalog::incr::{IncrementalEngine, Update};
use datalog::{Database, Engine, Program};
use proptest::prelude::*;

/// SplitMix64: deterministic generation without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Random type-uniform program over `e/3` and `node/1`: chain joins,
/// filters, bindings, a negation stratum and a recursive closure — the
/// same family the planner differential suite uses.
fn synth_program(rng: &mut Rng) -> String {
    let mut src = String::new();
    let n_chain = 2 + rng.below(3);
    for r in 0..n_chain {
        let len = 2 + rng.below(3) as usize;
        let mut atoms: Vec<String> = (0..len)
            .map(|i| format!("e(N{i}, N{}, W{i})", i + 1))
            .collect();
        rng.shuffle(&mut atoms);
        let mut body = atoms;
        if rng.below(2) == 0 {
            body.push(format!("W{} >= {}", rng.below(len as u64), rng.below(9)));
        }
        if rng.below(2) == 0 {
            body.push(format!("N0 != N{len}"));
        }
        let head = if rng.below(2) == 0 {
            let a = rng.below(len as u64);
            let b = rng.below(len as u64);
            body.push(format!("S = W{a} + W{b} * 2"));
            format!("r{r}(N0, N{len}, S)")
        } else {
            format!("r{r}(N0, N{len}, W0)")
        };
        src.push_str(&format!("{head} :- {}.\n", body.join(", ")));
    }
    let pick = rng.below(n_chain);
    src.push_str(&format!("hit(X) :- r{pick}(X, _, _).\n"));
    src.push_str("quiet(X) :- node(X), not hit(X).\n");
    let gate = 8 + rng.below(6);
    src.push_str(&format!("tc(X, Y) :- e(X, Y, W), W >= {gate}.\n"));
    src.push_str(&format!("tc(X, Z) :- tc(X, Y), e(Y, Z, W), W >= {gate}.\n"));
    src
}

/// A base fact in database-independent form: predicate plus (symbolic)
/// tuple, buildable against any symbol table.
type Fact = (&'static str, Vec<FactVal>);

#[derive(Debug, Clone, PartialEq)]
enum FactVal {
    Sym(String),
    Int(i64),
}

fn build_tuple(db: &mut Database, vals: &[FactVal]) -> Vec<datalog::Const> {
    vals.iter()
        .map(|v| match v {
            FactVal::Sym(s) => db.sym(s),
            FactVal::Int(i) => datalog::Const::Int(*i),
        })
        .collect()
}

fn edge(rng: &mut Rng, nodes: u64) -> Fact {
    (
        "e",
        vec![
            FactVal::Sym(format!("v{}", rng.below(nodes))),
            FactVal::Sym(format!("v{}", rng.below(nodes))),
            FactVal::Int(rng.below(17) as i64),
        ],
    )
}

/// One update step: deletions (sampled from the live fact set, so they
/// usually hit) then insertions.
struct Step {
    del: Vec<Fact>,
    ins: Vec<Fact>,
}

/// Generates an op log: an initial fact set plus `steps` random update
/// steps over the same node universe. Deletions are drawn from the
/// currently-live facts, so recursive derivations genuinely lose support
/// and the delete-and-rederive path runs.
fn synth_log(rng: &mut Rng, nodes: u64, init_edges: u64, steps: usize) -> (Vec<Fact>, Vec<Step>) {
    let mut init: Vec<Fact> = (0..nodes)
        .map(|i| ("node", vec![FactVal::Sym(format!("v{i}"))] as Vec<FactVal>))
        .collect();
    let mut live: Vec<Fact> = Vec::new();
    for _ in 0..init_edges {
        let f = edge(rng, nodes);
        init.push(f.clone());
        live.push(f);
    }
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut del = Vec::new();
        for _ in 0..rng.below(4) {
            if live.is_empty() {
                break;
            }
            let i = rng.below(live.len() as u64) as usize;
            del.push(live.swap_remove(i));
        }
        let mut ins = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let f = edge(rng, nodes);
            ins.push(f.clone());
            live.push(f);
        }
        out.push(Step { del, ins });
    }
    (init, out)
}

fn canonical_state(db: &Database) -> Vec<(String, Vec<String>)> {
    let mut preds: Vec<String> = (0..db.pred_count() as u32)
        .map(|p| db.pred_name(p).to_owned())
        .collect();
    preds.sort();
    preds
        .into_iter()
        .map(|p| {
            let rows = db.dump_canonical(&p);
            (p, rows)
        })
        .collect()
}

/// Replays the op log into a fresh database and runs the engine once.
fn from_scratch(program: &Program, init: &[Fact], steps: &[Step]) -> Database {
    let mut db = Database::new();
    for (p, vals) in init {
        let t = build_tuple(&mut db, vals);
        db.assert_fact(p, &t).unwrap();
    }
    for step in steps {
        for (p, vals) in &step.del {
            let t = build_tuple(&mut db, vals);
            db.retract_fact(p, &t);
        }
        for (p, vals) in &step.ins {
            let t = build_tuple(&mut db, vals);
            db.assert_fact(p, &t).unwrap();
        }
    }
    Engine::new(program).unwrap().run(&mut db).unwrap();
    db
}

/// The differential: incremental session vs from-scratch replay after
/// every step.
fn assert_incremental_matches(seed: u64, nodes: u64, init_edges: u64, nsteps: usize) {
    let src = synth_program(&mut Rng(seed));
    let program =
        Program::parse(&src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"));
    let (init, steps) = synth_log(&mut Rng(seed ^ 0x5EED), nodes, init_edges, nsteps);

    let mut db = Database::new();
    for (p, vals) in &init {
        let t = build_tuple(&mut db, vals);
        db.assert_fact(p, &t).unwrap();
    }
    let mut session = IncrementalEngine::new(&program, db)
        .unwrap_or_else(|e| panic!("seed {seed}: session open failed: {e}\n{src}"));

    for upto in 0..=steps.len() {
        if upto > 0 {
            let step = &steps[upto - 1];
            let mut update = Update::default();
            for (p, vals) in &step.del {
                let mut t = Vec::with_capacity(vals.len());
                for v in vals {
                    t.push(match v {
                        FactVal::Sym(s) => session.sym(s),
                        FactVal::Int(i) => datalog::Const::Int(*i),
                    });
                }
                update.delete.push((p.to_string(), t));
            }
            for (p, vals) in &step.ins {
                let mut t = Vec::with_capacity(vals.len());
                for v in vals {
                    t.push(match v {
                        FactVal::Sym(s) => session.sym(s),
                        FactVal::Int(i) => datalog::Const::Int(*i),
                    });
                }
                update.insert.push((p.to_string(), t));
            }
            session
                .apply_update(&update)
                .unwrap_or_else(|e| panic!("seed {seed} step {upto}: update failed: {e}\n{src}"));
        }
        let fresh = from_scratch(&program, &init, &steps[..upto]);
        assert_eq!(
            canonical_state(session.db()),
            canonical_state(&fresh),
            "seed {seed}: diverged after step {upto}\n{src}"
        );
    }
}

#[test]
fn synthetic_update_logs_match_from_scratch() {
    for seed in 0..6u64 {
        assert_incremental_matches(seed, 24, 70, 6);
    }
}

#[test]
fn synthetic_update_logs_match_from_scratch_more_seeds() {
    for seed in 200..204u64 {
        assert_incremental_matches(seed, 16, 40, 8);
    }
}

#[test]
fn non_recursive_pure_units_are_dred_maintained() {
    // Meta-test: every generated program is pure, and only `tc` is
    // recursive — so every derived predicate is its own DRed unit, and
    // the non-recursive ones (`r*`, `hit`, `quiet`) are DRed-maintained
    // too. Otherwise the differentials above are exercising replay only.
    for seed in 0..6u64 {
        let src = synth_program(&mut Rng(seed));
        let program = Program::parse(&src).unwrap();
        let mut heads: Vec<&str> = program
            .rules
            .iter()
            .flat_map(|r| r.head.iter().map(|h| h.pred.as_str()))
            .collect();
        heads.sort_unstable();
        heads.dedup();
        let (init, _) = synth_log(&mut Rng(seed ^ 0x5EED), 24, 70, 0);
        let mut db = Database::new();
        for (p, vals) in &init {
            let t = build_tuple(&mut db, vals);
            db.assert_fact(p, &t).unwrap();
        }
        let session = IncrementalEngine::new(&program, db).unwrap();
        let info = session.info();
        assert!(!info.full_fallback, "pure programs never fall back");
        assert_eq!(info.replay_units, 0, "seed {seed}\n{src}");
        assert_eq!(info.dred_units, heads.len(), "seed {seed}\n{src}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleaved insert/delete sequences (proptest-driven shape:
    /// seed, universe size, log length) stay equivalent to from-scratch
    /// evaluation at every prefix.
    #[test]
    fn random_update_logs_are_replay_equivalent(
        seed in 0u64..1u64 << 48,
        nodes in 6u64..20,
        edges in 10u64..50,
        steps in 1usize..6,
    ) {
        assert_incremental_matches(seed, nodes, edges, steps);
    }
}
