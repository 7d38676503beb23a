//! Incremental-maintenance benchmark: `repro --exp incr`.
//!
//! Measures the latency of propagating ownership updates through a live
//! [`IncrementalEngine`] session against the cost of a full fixpoint
//! recomputation on the post-update database, across update batch sizes.
//! The workload is the close-link program (recursive `acc_own` with
//! monotonic aggregation feeding a DRed-maintained symmetric recursion) on
//! a deterministically generated company graph — the same graph family the
//! planner benchmark uses.
//!
//! Each batch of size `k` halves the weight of `k` ownership edges spread
//! across the relation (delete the stored tuple, insert the halved one).
//! The timed quantity is one `apply_update` call; between repeats the
//! inverse update restores the session untimed, so every repeat propagates
//! the same delta from the same state. The baseline is a fresh engine run
//! over a database holding the post-update extensional facts, and after
//! timing, the session's state is checked to be set-identical to that
//! baseline (`outputs_match`).
//!
//! The baseline database is built by replaying the session's entire update
//! history (every warm-up, timed and inverse application) rather than by
//! editing the pristine facts once: round-trips net out to the same fact
//! *set* either way, but they reorder relation rows, and `msum` adds
//! floats in row order — only a byte-faithful replay makes the aggregate
//! bit-identical to the maintained state (the same discipline the
//! incremental differential tests use).
//!
//! The JSON artifact is `BENCH_incr.json` ([`SCHEMA`],
//! `vadalink-bench-incr/1`).

use std::time::Instant;

use datalog::{Const, Database, Engine, IncrementalEngine, Program, Update};
use vada_link::programs::CLOSELINK_PROGRAM;

use crate::artifact::{array, cells, row, Check::*, Json, Row, Schema, Section};
use crate::workload::{company_graph, fresh_db, set_image, CLOSELINK_THRESHOLD};

/// The `BENCH_incr.json` format.
pub const SCHEMA: Schema = Schema {
    tag: "vadalink-bench-incr/1",
    file: "BENCH_incr.json",
    header: &[
        ("persons", Int(1)),
        ("seed", Int(1)),
        ("threads", Int(1)),
        ("repeats", Int(1)),
    ],
    sections: &[Section::Rows("batches", IncrBench::FIELDS)],
    rule: |_| Ok(()),
};

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct IncrConfig {
    /// Person nodes in the generated company graph (companies = half).
    pub persons: usize,
    /// Generator seed.
    pub seed: u64,
    /// Engine worker threads.
    pub threads: usize,
    /// Timing repeats per batch size; the minimum is reported.
    pub repeats: usize,
    /// Update batch sizes to sweep.
    pub batches: Vec<usize>,
}

row! {
    /// Measurements for one update batch size.
    #[derive(Debug, Clone)]
    pub struct IncrBench {
        /// Ownership edges modified per update.
        pub batch: usize = Int(1),
        /// Best-of-`repeats` incremental propagation wall time.
        pub update_secs: f64 = Pos,
        /// Best-of-`repeats` full fixpoint wall time on the post-update
        /// facts.
        pub full_secs: f64 = Pos,
        /// `full_secs / update_secs` — what maintenance buys.
        pub speedup: f64 = Pos,
        /// Net facts changed by the update (inserted + deleted, base and
        /// derived).
        pub changed_facts: usize = Int(0),
        /// Whether the maintained database is set-identical to the
        /// from-scratch fixpoint on the post-update facts.
        pub outputs_match: bool = True,
    }
}

/// Picks `k` `own` tuples spread evenly across the relation and pairs each
/// with its halved-weight replacement. Replacements are kept disjoint from
/// every stored row and every other picked tuple: the generator can emit
/// parallel edges over the same `(src, dst)` pair, so a naive `w/2` can
/// collide with a live row (or another pick), and then the forward and
/// inverse updates would no longer be exact set inverses.
fn pick_edits(db: &Database, k: usize) -> Vec<(Vec<Const>, Vec<Const>)> {
    let rel = db.relation("own").expect("own facts loaded");
    let rows: Vec<Vec<Const>> = rel.rows().map(|r| r.to_vec()).collect();
    assert!(
        rows.len() >= k,
        "graph too small: {} own facts < batch {k}",
        rows.len()
    );
    let stride = rows.len() / k;
    let olds: Vec<Vec<Const>> = (0..k).map(|i| rows[i * stride].clone()).collect();
    let mut taken: std::collections::HashSet<Vec<Const>> = olds.iter().cloned().collect();
    olds.into_iter()
        .map(|old| {
            let mut w = old[2].as_f64().expect("own weight");
            let mut new = old.clone();
            let mut placed = false;
            for _ in 0..64 {
                w *= 0.5;
                new[2] = Const::float(w);
                if rel.find(&new).is_none() && taken.insert(new.clone()) {
                    placed = true;
                    break;
                }
            }
            assert!(placed, "could not find a collision-free replacement weight");
            (old, new)
        })
        .collect()
}

fn as_update(edits: &[(Vec<Const>, Vec<Const>)], forward: bool) -> Update {
    let mut u = Update::default();
    for (old, new) in edits {
        let (del, ins) = if forward { (old, new) } else { (new, old) };
        u.delete.push(("own".into(), del.clone()));
        u.insert.push(("own".into(), ins.clone()));
    }
    u
}

/// Applies an update's extensional edits to a plain database, in the same
/// order `apply_update` uses: all deletes, then all inserts.
fn replay(db: &mut Database, u: &Update) {
    for (p, t) in &u.delete {
        db.retract_fact(p, t);
    }
    for (p, t) in &u.insert {
        db.assert_fact(p, t).expect("arity");
    }
}

/// Runs the sweep, one row per batch size.
pub fn run_incr_bench(cfg: &IncrConfig) -> Vec<IncrBench> {
    let g = company_graph(cfg.persons, cfg.persons / 2, cfg.seed);
    let threshold = Some(CLOSELINK_THRESHOLD);
    let program = Program::parse(CLOSELINK_PROGRAM).expect("bundled program parses");

    let mut engine = Engine::new(&program).expect("bundled program compiles");
    engine.options_mut().threads = cfg.threads;
    let mut session =
        IncrementalEngine::with(engine, fresh_db(&g, threshold)).expect("session opens and runs");

    // Pick every batch's edits against the pristine database: update
    // round-trips reorder relation rows, so picking lazily would make
    // later batches depend on earlier ones.
    let picks: Vec<Vec<(Vec<Const>, Vec<Const>)>> = cfg
        .batches
        .iter()
        .map(|&k| pick_edits(session.db(), k))
        .collect();

    // Every update the session has absorbed, in application order. The
    // full-recompute baseline replays this history so its relation rows —
    // and hence `msum`'s float summation order — match the session's.
    let mut history: Vec<Update> = Vec::new();
    let apply = |session: &mut IncrementalEngine, u: &Update, history: &mut Vec<Update>| {
        let cs = session.apply_update(u).expect("update applies");
        history.push(u.clone());
        cs
    };

    let mut rows = Vec::new();
    for (&batch, edits) in cfg.batches.iter().zip(&picks) {
        let forward = as_update(edits, true);
        let inverse = as_update(edits, false);

        // Warm-up round-trip, then timed repeats from identical state.
        apply(&mut session, &forward, &mut history);
        apply(&mut session, &inverse, &mut history);
        let mut update_secs = f64::INFINITY;
        let mut changed_facts = 0usize;
        for _ in 0..cfg.repeats.max(1) {
            let start = Instant::now();
            let cs = session.apply_update(&forward).expect("update applies");
            update_secs = update_secs.min(start.elapsed().as_secs_f64());
            history.push(forward.clone());
            changed_facts = cs.inserted.len() + cs.deleted.len();
            apply(&mut session, &inverse, &mut history);
        }

        // Full-recompute baseline on the post-update extensional facts:
        // byte-faithful replay of the session's history, then the batch.
        let build_post = || {
            let mut db = fresh_db(&g, threshold);
            for u in &history {
                replay(&mut db, u);
            }
            replay(&mut db, &forward);
            db
        };
        let mut full_engine = Engine::new(&program).expect("compiles");
        full_engine.options_mut().threads = cfg.threads;
        let mut full_secs = f64::INFINITY;
        let mut post_db = build_post();
        full_engine.run(&mut post_db).expect("fixpoint"); // warm-up
        for _ in 0..cfg.repeats.max(1) {
            let mut db = build_post();
            let start = Instant::now();
            full_engine.run(&mut db).expect("fixpoint");
            full_secs = full_secs.min(start.elapsed().as_secs_f64());
            post_db = db;
        }

        // Identity check: leave the update applied, compare, revert.
        apply(&mut session, &forward, &mut history);
        let got = set_image(session.db());
        let want = set_image(&post_db);
        let outputs_match = got == want;
        if !outputs_match {
            for (g, w) in got.iter().zip(want.iter()) {
                if g != w {
                    eprintln!(
                        "incr bench: predicate {} diverged ({} vs {} rows)",
                        g.0,
                        g.1.len(),
                        w.1.len()
                    );
                }
            }
        }
        apply(&mut session, &inverse, &mut history);

        rows.push(IncrBench {
            batch,
            update_secs,
            full_secs,
            speedup: full_secs / update_secs.max(1e-12),
            changed_facts,
            outputs_match,
        });
    }
    rows
}

/// The `BENCH_incr.json` document of a run.
pub fn doc(cfg: &IncrConfig, rows: &[IncrBench]) -> Json {
    SCHEMA.doc(
        cells![cfg.persons, cfg.seed, cfg.threads, cfg.repeats],
        vec![array(rows)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_bench_runs_end_to_end_on_a_tiny_graph() {
        let cfg = IncrConfig {
            persons: 120,
            seed: 0xEDB7,
            threads: 1,
            repeats: 1,
            batches: vec![1, 4],
        };
        let rows = run_incr_bench(&cfg);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.outputs_match,
                "batch {}: maintenance diverged from recomputation",
                r.batch
            );
            assert!(r.update_secs > 0.0 && r.full_secs > 0.0);
            assert!(
                r.changed_facts >= 2,
                "an edit changes at least the base fact"
            );
        }
        let text = SCHEMA.render(&doc(&cfg, &rows));
        SCHEMA
            .validate(&text)
            .expect("real bench output must validate");
    }
}
