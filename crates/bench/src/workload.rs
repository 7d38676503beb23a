//! Workload pieces the `*_bench` modules share: the generated company
//! graph, its mapped database, the bundled programs, the two database
//! identity lenses and the paired-mode timer.

use std::time::Instant;

use datalog::{Const, Database, Engine, RunStats};
use gen::company::{generate, CompanyGraphConfig};
use vada_link::mapping::load_facts;
use vada_link::model::CompanyGraph;
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM, GENERIC_PIPELINE_PROGRAM};

/// Close-link threshold every benchmark runs with (the paper's default).
pub const CLOSELINK_THRESHOLD: f64 = 0.2;

/// The bundled programs the planner and compile benches run: name,
/// source, and the `th` fact close-link needs.
pub const PROGRAMS: [(&str, &str, Option<f64>); 3] = [
    ("control", CONTROL_PROGRAM, None),
    ("close_link", CLOSELINK_PROGRAM, Some(CLOSELINK_THRESHOLD)),
    ("generic_pipeline", GENERIC_PIPELINE_PROGRAM, None),
];

/// A generated company graph.
pub fn company_graph(persons: usize, companies: usize, seed: u64) -> CompanyGraph {
    let out = generate(&CompanyGraphConfig {
        persons,
        companies,
        seed,
        ..Default::default()
    });
    CompanyGraph::new(out.graph)
}

/// The graph's mapped facts, plus the threshold fact `th(t)` when given.
pub fn fresh_db(g: &CompanyGraph, threshold: Option<f64>) -> Database {
    let mut db = Database::new();
    load_facts(g, &mut db);
    if let Some(t) = threshold {
        db.assert_fact("th", &[Const::float(t)]).expect("arity");
    }
    db
}

fn image(db: &Database, dump: fn(&Database, &str) -> Vec<String>) -> Vec<(String, Vec<String>)> {
    let mut image: Vec<(String, Vec<String>)> = (0..db.pred_count() as u32)
        .map(|p| {
            let name = db.pred_name(p).to_owned();
            let rows = dump(db, &name);
            (name, rows)
        })
        .collect();
    image.sort();
    image
}

/// Byte-identity lens: every predicate's sorted tuples, labelled nulls by
/// id. Two runs of one program over one database must agree on it.
pub fn tuple_image(db: &Database) -> Vec<(String, Vec<String>)> {
    image(db, Database::dump)
}

/// Set-identity lens: every predicate's sorted tuples, labelled nulls by
/// their Skolem definition — the incremental layer's own comparison.
pub fn set_image(db: &Database) -> Vec<(String, Vec<String>)> {
    image(db, Database::dump_canonical)
}

/// One run of `engine` on a fresh database, returning the wall time of
/// the fixpoint alone (database construction is outside the timer).
fn one_run(engine: &Engine, g: &CompanyGraph, threshold: Option<f64>) -> (f64, RunStats, Database) {
    let mut db = fresh_db(g, threshold);
    let start = Instant::now();
    let stats = engine.run(&mut db).expect("fixpoint");
    (start.elapsed().as_secs_f64(), stats, db)
}

/// Times two engine modes back to back: one untimed warm-up run per mode
/// (heap growth and lazy page faults land on whichever mode runs first —
/// warming both keeps the comparison fair), then `repeats` interleaved
/// timed runs per mode, keeping the best of each. Returns
/// `(best_a, best_b, stats, db_a, db_b)`; stats and databases come from
/// the last repeat (identical across repeats — the engine is
/// deterministic).
pub fn timed_pair(
    a: &Engine,
    b: &Engine,
    g: &CompanyGraph,
    threshold: Option<f64>,
    repeats: usize,
) -> (f64, f64, RunStats, Database, Database) {
    let _ = one_run(a, g, threshold);
    let _ = one_run(b, g, threshold);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut last: Option<(RunStats, Database, Database)> = None;
    for _ in 0..repeats.max(1) {
        let (secs_a, stats, db_a) = one_run(a, g, threshold);
        let (secs_b, _, db_b) = one_run(b, g, threshold);
        best_a = best_a.min(secs_a);
        best_b = best_b.min(secs_b);
        last = Some((stats, db_a, db_b));
    }
    let (stats, db_a, db_b) = last.expect("at least one repeat");
    (best_a, best_b, stats, db_a, db_b)
}
