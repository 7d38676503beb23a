//! Machine-readable point-lookup benchmark: `repro --exp magic --bench-json`.
//!
//! Measures what goal-directed evaluation buys: for single-source
//! `control` and `close_link` goals over a deterministically generated
//! company graph, the demand (magic-sets) path of [`Engine::query`] is
//! timed against a full bottom-up fixpoint answering the same goal by
//! filtering. Both paths must return byte-identical canonical rows
//! (`outputs_match`); the artifact records the wall-clock ratio and its
//! integer floor (`win_factor`), and the validator rejects any document
//! where a lookup failed to take the demanded path, diverged, or won by
//! less than an integer factor (`win_factor < 2`).
//!
//! The JSON artifact is `BENCH_magic.json` ([`SCHEMA`],
//! `vadalink-bench-magic/1`).

use std::time::Instant;

use datalog::{goal_matches, Engine, Program, Query};
use vada_link::model::CompanyGraph;
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM};

use crate::artifact::{array, cells, each_row, number, row, Check::*, Json, Row, Schema, Section};
use crate::workload::{company_graph, fresh_db, CLOSELINK_THRESHOLD};

/// The `BENCH_magic.json` format.
pub const SCHEMA: Schema = Schema {
    tag: "vadalink-bench-magic/1",
    file: "BENCH_magic.json",
    header: &[
        ("persons", Int(1)),
        ("seed", Int(1)),
        ("threads", Int(1)),
        ("repeats", Int(1)),
    ],
    sections: &[Section::Rows("lookups", MagicBench::FIELDS)],
    rule,
};

/// Every lookup won by an integer factor (`2 <= win_factor <= speedup`)
/// and derived no more facts than the full run.
fn rule(doc: &Json) -> Result<(), String> {
    each_row(doc, "lookups", |row| {
        let speedup = number(row, "speedup");
        let win = number(row, "win_factor");
        if win < 2.0 {
            return Err(format!(
                "win_factor {win} < 2 — goal-directed evaluation must win \
                 by an integer factor"
            ));
        }
        if win > speedup {
            return Err(format!(
                "win_factor {win} exceeds the measured speedup {speedup}"
            ));
        }
        let (qd, fd) = (number(row, "query_derived"), number(row, "full_derived"));
        if qd > fd {
            return Err(format!(
                "demanded run derived more facts ({qd}) than the full run ({fd})"
            ));
        }
        Ok(())
    })
}

row! {
    /// Measurements for one `(program, goal)` point lookup.
    #[derive(Debug, Clone)]
    pub struct MagicBench {
        /// Program name (`control`, `close_link`).
        pub name: &'static str = Name,
        /// The goal evaluated, e.g. `control("n42", X)?`.
        pub goal: String = Name,
        /// Best-of-`repeats` wall time of the goal-directed path.
        pub query_secs: f64 = Pos,
        /// Best-of-`repeats` wall time of full evaluation plus filtering.
        pub full_secs: f64 = Pos,
        /// `full_secs / query_secs` — what demand restriction buys.
        pub speedup: f64 = Pos,
        /// `floor(speedup)` — the integer-factor win the validator
        /// enforces.
        pub win_factor: u64 = Int(0),
        /// Number of matching answer rows (identical across paths).
        pub answers: usize = Int(0),
        /// Facts derived by the demanded run vs the full run.
        pub query_derived: usize = Int(0),
        pub full_derived: usize = Int(0),
        /// Whether the rewrite actually restricted evaluation (no
        /// fallback).
        pub demanded: bool = True,
        /// Whether both paths returned byte-identical canonical rows.
        pub outputs_match: bool = True,
    }
}

/// Benchmark workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct MagicConfig {
    /// Person nodes in the generated company graph. The graph carries as
    /// many companies as persons — company registries are company-heavy,
    /// and the control/close_link cones consist of company-company
    /// ownership chains.
    pub persons: usize,
    /// Generator seed.
    pub seed: u64,
    /// Engine worker threads (1 = sequential reference path).
    pub threads: usize,
    /// Timing repeats per path; the minimum is reported.
    pub repeats: usize,
    /// Single-source goals per program, spread across the company id
    /// range.
    pub goals_per_program: usize,
}

/// Company symbols spread across the id range, one per requested goal.
fn sources(g: &CompanyGraph, n: usize) -> Vec<String> {
    let all: Vec<String> = g.companies().map(|c| format!("n{}", c.index())).collect();
    assert!(!all.is_empty(), "generated graph has no companies");
    (0..n.max(1))
        .map(|i| all[i * (all.len() - 1) / n.max(1)].clone())
        .collect()
}

/// Runs the point-lookup sweep: for each program and source company, time
/// the goal-directed path against full evaluation of the same goal.
pub fn run_magic_bench(cfg: &MagicConfig) -> Vec<MagicBench> {
    let g = company_graph(cfg.persons, cfg.persons, cfg.seed);

    let programs: [(&str, &str, &str, Option<f64>); 2] = [
        ("control", CONTROL_PROGRAM, "control", None),
        (
            "close_link",
            CLOSELINK_PROGRAM,
            "close_link",
            Some(CLOSELINK_THRESHOLD),
        ),
    ];

    let mut rows = Vec::new();
    for (name, src, pred, threshold) in programs {
        let program = Program::parse(src).expect("bundled program parses");
        let mut engine = Engine::new(&program).expect("bundled program compiles");
        engine.options_mut().threads = cfg.threads;
        let base = fresh_db(&g, threshold);

        for source in sources(&g, cfg.goals_per_program) {
            let goal = format!("{pred}(\"{source}\", X)?");
            let q = Query::parse(&goal).expect("valid goal");

            // Warm both paths once (page faults and lazy allocation land
            // on whoever runs first), then keep the best of `repeats`.
            let mut warm = base.clone();
            engine.run(&mut warm).expect("fixpoint");
            let _ = engine.query(&base, &goal).expect("goal-directed run");

            let (mut query_secs, mut full_secs) = (f64::INFINITY, f64::INFINITY);
            let mut last = None;
            for _ in 0..cfg.repeats.max(1) {
                let start = Instant::now();
                let answer = engine.query(&base, &goal).expect("goal-directed run");
                query_secs = query_secs.min(start.elapsed().as_secs_f64());

                // The full path answers the same goal without the demand
                // rewrite: scratch copy (answering must not mutate the
                // caller's database — `Engine::query` pays for its copy
                // inside the timer too), full fixpoint, filter.
                let start = Instant::now();
                let mut full = base.clone();
                let stats = engine.run(&mut full).expect("fixpoint");
                let reference = goal_matches(&full, &q);
                full_secs = full_secs.min(start.elapsed().as_secs_f64());
                last = Some((answer, stats, reference));
            }
            let (answer, full_stats, reference) = last.expect("at least one repeat");

            let speedup = full_secs / query_secs.max(1e-12);
            rows.push(MagicBench {
                name,
                goal,
                query_secs,
                full_secs,
                speedup,
                win_factor: speedup.max(0.0) as u64,
                answers: answer.rows.len(),
                query_derived: answer.stats.derived,
                full_derived: full_stats.derived,
                demanded: answer.demanded,
                outputs_match: answer.rows == reference,
            });
        }
    }
    rows
}

/// The `BENCH_magic.json` document of a run.
pub fn doc(cfg: &MagicConfig, rows: &[MagicBench]) -> Json {
    SCHEMA.doc(
        cells![cfg.persons, cfg.seed, cfg.threads, cfg.repeats],
        vec![array(rows)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<MagicBench> {
        vec![MagicBench {
            name: "control",
            goal: "control(\"n0\", X)?".into(),
            query_secs: 0.01,
            full_secs: 0.12,
            speedup: 12.0,
            win_factor: 12,
            answers: 3,
            query_derived: 40,
            full_derived: 4_000,
            demanded: true,
            outputs_match: true,
        }]
    }

    fn sample_cfg() -> MagicConfig {
        MagicConfig {
            persons: 100,
            seed: 1,
            threads: 1,
            repeats: 1,
            goals_per_program: 1,
        }
    }

    #[test]
    fn win_factor_and_derivation_rules_are_enforced() {
        let good = SCHEMA.render(&doc(&sample_cfg(), &sample_rows()));
        SCHEMA
            .validate(&good)
            .expect("writer output must satisfy the schema");
        // A sub-integer win is a failure, not a data point.
        let bad = good.replace("\"win_factor\": 12", "\"win_factor\": 1");
        assert!(SCHEMA.validate(&bad).is_err());
        // A claimed factor above the measured ratio is inconsistent.
        let bad = good.replace("\"win_factor\": 12", "\"win_factor\": 13");
        assert!(SCHEMA.validate(&bad).is_err());
        // The demanded run may never derive more than the full run.
        let bad = good.replace("\"query_derived\": 40", "\"query_derived\": 5000");
        assert!(SCHEMA.validate(&bad).is_err());
    }

    #[test]
    fn bench_runs_end_to_end_on_a_tiny_graph() {
        // Small graph: only the identity invariants are asserted here
        // (the integer-factor win is a property of the CI-scale runs;
        // at 80 persons both paths finish in microseconds).
        let cfg = MagicConfig {
            persons: 80,
            seed: 0xEDB7,
            threads: 1,
            repeats: 1,
            goals_per_program: 2,
        };
        let rows = run_magic_bench(&cfg);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.demanded, "{}: fell back to full evaluation", r.goal);
            assert!(r.outputs_match, "{}: answers diverged", r.goal);
            assert!(
                r.query_derived <= r.full_derived,
                "{}: demanded run derived more",
                r.goal
            );
        }
    }
}
