//! Planner benchmark: `repro --bench-json`.
//!
//! Runs the bundled Vadalog programs (control, close-link, generic
//! pipeline) over a deterministically generated company graph twice per
//! program — cost-based planning on and off — and emits the measurements
//! as `BENCH_datalog.json` (schema `vadalink-bench-datalog/1`). A row
//! whose planned run was slower is flagged `regression: true`; the
//! validator accepts it but warns.

use datalog::{Engine, Program};

use crate::artifact::{array, cells, each_row, number, row, Check::*, Json, Row, Schema, Section};
use crate::workload::{company_graph, timed_pair, tuple_image, PROGRAMS};

/// The `BENCH_datalog.json` format.
pub const SCHEMA: Schema = Schema {
    tag: "vadalink-bench-datalog/1",
    file: "BENCH_datalog.json",
    header: &[
        ("persons", Int(1)),
        ("seed", Int(1)),
        ("threads", Int(1)),
        ("repeats", Int(1)),
    ],
    sections: &[Section::Rows("programs", ProgramBench::FIELDS)],
    rule,
};

/// `regression` must agree with `speedup < 1.0`. A regression is data,
/// not a schema violation — the flag exists so the slowdown is visible
/// rather than buried in a float — so it warns and the document passes.
fn rule(doc: &Json) -> Result<(), String> {
    each_row(doc, "programs", |row| {
        let speedup = number(row, "speedup");
        if regression_flag(row, speedup < 1.0)? {
            eprintln!(
                "warning: {}: planning made the run slower \
                 (speedup {speedup:.3} < 1.0) — regression flagged",
                row.str_of("name").unwrap_or_default()
            );
        }
        Ok(())
    })
}

/// A row's `regression` flag, which must equal `expected`.
pub(crate) fn regression_flag(row: &Json, expected: bool) -> Result<bool, String> {
    let flagged = row.get("regression") == Some(&Json::Bool(true));
    if flagged != expected {
        return Err(format!(
            "field 'regression' ({flagged}) disagrees with speedup {}",
            number(row, "speedup")
        ));
    }
    Ok(flagged)
}

row! {
    /// Measurements for one bundled program, planning on vs off.
    #[derive(Debug, Clone)]
    pub struct ProgramBench {
        /// Program name (`control`, `close_link`, `generic_pipeline`).
        pub name: &'static str = Name,
        /// Best-of-`repeats` fixpoint wall time with the planner enabled.
        pub plan_on_secs: f64 = Pos,
        /// Best-of-`repeats` fixpoint wall time with the planner disabled.
        pub plan_off_secs: f64 = Pos,
        /// `plan_off_secs / plan_on_secs` — how much planning buys.
        pub speedup: f64 = Pos,
        /// Facts derived by the fixpoint (identical across modes).
        pub facts_derived: usize = Int(0),
        /// Semi-naive rounds across strata (identical across modes).
        pub rounds: usize = Int(0),
        /// Largest single relation after the run (relations only grow
        /// during the fixpoint, so post-run size is the in-run peak for
        /// every relation `@post` does not compact).
        pub peak_relation_rows: usize = Int(0),
        /// Total stored facts after the run.
        pub total_facts: usize = Int(0),
        /// Whether the planned and unplanned runs produced identical
        /// databases (every relation, every tuple).
        pub outputs_match: bool = True,
        /// True when planning made the run *slower* (`speedup < 1.0`).
        pub regression: bool = Bool,
    }
}

/// Benchmark workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Person nodes in the generated company graph (companies = half).
    pub persons: usize,
    /// Generator seed.
    pub seed: u64,
    /// Engine worker threads (1 = sequential reference path).
    pub threads: usize,
    /// Timing repeats per mode; the minimum is reported.
    pub repeats: usize,
}

/// The `BENCH_datalog.json` document of a run.
pub fn doc(cfg: &BenchConfig, rows: &[ProgramBench]) -> Json {
    SCHEMA.doc(
        cells![cfg.persons, cfg.seed, cfg.threads, cfg.repeats],
        vec![array(rows)],
    )
}

/// Runs every bundled program with planning on and off at
/// `cfg.threads`, returning one row per program.
pub fn run_datalog_bench(cfg: &BenchConfig) -> Vec<ProgramBench> {
    let g = company_graph(cfg.persons, cfg.persons / 2, cfg.seed);

    let mut rows = Vec::new();
    for (name, src, threshold) in PROGRAMS {
        let program = Program::parse(src).expect("bundled program parses");
        let mut on = Engine::new(&program).expect("bundled program compiles");
        on.options_mut().threads = cfg.threads;
        on.options_mut().plan = true;
        let mut off = Engine::new(&program).expect("bundled program compiles");
        off.options_mut().threads = cfg.threads;
        off.options_mut().plan = false;

        let (plan_on_secs, plan_off_secs, stats, db_on, db_off) =
            timed_pair(&on, &off, &g, threshold, cfg.repeats);

        let outputs_match = tuple_image(&db_on) == tuple_image(&db_off);
        let peak_relation_rows = (0..db_on.pred_count() as u32)
            .filter_map(|p| db_on.relation(db_on.pred_name(p)))
            .map(|r| r.len())
            .max()
            .unwrap_or(0);
        let speedup = plan_off_secs / plan_on_secs.max(1e-12);
        rows.push(ProgramBench {
            name,
            plan_on_secs,
            plan_off_secs,
            speedup,
            facts_derived: stats.derived,
            rounds: stats.rounds,
            peak_relation_rows,
            total_facts: db_on.total_facts(),
            outputs_match,
            regression: speedup < 1.0,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<ProgramBench> {
        vec![ProgramBench {
            name: "control",
            plan_on_secs: 0.5,
            plan_off_secs: 1.0,
            speedup: 2.0,
            facts_derived: 123,
            rounds: 7,
            peak_relation_rows: 99,
            total_facts: 400,
            outputs_match: true,
            regression: false,
        }]
    }

    fn sample_cfg() -> BenchConfig {
        BenchConfig {
            persons: 100,
            seed: 1,
            threads: 1,
            repeats: 1,
        }
    }

    #[test]
    fn regression_flag_warns_but_validates() {
        let text = SCHEMA.render(&doc(&sample_cfg(), &sample_rows()));
        SCHEMA
            .validate(&text)
            .expect("writer output must satisfy the schema");
        // A slower-with-planning row is data, not corruption: the
        // document must validate as long as the flag agrees with the
        // measured speedup.
        let mut rows = sample_rows();
        rows[0].plan_on_secs = 1.0;
        rows[0].plan_off_secs = 0.9;
        rows[0].speedup = 0.9;
        rows[0].regression = true;
        let text = SCHEMA.render(&doc(&sample_cfg(), &rows));
        SCHEMA
            .validate(&text)
            .expect("regression documents are valid");
        // But the flag may not contradict the float.
        let lying = text.replace("\"regression\": true", "\"regression\": false");
        assert!(SCHEMA.validate(&lying).is_err());
        let missing = text.replace("      \"regression\": true\n", "");
        let missing = missing.replace("\"outputs_match\": true,", "\"outputs_match\": true");
        assert!(SCHEMA.validate(&missing).is_err());
    }

    #[test]
    fn bench_runs_end_to_end_on_a_tiny_graph() {
        let cfg = BenchConfig {
            persons: 60,
            seed: 0xEDB7,
            threads: 1,
            repeats: 1,
        };
        let rows = run_datalog_bench(&cfg);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.outputs_match, "{}: plan on/off diverged", r.name);
            assert!(r.plan_on_secs > 0.0 && r.plan_off_secs > 0.0);
            assert!(r.total_facts >= r.peak_relation_rows);
        }
        let text = SCHEMA.render(&doc(&cfg, &rows));
        SCHEMA
            .validate(&text)
            .expect("real bench output must validate");
    }
}
