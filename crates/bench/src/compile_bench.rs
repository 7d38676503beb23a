//! Compiled-execution benchmark: `repro --exp compile`.
//!
//! Two families of measurements back the compiled-execution claim, and
//! both land in one `BENCH_compile.json` artifact ([`SCHEMA`],
//! `vadalink-bench-compile/1`):
//!
//! * **Programs** — the bundled Vadalog programs run over a generated
//!   company graph twice per program, closure-chain compilation on and
//!   off (cost planning stays on in both, so the delta isolates the
//!   executor). The harness re-uses the planner benchmark's interleaved
//!   [`timed_pair`] and asserts the two database images are identical
//!   before reporting a speedup.
//! * **Kernels** — the `linkage::distance` hot functions timed against
//!   their scalar [`linkage::distance::reference`] twins over a fixed
//!   corpus of generated name pairs (the Fig. 4a inner loop), reported
//!   as ns/pair. Equality of every output is checked while timing.
//!
//! The validator enforces the schema and internal consistency (matched
//! outputs, flags agreeing with floats). Unlike the plan benchmark —
//! which only warns — a row flagged `regression: true` is a hard error
//! here: the compiled executor regressing below the interpreter is
//! exactly the claim this artifact exists to defend, so a regressed
//! document must not validate. The flag carries a guard band
//! ([`REGRESSION_BAND`]: `regression` iff `speedup < 0.95`) because
//! some rows are identity witnesses sitting at ≈1.00× by design —
//! without the band, timer noise straddling 1.0 would make the hard
//! failure flaky. A real executor regression clears 5% easily.

use std::hint::black_box;
use std::time::Instant;

use datalog::{Engine, Program};
use linkage::distance;

use crate::artifact::{array, cells, each_row, number, row, Check::*, Json, Row, Schema, Section};
use crate::datalog_bench::regression_flag;
use crate::workload::{company_graph, timed_pair, tuple_image, PROGRAMS};

/// Speedup below which a row is flagged (and the document rejected) as a
/// regression; the margin below 1.0 is explained in the module doc.
pub const REGRESSION_BAND: f64 = 0.95;

/// The `BENCH_compile.json` format.
pub const SCHEMA: Schema = Schema {
    tag: "vadalink-bench-compile/1",
    file: "BENCH_compile.json",
    header: &[
        ("persons", Int(1)),
        ("seed", Int(1)),
        ("threads", Int(1)),
        ("repeats", Int(1)),
        ("kernel_pairs", Int(1)),
    ],
    sections: &[
        Section::Rows("programs", CompileProgramBench::FIELDS),
        Section::Rows("kernels", KernelBench::FIELDS),
    ],
    rule,
};

/// `regression` must agree with `speedup < REGRESSION_BAND`, and a
/// flagged row fails the document.
fn rule(doc: &Json) -> Result<(), String> {
    for section in ["programs", "kernels"] {
        each_row(doc, section, |row| {
            let speedup = number(row, "speedup");
            if regression_flag(row, speedup < REGRESSION_BAND)? {
                return Err(format!(
                    "{}: compiled path slower than baseline \
                     (speedup {speedup:.3} < {REGRESSION_BAND}) — regression flagged",
                    row.str_of("name").unwrap_or_default()
                ));
            }
            Ok(())
        })?;
    }
    Ok(())
}

row! {
    /// Measurements for one bundled program, compiled vs interpreted.
    #[derive(Debug, Clone)]
    pub struct CompileProgramBench {
        /// Program name (`control`, `close_link`, `generic_pipeline`).
        pub name: &'static str = Name,
        /// Best-of-`repeats` fixpoint wall time with closure-chain
        /// compiled execution (planning on in both modes).
        pub compiled_secs: f64 = Pos,
        /// Best-of-`repeats` fixpoint wall time with the interpreted step
        /// machine.
        pub interpreted_secs: f64 = Pos,
        /// `interpreted_secs / compiled_secs` — how much compilation buys.
        pub speedup: f64 = Pos,
        /// Facts derived by the fixpoint (identical across modes).
        pub facts_derived: usize = Int(0),
        /// Semi-naive rounds across strata (identical across modes).
        pub rounds: usize = Int(0),
        /// Whether the compiled and interpreted runs produced identical
        /// databases (every relation, every tuple).
        pub outputs_match: bool = True,
        /// True when compilation made the run slower than the
        /// [`REGRESSION_BAND`] noise margin allows.
        pub regression: bool = Bool,
    }
}

row! {
    /// Measurements for one linkage distance kernel, fast path vs scalar
    /// reference, over the same pair corpus.
    #[derive(Debug, Clone)]
    pub struct KernelBench {
        /// Kernel name (`levenshtein`, `jaro_winkler`).
        pub name: &'static str = Name,
        /// Best-of-`repeats` nanoseconds per pair for the public kernel.
        pub kernel_ns_per_pair: f64 = Pos,
        /// Best-of-`repeats` nanoseconds per pair for the scalar reference.
        pub reference_ns_per_pair: f64 = Pos,
        /// `reference_ns_per_pair / kernel_ns_per_pair`.
        pub speedup: f64 = Pos,
        /// Pairs in the corpus.
        pub pairs: usize = Int(1),
        /// Whether kernel and reference produced identical outputs on
        /// every pair (checked exactly, bit-level for floats).
        pub outputs_match: bool = True,
        /// True when the kernel was slower than the reference by more
        /// than the [`REGRESSION_BAND`] noise margin.
        pub regression: bool = Bool,
    }
}

/// Benchmark workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct CompileConfig {
    /// Person nodes in the generated company graph (companies = half).
    pub persons: usize,
    /// Generator seed.
    pub seed: u64,
    /// Engine worker threads (1 = sequential reference path).
    pub threads: usize,
    /// Timing repeats per mode; the minimum is reported.
    pub repeats: usize,
    /// Name pairs in the kernel corpus.
    pub kernel_pairs: usize,
}

/// Runs every bundled program with compilation on and off (planning on in
/// both modes) at `cfg.threads`, returning one row per program.
pub fn run_compile_bench(cfg: &CompileConfig) -> Vec<CompileProgramBench> {
    let g = company_graph(cfg.persons, cfg.persons / 2, cfg.seed);

    let mut rows = Vec::new();
    for (name, src, threshold) in PROGRAMS {
        let program = Program::parse(src).expect("bundled program parses");
        let mut compiled = Engine::new(&program).expect("bundled program compiles");
        compiled.options_mut().threads = cfg.threads;
        compiled.options_mut().compile = true;
        let mut interpreted = Engine::new(&program).expect("bundled program compiles");
        interpreted.options_mut().threads = cfg.threads;
        interpreted.options_mut().compile = false;

        let (compiled_secs, interpreted_secs, stats, db_c, db_i) =
            timed_pair(&compiled, &interpreted, &g, threshold, cfg.repeats);

        let outputs_match = tuple_image(&db_c) == tuple_image(&db_i);
        let speedup = interpreted_secs / compiled_secs.max(1e-12);
        rows.push(CompileProgramBench {
            name,
            compiled_secs,
            interpreted_secs,
            speedup,
            facts_derived: stats.derived,
            rounds: stats.rounds,
            outputs_match,
            regression: speedup < REGRESSION_BAND,
        });
    }
    rows
}

/// Deterministic name-pair corpus shaped like the record-linkage inner
/// loop: short, low-alphabet-entropy person/company names where most
/// pairs share characters (the regime the blocked kernels target).
fn kernel_corpus(seed: u64, pairs: usize) -> Vec<(String, String)> {
    const SYL: &[&str] = &[
        "ros", "si", "bian", "chi", "fer", "ra", "ri", "esposi", "to", "rus", "so", "roma", "no",
        "co", "lom", "bo", "mar", "i", "ni", "gal", "lo",
    ];
    fn next(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn name(s: &mut u64) -> String {
        let mut out = String::new();
        let syllables = 2 + next(s) % 3;
        for _ in 0..syllables {
            out.push_str(SYL[(next(s) % SYL.len() as u64) as usize]);
        }
        out
    }
    let mut s = seed;
    (0..pairs)
        .map(|_| {
            let a = name(&mut s);
            // Half the pairs are near-duplicates (one edit), half
            // independent — linkage scoring sees both.
            let b = if next(&mut s).is_multiple_of(2) {
                let mut b: Vec<u8> = a.bytes().collect();
                let i = (next(&mut s) % b.len() as u64) as usize;
                b[i] = b"aeiou"[(next(&mut s) % 5) as usize];
                String::from_utf8(b).expect("ascii edit")
            } else {
                name(&mut s)
            };
            (a, b)
        })
        .collect()
}

/// Times one function over the corpus: `repeats` passes, best ns/pair,
/// folding every output into a checksum so the work cannot be elided.
fn time_over<F: Fn(&str, &str) -> f64>(
    corpus: &[(String, String)],
    repeats: usize,
    f: F,
) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut sum = 0.0f64;
    for _ in 0..repeats.max(1) {
        sum = 0.0;
        let start = Instant::now();
        for (a, b) in corpus {
            sum += f(black_box(a), black_box(b));
        }
        let ns = start.elapsed().as_nanos() as f64 / corpus.len().max(1) as f64;
        best = best.min(ns);
    }
    (best, sum)
}

/// Benchmarks the linkage distance kernels against their scalar
/// references over a generated name-pair corpus.
pub fn run_kernel_bench(cfg: &CompileConfig) -> Vec<KernelBench> {
    let corpus = kernel_corpus(cfg.seed ^ 0x5EED, cfg.kernel_pairs);
    // Exact-equality sweep first, independent of timing.
    let lev_match = corpus.iter().all(|(a, b)| {
        distance::levenshtein(a, b) == distance::reference::levenshtein(a, b)
            && distance::normalized_levenshtein(a, b).to_bits()
                == distance::reference::normalized_levenshtein(a, b).to_bits()
    });
    let jw_match = corpus.iter().all(|(a, b)| {
        distance::jaro_winkler(a, b).to_bits() == distance::reference::jaro_winkler(a, b).to_bits()
    });

    let mut rows = Vec::new();
    for (name, matched, kernel, reference) in [
        (
            "levenshtein",
            lev_match,
            (|a: &str, b: &str| distance::levenshtein(a, b) as f64) as fn(&str, &str) -> f64,
            (|a: &str, b: &str| distance::reference::levenshtein(a, b) as f64)
                as fn(&str, &str) -> f64,
        ),
        (
            "jaro_winkler",
            jw_match,
            distance::jaro_winkler as fn(&str, &str) -> f64,
            distance::reference::jaro_winkler as fn(&str, &str) -> f64,
        ),
    ] {
        // Warm both paths, then time every kernel pass before every
        // reference pass.
        let _ = time_over(&corpus, 1, kernel);
        let _ = time_over(&corpus, 1, reference);
        let (kernel_ns, ksum) = time_over(&corpus, cfg.repeats, kernel);
        let (reference_ns, rsum) = time_over(&corpus, cfg.repeats, reference);
        let speedup = reference_ns / kernel_ns.max(1e-9);
        rows.push(KernelBench {
            name,
            kernel_ns_per_pair: kernel_ns,
            reference_ns_per_pair: reference_ns,
            speedup,
            pairs: corpus.len(),
            outputs_match: matched && ksum.to_bits() == rsum.to_bits(),
            regression: speedup < REGRESSION_BAND,
        });
    }
    rows
}

/// The `BENCH_compile.json` document of a run.
pub fn doc(cfg: &CompileConfig, programs: &[CompileProgramBench], kernels: &[KernelBench]) -> Json {
    SCHEMA.doc(
        cells![
            cfg.persons,
            cfg.seed,
            cfg.threads,
            cfg.repeats,
            cfg.kernel_pairs
        ],
        vec![array(programs), array(kernels)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cfg() -> CompileConfig {
        CompileConfig {
            persons: 100,
            seed: 1,
            threads: 1,
            repeats: 1,
            kernel_pairs: 50,
        }
    }

    fn sample_programs() -> Vec<CompileProgramBench> {
        vec![CompileProgramBench {
            name: "close_link",
            compiled_secs: 0.5,
            interpreted_secs: 1.0,
            speedup: 2.0,
            facts_derived: 123,
            rounds: 7,
            outputs_match: true,
            regression: false,
        }]
    }

    fn sample_kernels() -> Vec<KernelBench> {
        vec![KernelBench {
            name: "levenshtein",
            kernel_ns_per_pair: 40.0,
            reference_ns_per_pair: 200.0,
            speedup: 5.0,
            pairs: 50,
            outputs_match: true,
            regression: false,
        }]
    }

    fn render(programs: &[CompileProgramBench], kernels: &[KernelBench]) -> String {
        SCHEMA.render(&doc(&sample_cfg(), programs, kernels))
    }

    #[test]
    fn regressions_are_rejected() {
        let good = render(&sample_programs(), &sample_kernels());
        SCHEMA
            .validate(&good)
            .expect("writer output must satisfy the schema");
        // Regression flag contradicting the speedup is a hard failure.
        let bad = good.replacen("\"regression\": false", "\"regression\": true", 1);
        assert!(SCHEMA.validate(&bad).is_err());
        // So is a *consistent* regression (speedup below 1.0, flagged):
        // unlike BENCH_datalog.json, a regressed compiled row does not
        // merely warn — the document is rejected.
        let mut regressed = sample_programs();
        regressed[0].compiled_secs = 2.0;
        regressed[0].speedup = 0.5;
        regressed[0].regression = true;
        let bad = render(&regressed, &sample_kernels());
        let err = SCHEMA
            .validate(&bad)
            .expect_err("regressed row must be rejected");
        assert!(err.contains("regression"), "unexpected error: {err}");
        // Same contract for kernel rows.
        let mut slow_kernel = sample_kernels();
        slow_kernel[0].kernel_ns_per_pair = 400.0;
        slow_kernel[0].speedup = 0.5;
        slow_kernel[0].regression = true;
        assert!(SCHEMA
            .validate(&render(&sample_programs(), &slow_kernel))
            .is_err());
    }

    #[test]
    fn kernel_bench_outputs_match_on_the_corpus() {
        let cfg = CompileConfig {
            kernel_pairs: 400,
            ..sample_cfg()
        };
        let rows = run_kernel_bench(&cfg);
        assert_eq!(rows.len(), 2);
        for k in &rows {
            assert!(
                k.outputs_match,
                "{}: kernel diverged from reference",
                k.name
            );
            assert!(k.kernel_ns_per_pair > 0.0 && k.reference_ns_per_pair > 0.0);
        }
    }

    #[test]
    fn compile_bench_runs_end_to_end_on_a_tiny_graph() {
        let cfg = CompileConfig {
            persons: 60,
            seed: 0xEDB7,
            threads: 1,
            repeats: 1,
            kernel_pairs: 50,
        };
        let mut programs = run_compile_bench(&cfg);
        assert_eq!(programs.len(), 3);
        for r in &mut programs {
            assert!(r.outputs_match, "{}: compiled diverged", r.name);
            assert!(r.compiled_secs > 0.0 && r.interpreted_secs > 0.0);
            // A 60-person graph measures microseconds, so the speedup is
            // timing noise; clamp it so validation exercises structure,
            // not scheduler luck (the regression hard-fail has its own
            // test above).
            r.speedup = r.speedup.max(1.0);
            r.regression = false;
        }
        let mut kernels = run_kernel_bench(&cfg);
        for k in &mut kernels {
            assert!(k.outputs_match, "{}: kernel diverged", k.name);
            // Same clamp for kernel rows: unoptimized builds under a
            // loaded test runner say nothing about release kernel speed.
            k.speedup = k.speedup.max(1.0);
            k.regression = false;
        }
        let text = SCHEMA.render(&doc(&cfg, &programs, &kernels));
        SCHEMA
            .validate(&text)
            .expect("real bench output must validate");
    }
}
