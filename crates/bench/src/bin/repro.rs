//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--exp all|t1|fig4a|fig4b|fig4c|fig4d|fig4e|threads|ablations|incr|magic|serve|compile|store]
//!       [--scale small|full] [--threads N] [--bench-json [PATH]]
//! ```
//!
//! `small` (default) finishes in a few minutes; `full` pushes the sweeps
//! to the paper's ranges (100k-person graphs, 1–500 clusters). An unknown
//! experiment or scale exits 2 with the list of valid names.
//!
//! `--bench-json` skips the figure sweeps and instead writes the
//! experiment's JSON benchmark artifact (to `PATH`, or to the default
//! file below). Experiments without an artifact (`t1`, `fig4*`,
//! `threads`, `ablations`) exit 2.
//!
//! * `all` (default): `BENCH_datalog.json` — bundled programs, cost-based
//!   planning on vs off;
//! * `incr`: `BENCH_incr.json` — incremental update propagation vs full
//!   recomputation across batch sizes;
//! * `magic`: `BENCH_magic.json` — goal-directed point lookups vs full
//!   evaluation (an integer-factor win per lookup);
//! * `serve`: `BENCH_serve.json` — a live `vadalink serve` over TCP,
//!   closed-loop zipfian readers across reader/writer mixes (qps,
//!   p50/p99, epoch-swap stall);
//! * `compile`: `BENCH_compile.json` — closure-chain compiled execution
//!   vs the interpreted step machine, and the linkage distance kernels vs
//!   their scalar references;
//! * `store`: `BENCH_store.json` — recovery time vs snapshot cadence
//!   after a simulated crash, and one large-register probe (1M persons
//!   at `--scale full`).
//!
//! Every document is rendered and then checked by the same schema table
//! in `bench::artifact` before it is written, so a malformed artifact
//! exits 1 instead of landing on disk — CI smokes every path in release
//! mode.
//!
//! Without `--bench-json`, `incr`, `magic`, `serve`, `compile` and `store`
//! print their sweep as a table; `all` runs the figures and `incr`.

use bench::artifact::{Json, Schema};
use bench::compile_bench::{run_compile_bench, run_kernel_bench, CompileConfig};
use bench::datalog_bench::{run_datalog_bench, BenchConfig};
use bench::experiments::*;
use bench::incr_bench::{run_incr_bench, IncrConfig};
use bench::magic_bench::{run_magic_bench, MagicConfig};
use bench::serve_bench::{run_serve_bench, Mix, ServeBenchConfig, Workload};
use bench::store_bench::{run_store_bench, StoreBenchConfig};
use bench::{compile_bench, datalog_bench, incr_bench, magic_bench, serve_bench, store_bench};

/// Every valid `--exp` value.
const EXPERIMENTS: &str =
    "all|t1|fig4a|fig4b|fig4c|fig4d|fig4e|threads|ablations|incr|magic|serve|compile|store";

/// Runs one experiment (`true`: full scale), prints its sweep and
/// returns its artifact document.
type Runner = fn(bool) -> Json;

/// The experiments with a JSON artifact: `--exp` value, format (which
/// names the default path) and runner.
const ARTIFACTS: [(&str, &Schema, Runner); 6] = [
    ("all", &datalog_bench::SCHEMA, run_datalog),
    ("incr", &incr_bench::SCHEMA, run_incr),
    ("magic", &magic_bench::SCHEMA, run_magic),
    ("serve", &serve_bench::SCHEMA, run_serve),
    ("compile", &compile_bench::SCHEMA, run_compile),
    ("store", &store_bench::SCHEMA, run_store),
];

struct Args {
    exp: String,
    full: bool,
    /// `Some(None)` = `--bench-json` with the default path.
    bench_json: Option<Option<String>>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut exp = "all".to_owned();
    let mut full = false;
    let mut bench_json = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--bench-json" => {
                // Optional path operand; the default depends on --exp.
                let path = match argv.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        Some(p.clone())
                    }
                    _ => None,
                };
                bench_json = Some(path);
            }
            "--exp" => {
                i += 1;
                exp = match argv.get(i) {
                    Some(e) if EXPERIMENTS.split('|').any(|x| x == e) => e.clone(),
                    other => usage_error(&format!("--exp expects {EXPERIMENTS} (got {other:?})")),
                };
            }
            "--scale" => {
                i += 1;
                full = match argv.get(i).map(String::as_str) {
                    Some("small") => false,
                    Some("full") => true,
                    other => usage_error(&format!("--scale expects small|full (got {other:?})")),
                };
            }
            "--threads" => {
                i += 1;
                let n: usize = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
                if n == 0 {
                    usage_error("--threads expects a positive integer");
                }
                par::set_threads(n);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    Args {
        exp,
        full,
        bench_json,
    }
}

const SEED: u64 = 0xEDB7;

/// Renders `doc`, validates the text against `schema` and writes it to
/// `path`. Exits 1 when the document fails its schema or cannot be
/// written.
fn write_artifact(schema: &Schema, doc: &Json, path: &str) {
    let text = schema.render(doc);
    if let Err(e) = schema.validate(&text) {
        eprintln!("generated benchmark JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {path} (schema {} — validated)", schema.tag);
}

/// Runs the datalog plan-on/plan-off benchmark.
fn run_datalog(full: bool) -> Json {
    let cfg = BenchConfig {
        persons: if full { 4_000 } else { 1_500 },
        seed: SEED,
        threads: 1,
        repeats: 5,
    };
    println!(
        "Datalog bench: bundled programs, planning on vs off ({} persons, {} repeats, 1 thread)",
        cfg.persons, cfg.repeats
    );
    let rows = run_datalog_bench(&cfg);
    println!(
        "{:>18} {:>12} {:>13} {:>9} {:>9} {:>8} {:>10}",
        "program", "plan_on_s", "plan_off_s", "speedup", "derived", "rounds", "peak_rows"
    );
    for r in &rows {
        println!(
            "{:>18} {:>12.3} {:>13.3} {:>8.2}x {:>9} {:>8} {:>10}",
            r.name,
            r.plan_on_secs,
            r.plan_off_secs,
            r.speedup,
            r.facts_derived,
            r.rounds,
            r.peak_relation_rows
        );
    }
    datalog_bench::doc(&cfg, &rows)
}

/// Runs the incremental-vs-recompute sweep. The small scale stays above
/// the acceptance floor (>= 1500 persons, where the close-link join the
/// session avoids re-running is large enough for single-edge updates to
/// clear their 5x speedup bar with margin).
fn run_incr(full: bool) -> Json {
    let cfg = IncrConfig {
        persons: if full { 8_000 } else { 4_000 },
        seed: SEED,
        threads: 1,
        repeats: if full { 5 } else { 3 },
        batches: vec![1, 8, 64, 256],
    };
    println!(
        "Incremental maintenance bench: close_link updates vs full recompute \
         ({} persons, {} repeats, 1 thread)",
        cfg.persons, cfg.repeats
    );
    let rows = run_incr_bench(&cfg);
    println!(
        "{:>7} {:>13} {:>11} {:>9} {:>9}",
        "batch", "update_s", "full_s", "speedup", "changed"
    );
    for r in &rows {
        println!(
            "{:>7} {:>13.6} {:>11.3} {:>8.1}x {:>9}",
            r.batch, r.update_secs, r.full_secs, r.speedup, r.changed_facts
        );
        assert!(r.outputs_match, "batch {}: maintenance diverged", r.batch);
    }
    println!("acceptance: single-edge updates >= 5x faster than recomputation (EXPERIMENTS.md).");
    incr_bench::doc(&cfg, &rows)
}

/// Runs the goal-directed point-lookup sweep.
fn run_magic(full: bool) -> Json {
    let cfg = MagicConfig {
        persons: if full { 4_000 } else { 1_500 },
        seed: SEED,
        threads: 1,
        repeats: if full { 5 } else { 3 },
        goals_per_program: 3,
    };
    println!(
        "Goal-directed bench: single-source point lookups vs full evaluation \
         ({} persons, {} repeats, 1 thread)",
        cfg.persons, cfg.repeats
    );
    let rows = run_magic_bench(&cfg);
    println!(
        "{:>12} {:>24} {:>11} {:>10} {:>9} {:>8} {:>10} {:>10}",
        "program", "goal", "query_s", "full_s", "speedup", "answers", "q_derived", "f_derived"
    );
    for r in &rows {
        println!(
            "{:>12} {:>24} {:>11.4} {:>10.3} {:>8.1}x {:>8} {:>10} {:>10}",
            r.name,
            r.goal,
            r.query_secs,
            r.full_secs,
            r.speedup,
            r.answers,
            r.query_derived,
            r.full_derived
        );
        assert!(r.demanded, "{}: fell back to full evaluation", r.goal);
        assert!(r.outputs_match, "{}: answers diverged", r.goal);
    }
    println!("acceptance: every lookup wins by an integer factor (EXPERIMENTS.md).");
    magic_bench::doc(&cfg, &rows)
}

/// Runs the serving-throughput sweep against a live `vadalink serve`
/// instance.
fn run_serve(full: bool) -> Json {
    let cfg = ServeBenchConfig {
        persons: if full { 2_000 } else { 600 },
        seed: SEED,
        threads: 1,
        ops_per_reader: if full { 2_000 } else { 400 },
        zipf_s: 1.1,
        workload: Workload::Closed,
        mixes: vec![
            Mix {
                readers: 1,
                writers: 0,
            },
            Mix {
                readers: 4,
                writers: 0,
            },
            Mix {
                readers: 4,
                writers: 1,
            },
            Mix {
                readers: 8,
                writers: 2,
            },
        ],
    };
    println!(
        "Serving bench: closed-loop zipfian lookups over TCP against one \
         epoch-swapping server ({} persons, {} ops/reader, zipf s={})",
        cfg.persons, cfg.ops_per_reader, cfg.zipf_s
    );
    let rows = run_serve_bench(&cfg);
    println!(
        "{:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>12}",
        "readers", "writers", "ops", "qps", "p50_us", "p99_us", "updates", "epochs", "stall_max_ns"
    );
    for r in &rows {
        println!(
            "{:>8} {:>8} {:>8} {:>10.0} {:>10.1} {:>10.1} {:>8} {:>8} {:>12}",
            r.readers,
            r.writers,
            r.ops,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.updates,
            r.epochs_committed,
            r.swap_stall_max_ns
        );
    }
    println!(
        "acceptance: every mix sustains positive qps with ordered percentiles; \
         writer mixes commit epochs without stalling readers out (EXPERIMENTS.md)."
    );
    serve_bench::doc(&cfg, &rows)
}

/// Runs the compiled-vs-interpreted sweep (programs + linkage kernels).
fn run_compile(full: bool) -> Json {
    // Full scale sits in the join-dominated regime where the per-tuple
    // dispatch savings dominate shared costs (generation, canonical sort,
    // insertion); the quick scale is a CI-friendly smoke of the same sweep.
    let cfg = CompileConfig {
        persons: if full { 15_000 } else { 1_500 },
        seed: SEED,
        threads: 1,
        repeats: 5,
        kernel_pairs: if full { 200_000 } else { 50_000 },
    };
    println!(
        "Compiled execution bench: bundled programs, closure-chain compiled vs \
         interpreted ({} persons, {} repeats, 1 thread; planning on in both modes)",
        cfg.persons, cfg.repeats
    );
    let programs = run_compile_bench(&cfg);
    println!(
        "{:>18} {:>12} {:>14} {:>9} {:>9} {:>8}",
        "program", "compiled_s", "interpreted_s", "speedup", "derived", "rounds"
    );
    for r in &programs {
        println!(
            "{:>18} {:>12.4} {:>14.4} {:>8.2}x {:>9} {:>8}",
            r.name, r.compiled_secs, r.interpreted_secs, r.speedup, r.facts_derived, r.rounds
        );
        assert!(r.outputs_match, "{}: compiled run diverged", r.name);
    }
    println!(
        "\nLinkage kernel bench: blocked/bit-parallel distance kernels vs scalar \
         references ({} name pairs)",
        cfg.kernel_pairs
    );
    let kernels = run_kernel_bench(&cfg);
    println!(
        "{:>14} {:>12} {:>15} {:>9} {:>9}",
        "kernel", "kernel_ns", "reference_ns", "speedup", "pairs"
    );
    for k in &kernels {
        println!(
            "{:>14} {:>12.1} {:>15.1} {:>8.2}x {:>9}",
            k.name, k.kernel_ns_per_pair, k.reference_ns_per_pair, k.speedup, k.pairs
        );
        assert!(
            k.outputs_match,
            "{}: kernel diverged from reference",
            k.name
        );
    }
    println!("acceptance: close_link >= 1.5x compiled, kernels beat references (EXPERIMENTS.md).");
    compile_bench::doc(&cfg, &programs, &kernels)
}

/// Runs the durable-store sweeps (recovery vs snapshot cadence, register
/// scale).
fn run_store(full: bool) -> Json {
    let cfg = StoreBenchConfig {
        persons: if full { 8_000 } else { 2_000 },
        seed: SEED,
        threads: 1,
        updates: if full { 200 } else { 50 },
        cadences: if full {
            vec![0, 16, 64]
        } else {
            vec![0, 8, 32]
        },
        register_persons: if full { 1_000_000 } else { 20_000 },
    };
    println!(
        "Durable store bench: crash recovery + register scale \
         ({} persons, {} committed updates)",
        cfg.persons, cfg.updates
    );
    let report = run_store_bench(&cfg);
    println!(
        "{:>9} {:>9} {:>12} {:>11} {:>12}",
        "cadence", "commits", "recovery_s", "snapshots", "tail_frames"
    );
    for r in &report.recovery_rows {
        println!(
            "{:>9} {:>9} {:>12.3} {:>11} {:>12}",
            r.cadence, r.commits, r.recovery_secs, r.snapshots_written, r.wal_tail_frames
        );
        assert!(r.outputs_match, "cadence {}: recovery diverged", r.cadence);
    }
    let reg = &report.register;
    println!(
        "\nregister: {} persons, {} facts — load {:.2}s, eval {:.2}s, \
         recover {:.2}s, ~{} MiB heap",
        reg.persons,
        reg.total_facts,
        reg.load_secs,
        reg.eval_secs,
        reg.recover_secs,
        reg.heap_bytes / (1 << 20)
    );
    println!(
        "acceptance: every cadence recovers canonically identical state \
         (EXPERIMENTS.md)."
    );
    store_bench::doc(&cfg, &report)
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.bench_json {
        let Some(&(_, schema, run)) = ARTIFACTS.iter().find(|a| a.0 == args.exp) else {
            let with: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
            usage_error(&format!(
                "--bench-json: experiment '{}' writes no artifact (artifacts: {})",
                args.exp,
                with.join("|")
            ));
        };
        write_artifact(
            schema,
            &run(args.full),
            path.as_deref().unwrap_or(schema.file),
        );
        return;
    }
    let run = |name: &str| args.exp == "all" || args.exp == name;
    println!(
        "== VADA-LINK reproduction (scale: {}) ==\n",
        if args.full { "full" } else { "small" }
    );

    if run("t1") {
        let nodes = if args.full { 1_000_000 } else { 100_000 };
        let (_, report) = exp_t1(nodes, SEED);
        println!("{report}");
    }

    if run("fig4a") {
        let sizes: &[usize] = if args.full {
            &[1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000]
        } else {
            &[1_000, 2_000, 5_000, 10_000]
        };
        let naive_cap = if args.full { 20_000 } else { 5_000 };
        println!("Figure 4(a): execution time vs nodes (real-world-like company graphs)");
        println!(
            "{:>9} {:>12} {:>14} {:>12} {:>14}",
            "persons", "vadalink_s", "comparisons", "naive_s", "naive_cmps"
        );
        for r in exp_fig4a(sizes, naive_cap, SEED) {
            println!(
                "{:>9} {:>12.3} {:>14} {:>12} {:>14}",
                r.persons,
                r.vadalink_secs,
                r.comparisons,
                r.naive_secs
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_else(|| "-".into()),
                r.naive_comparisons
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        println!("paper: linear-ish growth for VADA-LINK, quadratic for the naive baseline.\n");
    }

    if run("fig4b") {
        let sizes: &[usize] = if args.full {
            &[1_000, 2_000, 4_000, 6_000, 8_000, 10_000]
        } else {
            &[1_000, 2_000, 4_000]
        };
        println!("Figure 4(b): execution time vs nodes (dense synthetic BA graphs, m=8)");
        println!("{:>9} {:>12} {:>14}", "nodes", "secs", "comparisons");
        for r in exp_fig4b(sizes, SEED) {
            println!("{:>9} {:>12.3} {:>14}", r.nodes, r.secs, r.comparisons);
        }
        println!("paper: same linear trend, elapsed times an order of magnitude above 4(a).\n");
    }

    if run("fig4c") {
        let persons = if args.full { 20_000 } else { 3_000 };
        let ks: &[usize] = &[1, 2, 5, 10, 20, 50, 100, 200, 300, 400, 500];
        println!("Figure 4(c): execution time vs cluster count ({persons} persons)");
        println!("{:>9} {:>12} {:>14}", "clusters", "secs", "comparisons");
        for r in exp_fig4c(persons, ks, SEED) {
            println!("{:>9} {:>12.3} {:>14}", r.clusters, r.secs, r.comparisons);
        }
        println!("paper: elapsed time falls sharply up to ~10 clusters, then flattens.\n");
    }

    if run("fig4d") {
        let sizes: &[usize] = if args.full {
            &[100, 200, 400, 600, 800, 1_000]
        } else {
            &[100, 300, 600, 1_000]
        };
        println!("Figure 4(d): execution time vs density (BA presets, 100–1000 nodes)");
        println!("{:>11} {:>8} {:>12}", "density", "nodes", "secs");
        for r in exp_fig4d(sizes, SEED) {
            println!("{:>11} {:>8} {:>12.3}", r.density, r.nodes, r.secs);
        }
        println!("paper: sparse/normal/dense track each other; superdense grows superlinearly.\n");
    }

    if run("fig4e") {
        let persons = if args.full { 4_000 } else { 1_500 };
        let repeats = if args.full { 10 } else { 3 };
        let ks: &[usize] = &[1, 10, 20, 50, 100, 200, 300, 400, 450, 500];
        println!("Figure 4(e): recall vs cluster count ({persons} persons, {repeats} repeats, 20% removed)");
        println!("{:>9} {:>10} {:>14}", "clusters", "recall", "comparisons");
        for r in exp_fig4e(persons, ks, repeats, SEED) {
            println!(
                "{:>9} {:>10.4} {:>14.0}",
                r.clusters, r.recall, r.comparisons
            );
        }
        println!("paper: 100% at 1 cluster, 99.4% at 20, 98.6% at 50, steadily <50% past 400.\n");
    }

    if run("threads") {
        let nodes = if args.full { 6_000 } else { 2_000 };
        let counts: &[usize] = &[1, 2, 4];
        println!("Thread scaling: parallel kernels on a superdense BA graph ({nodes} nodes)");
        println!(
            "{:>10} {:>9} {:>12} {:>9}",
            "kernel", "threads", "secs", "speedup"
        );
        for r in exp_thread_scaling(nodes, counts, SEED) {
            println!(
                "{:>10} {:>9} {:>12.3} {:>8.2}x",
                r.kernel, r.threads, r.secs, r.speedup
            );
        }
        println!("acceptance: fixpoint and sgns reach >= 2x at 4 threads (EXPERIMENTS.md).\n");
    }

    if run("ablations") {
        let persons = if args.full { 3_000 } else { 1_000 };
        println!("{}", exp_ablations(persons, SEED));
    }

    if run("incr") {
        run_incr(args.full);
        println!();
    }

    if args.exp == "magic" {
        run_magic(args.full);
        println!();
    }

    if args.exp == "serve" {
        run_serve(args.full);
        println!();
    }

    if args.exp == "compile" {
        run_compile(args.full);
        println!();
    }

    if args.exp == "store" {
        run_store(args.full);
        println!();
    }
}
