//! One benchmark for vada-link: `augment`, `reason` and `serve` workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload augment|reason|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the paper's three stages (augmentation, batch
//! reasoning, serving) so that every run reports every end-to-end metric;
//! the stage a workload is named after runs at full scale for `--seconds`,
//! the other two at a small fixed scale. With `--trace 0` the last line of
//! standard output holds the end-to-end metrics; with `--trace 1` it holds
//! the per-layer self times and counts of the traced re-compositions. The
//! line before it records the context: host cores, threads, durability
//! policy, register sizes, sample counts and generator lateness. See
//! `perfbench/README.md` for the workloads and the layer-to-metric map.

mod augment;
mod calib;
mod reason;
mod register;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use trace::Tracer;

/// Register sizes (persons; companies are half as many) at full and small
/// scale, per stage.
const AUGMENT_PERSONS: (usize, usize) = (10_000, 1_000);
const REASON_PERSONS: (usize, usize) = (15_000, 1_000);
/// The serve stage uses one register size at both scales; only its traffic
/// window and input seed differ.
const SERVE_PERSONS: usize = 1_000;
/// Traffic window of a small-scale serve stage.
const SMALL_SERVE_WINDOW: Duration = Duration::from_secs(10);
/// Lookups per second on the reader connection.
const READ_RATE: f64 = 400.0;
/// Measuring budget of a small-scale augment or reason stage.
const SMALL_BUDGET: Duration = Duration::from_secs(2);
/// Input seed of the small-scale stages.
const SMALL_STAGE_SEED: u64 = 0;
/// Timed repetitions of every stage, at least.
pub const MIN_REPS: usize = 3;
/// Set-ups of every stage per run; they also warm the process before the
/// stage's timed loop. `setup_s` is the named stage's median.
const SETUP_REPS: usize = 5;
/// Worker threads of every engine and of the embedding. One: on a 2-core
/// host two workers made the close_link fixpoint no faster and its timing
/// noisier, and the serve stage's reader and writer connections already
/// take both cores.
const MAX_THREADS: usize = 1;

/// Where the serve stage keeps its data directories and the traced run
/// writes its spans, relative to the working directory.
const DATA_DIR: &str = ".perfbench_data";
const TRACE_DIR: &str = ".perfbench_trace";

/// End-to-end metrics, with units, in report order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("augment_s", "s"),
    ("augment_recall", "ratio"),
    ("augment_precision", "ratio"),
    ("reason_s", "s"),
    ("update_ms", "ms"),
    ("recover_s", "s"),
];

/// How a per-layer metric is read off the tracer.
enum Src {
    /// Self time of the spans of this name, seconds.
    SelfTime(&'static str),
    Counter(&'static str),
    /// One counter over another.
    Ratio(&'static str, &'static str),
    /// A counter over the self time of a span.
    PerSecond(&'static str, &'static str),
    /// Traced minus untraced time of a stage.
    Overhead(&'static str),
    /// A figure the stage measured with tracing off.
    Measured(&'static str),
}

use Src::*;

/// Per-layer metrics of the traced run, with units.
const PER_LAYER: [(&str, &str, Src); 55] = [
    // augment
    ("pgraph.csr_s", "s", SelfTime("pgraph.csr")),
    ("embed.walks_s", "s", SelfTime("embed.walks")),
    ("embed.walk_tokens", "count", Counter("embed.walk_tokens")),
    ("embed.sgns_s", "s", SelfTime("embed.sgns")),
    ("embed.kmeans_s", "s", SelfTime("embed.kmeans")),
    ("linkage.block_s", "s", SelfTime("linkage.block")),
    ("linkage.blocks", "count", Counter("linkage.blocks")),
    ("linkage.max_block", "count", Counter("linkage.max_block")),
    ("core.decide_s", "s", SelfTime("core.decide")),
    ("core.comparisons", "count", Counter("core.comparisons")),
    ("pgraph.add_link_s", "s", SelfTime("pgraph.add_link")),
    ("augment.rounds", "count", Counter("augment.rounds")),
    (
        "core.links_per_comparison",
        "ratio",
        Ratio("core.links_added", "core.comparisons"),
    ),
    ("augment.unattributed_s", "s", SelfTime("augment")),
    ("augment.trace_overhead_s", "s", Overhead("augment")),
    // reason
    ("core.load_facts_s", "s", SelfTime("core.load_facts")),
    ("datalog.parse_s", "s", SelfTime("datalog.parse")),
    ("datalog.engine_new_s", "s", SelfTime("datalog.engine_new")),
    (
        "datalog.run.control_s",
        "s",
        SelfTime("datalog.run.control"),
    ),
    (
        "datalog.run.close_link_s",
        "s",
        SelfTime("datalog.run.close_link"),
    ),
    (
        "datalog.rounds.close_link",
        "count",
        Counter("datalog.rounds.close_link"),
    ),
    (
        "datalog.derived.close_link",
        "count",
        Counter("datalog.derived.close_link"),
    ),
    (
        "datalog.derived_per_s",
        "1/s",
        PerSecond("datalog.derived.close_link", "datalog.run.close_link"),
    ),
    (
        "datalog.facts_total",
        "count",
        Counter("datalog.facts_total"),
    ),
    ("reason.unattributed_s", "s", SelfTime("reason")),
    ("reason.trace_overhead_s", "s", Overhead("reason")),
    // serve: open-loop latencies, listed here with no bound. Across runs on
    // a shared 2-core host the median lookup flips between two levels
    // (about 115 and 190 us) with thread placement, and the update
    // percentiles follow host stalls and the reader's contention.
    ("serve.lookup_p50_us", "us", Measured("serve.lookup_p50_us")),
    ("serve.lookup_p99_us", "us", Measured("serve.lookup_p99_us")),
    ("serve.update_p50_ms", "ms", Measured("serve.update_p50_ms")),
    ("serve.update_p95_ms", "ms", Measured("serve.update_p95_ms")),
    ("serve.decode_s", "s", SelfTime("serve.decode")),
    ("serve.encode_s", "s", SelfTime("serve.encode")),
    ("datalog.goal_parse_s", "s", SelfTime("datalog.goal_parse")),
    (
        "datalog.goal_matches_s",
        "s",
        SelfTime("datalog.goal_matches"),
    ),
    (
        "serve.rows_per_lookup",
        "rows",
        Ratio("serve.rows", "serve.lookups"),
    ),
    ("serve.pin_s", "s", SelfTime("serve.pin")),
    // serve: commits
    ("serve.commit_s", "s", SelfTime("serve.commit")),
    ("serve.render_s", "s", SelfTime("serve.render")),
    (
        "datalog.incr.parse_update_s",
        "s",
        SelfTime("datalog.incr.parse_update"),
    ),
    (
        "datalog.incr.apply_update_s",
        "s",
        SelfTime("datalog.incr.apply_update"),
    ),
    (
        "datalog.incr.replayed_units",
        "count",
        Counter("datalog.incr.replayed_units"),
    ),
    (
        "datalog.incr.skipped_units",
        "count",
        Counter("datalog.incr.skipped_units"),
    ),
    (
        "datalog.incr.full_recomputes",
        "count",
        Counter("datalog.incr.full_recomputes"),
    ),
    ("datalog.db_clone_s", "s", SelfTime("datalog.db_clone")),
    ("store.wal_append_s", "s", SelfTime("store.wal_append")),
    (
        "store.wal_bytes_per_update",
        "bytes",
        Ratio("store.wal_bytes", "store.wal_appends"),
    ),
    ("store.snapshot_s", "s", SelfTime("store.snapshot")),
    (
        "store.snapshot_bytes",
        "bytes",
        Ratio("store.snapshot_bytes", "store.snapshots"),
    ),
    // serve: recovery
    ("store.open_s", "s", SelfTime("store.open")),
    ("store.replay_s", "s", SelfTime("store.replay")),
    (
        "store.replayed_frames",
        "count",
        Counter("store.replayed_frames"),
    ),
    ("datalog.incr.boot_s", "s", SelfTime("datalog.incr.boot")),
    ("serve.unattributed_s", "s", SelfTime("serve")),
    ("serve.trace_overhead_s", "s", Overhead("serve")),
    ("trace.spans", "count", Counter("trace.spans")),
];

/// Settings every stage of a run shares.
pub struct Plan {
    pub seed: u64,
    pub register_seed: u64,
    pub seconds: Duration,
    pub threads: usize,
    pub setup_reps: usize,
    pub data_dir: PathBuf,
}

impl Plan {
    /// How long the timed loop of a stage measures.
    pub fn budget(&self, named: bool) -> Duration {
        if named {
            self.seconds
        } else {
            SMALL_BUDGET
        }
    }

    /// The seed of a stage's inputs: `--seed` for the named stage, a
    /// fixed draw for the small-scale ones, whose figures then vary with
    /// the host only.
    pub fn seed_for(&self, named: bool) -> u64 {
        if named {
            self.seed
        } else {
            SMALL_STAGE_SEED
        }
    }

    #[cfg(test)]
    pub fn for_tests() -> Plan {
        Plan {
            seed: 1,
            register_seed: register::REGISTER_SEED,
            seconds: Duration::from_secs(1),
            threads: 1,
            setup_reps: 1,
            data_dir: std::env::temp_dir(),
        }
    }
}

/// What one stage measured and checked.
pub struct StageReport {
    pub stage: &'static str,
    pub persons: usize,
    pub setup_s: f64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub notes: Vec<(String, String)>,
    /// `(traced, untraced)` wall seconds of the stage's re-composed work.
    pub overhead: Option<(f64, f64)>,
    /// Wall-time values of the normalised metrics, for the context line.
    pub raw: Vec<(&'static str, f64)>,
}

/// Medians of the normalised and of the wall times.
pub fn medians(timings: &[calib::Timing]) -> (f64, f64) {
    let norm: Vec<f64> = timings.iter().map(|t| t.norm_s).collect();
    let wall: Vec<f64> = timings.iter().map(|t| t.wall_s).collect();
    (stats::median(&norm), stats::median(&wall))
}

impl StageReport {
    pub fn new(stage: &'static str, persons: usize) -> Self {
        StageReport {
            stage,
            persons,
            setup_s: 0.0,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
            overhead: None,
            raw: Vec::new(),
        }
    }

    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: &str, text: String) {
        self.notes.push((key.to_owned(), text));
    }

    /// Records the set-up timings; `setup_s` is their normalised median.
    /// Returns the median wall time.
    pub fn setup(&mut self, timings: &[calib::Timing]) -> f64 {
        let (norm, wall) = medians(timings);
        self.setup_s = norm;
        self.raw.push(("setup_s", wall));
        wall
    }

    /// Reports the normalised median of `timings` as metric `name` (unit
    /// seconds) and keeps the wall median for the context line. Returns the
    /// wall median.
    pub fn timed_metric(&mut self, name: &'static str, timings: &[calib::Timing]) -> f64 {
        let (norm, wall) = medians(timings);
        self.metric(name, norm, "s");
        self.raw.push((name, wall));
        wall
    }

    pub fn trace_overhead(&mut self, traced_s: f64, untraced_s: f64) {
        self.overhead = Some((traced_s, untraced_s));
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    Augment,
    Reason,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    register_seed: u64,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut register_seed = register::REGISTER_SEED;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "augment" => Workload::Augment,
                    "reason" => Workload::Reason,
                    "serve" => Workload::Serve,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for --seconds: {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--register-seed" => register_seed = value.parse::<u64>().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        register_seed,
    })
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn json_str(s: &str) -> String {
    ::serve::json::Json::Str(s.to_owned()).render()
}

/// Per-layer values off the tracer and the stage reports.
fn per_layer(t: &Tracer, stages: &[StageReport]) -> Vec<(&'static str, f64, &'static str)> {
    let st = t.self_times();
    let self_s = |n: &str| st.get(n).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|(name, unit, src)| {
            let v = match src {
                SelfTime(n) => self_s(n),
                Counter(n) => t.counter(n),
                Ratio(a, b) => ratio(t.counter(a), t.counter(b)),
                PerSecond(a, s) => ratio(t.counter(a), self_s(s)),
                Overhead(stage) => stages
                    .iter()
                    .find(|r| r.stage == *stage)
                    .and_then(|r| r.overhead)
                    .map_or(0.0, |(traced, untraced)| traced - untraced),
                Measured(m) => stages
                    .iter()
                    .flat_map(|r| r.metrics.iter())
                    .find(|x| x.0 == *m)
                    .map_or(0.0, |x| x.1),
            };
            (*name, v, *unit)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload augment|reason|serve --seed N --seconds S --trace 0|1 \
                 [--register-seed N]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    par::set_threads(threads);
    let plan = Plan {
        seed: args.seed,
        register_seed: args.register_seed,
        seconds: Duration::from_secs_f64(args.seconds),
        threads,
        setup_reps: SETUP_REPS,
        data_dir: PathBuf::from(DATA_DIR).join(format!("run-{}", std::process::id())),
    };
    let mut t = Tracer::new(args.trace);
    let w = args.workload;
    let size = |sizes: (usize, usize), stage: Workload| {
        if w == stage {
            sizes.0
        } else {
            sizes.1
        }
    };
    let serve_shape = serve::Shape {
        persons: SERVE_PERSONS,
        window: if w == Workload::Serve {
            plan.seconds
        } else {
            SMALL_SERVE_WINDOW
        },
        read_rate: READ_RATE,
    };
    // The latency-sensitive serve stage runs first, in a fresh process;
    // reports keep the pipeline's order.
    let served = serve::run(&plan, &serve_shape, w == Workload::Serve, &mut t);
    let stages = [
        augment::run(
            &plan,
            size(AUGMENT_PERSONS, Workload::Augment),
            w == Workload::Augment,
            &mut t,
        ),
        reason::run(
            &plan,
            size(REASON_PERSONS, Workload::Reason),
            w == Workload::Reason,
            &mut t,
        ),
        served,
    ];
    let _ = std::fs::remove_dir_all(&plan.data_dir);
    let _ = std::fs::remove_dir(DATA_DIR);

    let named = match w {
        Workload::Augment => &stages[0],
        Workload::Reason => &stages[1],
        Workload::Serve => &stages[2],
    };
    let mut errors: Vec<String> = stages.iter().flat_map(|s| s.errors.clone()).collect();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        t.count("trace.spans", t.spans().len() as f64);
        per_layer(&t, &stages)
    } else {
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            errors.push(format!("peak_rss_mb: {e}"));
            f64::NAN
        });
        let mut m = vec![("setup_s", named.setup_s, "s"), ("peak_rss_mb", rss, "MB")];
        m.extend(
            stages
                .iter()
                .flat_map(|s| s.metrics.iter().copied())
                .filter(|x| END_TO_END.iter().any(|e| e.0 == x.0)),
        );
        m
    };
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let reported: Vec<&str> = metrics.iter().map(|m| m.0).collect();
    assert_eq!(reported.len(), expected.len(), "metric list out of sync");
    for name in &expected {
        assert!(reported.contains(name), "metric {name} not measured");
    }

    let mut trace_file = String::new();
    if args.trace {
        let dir = PathBuf::from(TRACE_DIR);
        let path = dir.join(format!("{:?}-{}.jsonl", w, args.seed).to_lowercase());
        match std::fs::create_dir_all(&dir).and_then(|_| t.write_jsonl(&path)) {
            Ok(()) => trace_file = path.display().to_string(),
            Err(e) => errors.push(format!("writing spans: {e}")),
        }
    }

    let mut body = Vec::new();
    for (name, v, unit) in &metrics {
        let v = if v.is_finite() {
            *v
        } else {
            errors.push(format!("{name} is not finite"));
            -1.0
        };
        body.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let stage_ctx: Vec<String> = stages
        .iter()
        .map(|s| {
            let mut notes: Vec<String> = s
                .notes
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect();
            let raw: Vec<String> = s
                .raw
                .iter()
                .map(|(k, v)| format!("{}: {v}", json_str(k)))
                .collect();
            notes.push(format!("\"wall\": {{{}}}", raw.join(", ")));
            let measured: Vec<String> = s
                .metrics
                .iter()
                .map(|(k, v, _)| format!("{}: {v}", json_str(k)))
                .collect();
            notes.push(format!("\"measured\": {{{}}}", measured.join(", ")));
            format!(
                "{{\"stage\": {}, \"persons\": {}, \"companies\": {}, \"full_scale\": {}, {}}}",
                json_str(s.stage),
                s.persons,
                s.persons / 2,
                std::ptr::eq(s, named),
                notes.join(", ")
            )
        })
        .collect();
    let err_ctx: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"register_seed\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"threads\": {threads}, \"connections\": 2, \"fsync\": \"always\", \
         \"snapshot_every\": {}, \"trace_file\": {}, \"stages\": [{}], \"errors\": [{}]}}}}",
        json_str(&format!("{w:?}").to_lowercase()),
        args.seed,
        args.register_seed,
        args.seconds,
        serve::STORE.snapshot_every,
        json_str(&trace_file),
        stage_ctx.join(", "),
        err_ctx.join(", ")
    );
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let attempted: usize = stages.iter().map(|s| s.attempted).sum();
    let failed: usize = stages.iter().map(|s| s.failed).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = ::serve::json::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(::serve::json::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            m.str_of("name").unwrap().to_owned(),
                            m.str_of("unit").unwrap().to_owned(),
                        )
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
            list.into_iter()
                .map(|(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            names("per_layer"),
            own(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect())
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload serve --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.register_seed, register::REGISTER_SEED);
        assert!(parse("--workload hit --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload reason --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload reason --seed 1 --seconds 1").is_err());
        assert!(parse("--workload reason --seed x --seconds 1 --trace 0").is_err());
    }
}
