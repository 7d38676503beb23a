//! Serving-throughput benchmark: a closed-loop load harness against a
//! live `vadalink serve` instance.
//!
//! The harness boots a real TCP server ([`serve::Server`]) over a
//! generated ownership graph running the paper's control program, then
//! drives it with a configurable reader/writer mix:
//!
//! * **readers** run a closed loop (next request leaves when the
//!   previous response lands) or an open loop (requests paced at a fixed
//!   arrival rate regardless of response times). Goal keys follow a
//!   zipfian popularity distribution — a few hot companies absorb most
//!   lookups, as in the paper's analyst workload;
//! * **writers** stream signed-fact `own`-edge batches through the
//!   single-writer update path, committing a new epoch per batch.
//!
//! Per mix the harness reports sustained throughput (qps), latency
//! percentiles (p50/p99) and the epoch-swap stall (the commit critical
//! section every reader shares). `repro --exp serve --bench-json` writes
//! the result as `BENCH_serve.json` ([`SCHEMA`], `vadalink-bench-serve/1`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use datalog::Program;
use gen::company::{generate, CompanyGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{Client, GraphService, Server, ServiceConfig};
use vada_link::model::CompanyGraph;
use vada_link::programs::CONTROL_PROGRAM;

use crate::artifact::{
    array, cells, each_row, number, row, rows, Check::*, Json, Row, Schema, Section,
};
use crate::workload::fresh_db;

/// The `BENCH_serve.json` format.
pub const SCHEMA: Schema = Schema {
    tag: "vadalink-bench-serve/1",
    file: "BENCH_serve.json",
    header: &[
        ("persons", Int(1)),
        ("seed", Int(1)),
        ("threads", Int(1)),
        ("ops_per_reader", Int(1)),
        ("zipf_s", Range(0.0, 10.0)),
        ("workload", OneOf(&["closed", "open"])),
    ],
    sections: &[Section::Rows("mixes", ServeBench::FIELDS)],
    rule,
};

/// At least two mixes, ordered percentiles, and at least one writer mix,
/// every one of which committed an update.
fn rule(doc: &Json) -> Result<(), String> {
    let mixes = rows(doc, "mixes");
    if mixes.len() < 2 {
        return Err("'mixes' must hold at least two reader/writer mixes".into());
    }
    if !mixes.iter().any(|m| number(m, "writers") > 0.0) {
        return Err("at least one mix must include writers".into());
    }
    each_row(doc, "mixes", |m| {
        let (p50, p99) = (number(m, "p50_us"), number(m, "p99_us"));
        if p99 < p50 {
            return Err(format!(
                "latency percentiles must satisfy 0 < p50 <= p99 (p50={p50}, p99={p99})"
            ));
        }
        if number(m, "writers") > 0.0 && number(m, "updates") < 1.0 {
            return Err("a writer mix must commit at least one update".into());
        }
        Ok(())
    })
}

/// Reader arrival model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Next request leaves when the previous response lands.
    Closed,
    /// Requests paced at a fixed per-reader arrival rate (Hz). Latency
    /// then includes queueing delay when the server falls behind.
    Open { rate_hz: f64 },
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Closed => "closed",
            Workload::Open { .. } => "open",
        }
    }
}

/// One reader/writer mix to drive.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Concurrent reader connections.
    pub readers: usize,
    /// Concurrent writer connections (0 = read-only).
    pub writers: usize,
}

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Person nodes in the generated company graph (companies = half).
    pub persons: usize,
    /// Generator and workload seed.
    pub seed: u64,
    /// Engine worker threads.
    pub threads: usize,
    /// Lookups each reader issues per mix.
    pub ops_per_reader: usize,
    /// Zipf exponent of the goal-key popularity distribution.
    pub zipf_s: f64,
    /// Arrival model.
    pub workload: Workload,
    /// Reader/writer mixes to sweep.
    pub mixes: Vec<Mix>,
}

row! {
    /// Measurements for one mix.
    #[derive(Debug, Clone)]
    pub struct ServeBench {
        pub readers: usize = Int(1),
        pub writers: usize = Int(0),
        /// Total lookups answered.
        pub ops: usize = Int(1),
        /// Wall time of the mix, seconds.
        pub wall_secs: f64 = Pos,
        /// Sustained lookups per second.
        pub qps: f64 = Pos,
        /// Median lookup latency, microseconds.
        pub p50_us: f64 = Pos,
        /// 99th-percentile lookup latency, microseconds.
        pub p99_us: f64 = Pos,
        /// Update batches committed while the mix ran.
        pub updates: usize = Int(0),
        /// Epochs committed over the server's lifetime so far.
        pub epochs_committed: u64 = Int(0),
        /// Longest single epoch-swap critical section, nanoseconds.
        pub swap_stall_max_ns: u64 = Int(0),
    }
}

/// Zipfian sampler over ranks `0..n` via an explicit CDF (the `gen`
/// crate keeps its own zipf helper private, and the serving workload
/// wants an exponent knob anyway).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / (r as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Maps a uniform draw in `[0, 1)` to a rank.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Exactly representable decimal weights: a delete's re-parse must land
/// on the identical f64 the insert produced.
const WRITER_WEIGHTS: [&str; 4] = ["0.05", "0.1", "0.15", "0.25"];

fn writer_delta(
    rng: &mut StdRng,
    names: &[String],
    inserted: &mut Vec<(String, String, &'static str)>,
) -> String {
    let mut lines = Vec::new();
    for _ in 0..rng.random_range(1..4usize) {
        let a = names[rng.random_range(0..names.len())].clone();
        let b = names[rng.random_range(0..names.len())].clone();
        let w = WRITER_WEIGHTS[rng.random_range(0..WRITER_WEIGHTS.len())];
        lines.push(format!("+own({a},{b},{w})"));
        inserted.push((a, b, w));
    }
    while !inserted.is_empty() && rng.random_bool(0.4) {
        let i = rng.random_range(0..inserted.len());
        let (a, b, w) = inserted.swap_remove(i);
        lines.push(format!("-own({a},{b},{w})"));
    }
    lines.join("\n")
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Runs the sweep: one server per call, one row per mix. The server (and
/// its maintained session) persists across mixes, so later mixes run on
/// the database the earlier writers produced — epoch ids keep rising.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> Vec<ServeBench> {
    let out = generate(&CompanyGraphConfig {
        persons: cfg.persons,
        companies: cfg.persons / 2,
        seed: cfg.seed,
        ..Default::default()
    });
    // Zipf ranks index this list: generation order, persons first.
    let names: Arc<Vec<String>> = Arc::new(
        out.persons
            .iter()
            .chain(out.companies.iter())
            .map(|n| format!("n{}", n.index()))
            .collect(),
    );
    let db = fresh_db(&CompanyGraph::new(out.graph), None);
    let program = Program::parse(CONTROL_PROGRAM).expect("bundled program parses");
    let svc = Arc::new(
        GraphService::new(
            &program,
            db,
            ServiceConfig {
                name: "control".into(),
                threads: cfg.threads,
            },
        )
        .expect("service opens"),
    );
    let server = Server::spawn(svc.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let mut rows = Vec::new();
    for (mix_no, mix) in cfg.mixes.iter().enumerate() {
        let stop = Arc::new(AtomicBool::new(false));
        let pace_ns = match cfg.workload {
            Workload::Closed => None,
            Workload::Open { rate_hz } => Some((1e9 / rate_hz) as u64),
        };

        let writers: Vec<_> = (0..mix.writers)
            .map(|w| {
                let stop = stop.clone();
                let names = names.clone();
                let seed = cfg.seed ^ (0xA11CE << 8) ^ (mix_no as u64) << 4 ^ w as u64;
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("writer connects");
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut inserted = Vec::new();
                    let mut batches = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let delta = writer_delta(&mut rng, &names, &mut inserted);
                        if delta.is_empty() {
                            continue;
                        }
                        client.update(&delta).expect("writer batch applies");
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();

        let start = Instant::now();
        let readers: Vec<_> = (0..mix.readers)
            .map(|r| {
                let names = names.clone();
                let ops = cfg.ops_per_reader;
                let zipf_s = cfg.zipf_s;
                let seed = cfg.seed ^ 0xB0B ^ ((mix_no as u64) << 16) ^ r as u64;
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    let zipf = Zipf::new(names.len(), zipf_s);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut lat_ns = Vec::with_capacity(ops);
                    let began = Instant::now();
                    for i in 0..ops {
                        if let Some(p) = pace_ns {
                            // Open loop: wait for this request's arrival
                            // slot (busy-wait; slots are microseconds).
                            let due = p * i as u64;
                            while (began.elapsed().as_nanos() as u64) < due {
                                std::hint::spin_loop();
                            }
                        }
                        let key = &names[zipf.sample(rng.random_range(0.0..1.0))];
                        let goal = format!("control(\"{key}\", X)?");
                        let t = Instant::now();
                        let (_, _rows) = client.query(&goal).expect("lookup");
                        lat_ns.push(t.elapsed().as_nanos() as u64);
                    }
                    lat_ns
                })
            })
            .collect();

        let mut lat_ns: Vec<u64> = Vec::with_capacity(mix.readers * cfg.ops_per_reader);
        for r in readers {
            lat_ns.extend(r.join().expect("reader thread"));
        }
        let wall_secs = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let updates: usize = writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .sum();

        lat_ns.sort_unstable();
        let stats = svc.registry().snapshot_stats();
        let ops = lat_ns.len();
        rows.push(ServeBench {
            readers: mix.readers,
            writers: mix.writers,
            ops,
            wall_secs,
            qps: ops as f64 / wall_secs.max(1e-9),
            p50_us: percentile_us(&lat_ns, 0.50),
            p99_us: percentile_us(&lat_ns, 0.99),
            updates,
            epochs_committed: stats.committed,
            swap_stall_max_ns: stats.swap_stall_max_ns,
        });
    }
    server.join();
    rows
}

/// The `BENCH_serve.json` document of a run.
pub fn doc(cfg: &ServeBenchConfig, rows: &[ServeBench]) -> Json {
    let header = cells![
        cfg.persons,
        cfg.seed,
        cfg.threads,
        cfg.ops_per_reader,
        cfg.zipf_s,
        cfg.workload.name(),
    ];
    SCHEMA.doc(header, vec![array(rows)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServeBenchConfig {
        ServeBenchConfig {
            persons: 40,
            seed: 0xEDB7,
            threads: 1,
            ops_per_reader: 25,
            zipf_s: 1.1,
            workload: Workload::Closed,
            mixes: vec![
                Mix {
                    readers: 2,
                    writers: 0,
                },
                Mix {
                    readers: 2,
                    writers: 1,
                },
            ],
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks_and_covers_the_domain() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(rng.random_range(0.0..1.0))] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[60]);
        assert!(counts[0] > 2_000, "rank 0 must be hot: {}", counts[0]);
        // Edge draws stay in range.
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_9), 99);
    }

    #[test]
    fn serve_bench_runs_end_to_end_on_a_tiny_graph() {
        let cfg = tiny_cfg();
        let rows = run_serve_bench(&cfg);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ops, 50);
        assert!(rows[0].qps > 0.0);
        assert!(rows[0].p50_us > 0.0 && rows[0].p50_us <= rows[0].p99_us);
        assert_eq!(rows[0].updates, 0, "read-only mix commits nothing");
        assert!(rows[1].updates >= 1, "writer mix must commit");
        assert!(rows[1].epochs_committed > rows[0].epochs_committed);
        let text = SCHEMA.render(&doc(&cfg, &rows));
        SCHEMA
            .validate(&text)
            .expect("real bench output must validate");
    }

    #[test]
    fn open_loop_paces_requests() {
        let cfg = ServeBenchConfig {
            ops_per_reader: 10,
            workload: Workload::Open { rate_hz: 200.0 },
            mixes: vec![
                Mix {
                    readers: 1,
                    writers: 0,
                },
                Mix {
                    readers: 1,
                    writers: 1,
                },
            ],
            ..tiny_cfg()
        };
        let rows = run_serve_bench(&cfg);
        // 10 ops at 200 Hz = at least ~45 ms of pacing per mix.
        assert!(
            rows[0].wall_secs >= 0.04,
            "open loop finished too fast: {}s",
            rows[0].wall_secs
        );
        // Open-loop throughput cannot exceed the offered rate by much.
        assert!(
            rows[0].qps <= 260.0,
            "qps {} above offered rate",
            rows[0].qps
        );
    }

    #[test]
    fn mix_rules_are_enforced() {
        let cfg = tiny_cfg();
        let rows = vec![
            ServeBench {
                readers: 2,
                writers: 0,
                ops: 50,
                wall_secs: 0.5,
                qps: 100.0,
                p50_us: 80.0,
                p99_us: 900.0,
                updates: 0,
                epochs_committed: 1,
                swap_stall_max_ns: 0,
            },
            ServeBench {
                readers: 2,
                writers: 1,
                ops: 50,
                wall_secs: 0.5,
                qps: 100.0,
                p50_us: 90.0,
                p99_us: 1500.0,
                updates: 12,
                epochs_committed: 13,
                swap_stall_max_ns: 4000,
            },
        ];
        let good = SCHEMA.render(&doc(&cfg, &rows));
        SCHEMA.validate(&good).expect("fixture must validate");
        // Percentile ordering is enforced.
        let bad = good.replace("\"p99_us\": 900.000000", "\"p99_us\": 1.000000");
        assert!(SCHEMA.validate(&bad).is_err());
        // A single mix is not a sweep.
        let single = SCHEMA.render(&doc(&cfg, &rows[1..]));
        assert!(SCHEMA.validate(&single).is_err());
        // Writer mixes must actually commit.
        let bad = good.replace("\"updates\": 12", "\"updates\": 0");
        assert!(SCHEMA.validate(&bad).is_err());
        // A sweep without a writer mix says nothing about epoch swaps.
        let bad = good.replace("\"writers\": 1", "\"writers\": 0");
        let bad = bad.replace("\"updates\": 12", "\"updates\": 0");
        assert!(SCHEMA.validate(&bad).is_err());
    }
}
