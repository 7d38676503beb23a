//! The serving stage: a durable `GraphService` running the control and
//! close_link programs together behind an in-process `serve::Server` on
//! loopback, under two open-loop streams (zipfian lookups on one
//! connection, signed `own` deltas on another), then a crash and a
//! recovery from the data directory.
//!
//! `GraphService::apply_delta` and `open_durable` hide their layers, so
//! the traced run replays the same request sequence twice in process:
//! once through the entry points (`serve::server::dispatch`), once
//! re-composed from `Request::decode`, `EpochRegistry`, `Query::parse`,
//! `goal_matches`, `IncrementalEngine`, `DurableStore` and
//! `Response::encode` under spans. The encoded responses, the data
//! directories and the recovered states must match byte for byte.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use datalog::{
    goal_matches, Const, Database, Engine, EngineOptions, FunctionRegistry, IncrementalEngine,
    Program, Query,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{
    Body, Client, EpochRegistry, GraphService, Op, Request, Response, Server, ServiceConfig,
};
use store::{DurableStore, FsyncPolicy, StoreConfig};
use vada_link::mapping::load_facts;
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM};

use crate::calib;
use crate::reason::THRESHOLD;
use crate::register::{self, canonical_state};
use crate::stats::{highest_supported, percentile, Latencies, Schedule, Zipf};
use crate::trace::Tracer;
use crate::{Plan, StageReport};

/// Durability settings, stated in every report.
pub const STORE: StoreConfig = StoreConfig {
    fsync: FsyncPolicy::Always,
    snapshot_every: 64,
};

/// Zipf exponent of lookup-key popularity.
const ZIPF_S: f64 = 1.0;
/// Updates per run: at least ten samples lie beyond p95 from 200 on, and
/// 240 leaves a WAL tail of 48 frames after the last cadence snapshot, so a
/// recovery replays enough deltas that its time does not hang on a few.
const UPDATES: usize = 240;
/// Exactly representable weights, so a delete re-parses to the identical
/// f64 its insert produced.
const WEIGHTS: [&str; 4] = ["0.05", "0.1", "0.15", "0.25"];
/// Writer-inserted holdings live at once, at most.
const WRITER_LIVE: usize = 32;
/// Sampled lookups checked against the goal-directed reference.
const CHECKED_LOOKUPS: usize = 24;
/// The writer times the calibration kernel after every this many updates,
/// when the next update is due at least [`CALIBRATE_GAP`] later.
const CALIBRATE_EVERY: usize = 4;
const CALIBRATE_GAP: Duration = Duration::from_millis(20);
/// Recoveries timed per run, each on its own copy of the crashed directory.
const RECOVERIES: usize = 3;
/// Seed of the writer's deltas in every run. Like the register, the deltas
/// are one fixed draw: a recovery replays the last 48 of them, and with a
/// draw per `--seed` the recovery time spread 0.18 over five seeds.
const WRITER_SEED: u64 = 0;
/// Deltas per kernel-bracketed chunk of the back-to-back update pass.
const UPDATE_CHUNK: usize = 4;

/// Traffic of one serve stage.
pub struct Shape {
    pub persons: usize,
    pub window: Duration,
    pub read_rate: f64,
}

impl Shape {
    fn write_rate(&self) -> f64 {
        UPDATES as f64 / self.window.as_secs_f64()
    }

    fn reads(&self) -> usize {
        (self.read_rate * self.window.as_secs_f64()).round() as usize
    }
}

/// The seeded request streams: lookups in send order, deltas in send order.
pub struct Traffic {
    pub goals: Vec<String>,
    pub deltas: Vec<String>,
}

/// Lookups draw keys from every node by zipfian popularity. Each delta
/// inserts one to three holdings (any node owning a company, weights from
/// [`WEIGHTS`]) and retracts earlier writer inserts: some at random, and
/// the oldest whenever more than [`WRITER_LIVE`] are live, so the register
/// stays near its generated shape for the whole run.
pub fn traffic(
    names: &[String],
    companies: std::ops::Range<usize>,
    reads: usize,
    read_seed: u64,
    write_seed: u64,
) -> Traffic {
    let zipf = Zipf::new(names.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(read_seed ^ 0x5EAD);
    let goals = (0..reads)
        .map(|_| {
            let key = &names[zipf.sample(rng.random_range(0.0..1.0))];
            let pred = if rng.random_bool(0.5) {
                "control"
            } else {
                "close_link"
            };
            format!("{pred}(\"{key}\", X)?")
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(write_seed ^ 0x3717E);
    let mut live: Vec<(usize, usize, &str)> = Vec::new();
    let mut deltas = Vec::with_capacity(UPDATES);
    let own = |sign: char, (a, b, w): (usize, usize, &str)| {
        format!("{sign}own({},{},{w})", names[a], names[b])
    };
    while deltas.len() < UPDATES {
        let mut lines = Vec::new();
        for _ in 0..rng.random_range(1..4usize) {
            let fact = (
                rng.random_range(0..names.len()),
                rng.random_range(companies.clone()),
                WEIGHTS[rng.random_range(0..WEIGHTS.len())],
            );
            // Insert only facts the writer does not hold already, so every
            // later delete removes exactly one fact it inserted.
            if !live.contains(&fact) {
                lines.push(own('+', fact));
                live.push(fact);
            }
        }
        while live.len() > WRITER_LIVE {
            lines.push(own('-', live.remove(0)));
        }
        while !live.is_empty() && rng.random_bool(0.4) {
            let fact = live.remove(rng.random_range(0..live.len()));
            lines.push(own('-', fact));
        }
        if !lines.is_empty() {
            deltas.push(lines.join("\n"));
        }
    }
    Traffic { goals, deltas }
}

fn program() -> Program {
    Program::parse(&format!("{CONTROL_PROGRAM}\n{CLOSELINK_PROGRAM}"))
        .expect("bundled programs parse together")
}

fn service_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        name: "control+close_link".into(),
        threads,
    }
}

/// A fresh, empty directory under the benchmark's data root.
fn fresh_dir(plan: &Plan, name: &str) -> PathBuf {
    let dir = plan.data_dir.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale benchmark data directory");
    }
    std::fs::create_dir_all(&dir).expect("create benchmark data directory");
    dir
}

/// Copies the store files of `from` (not its LOCK) into a fresh `to`.
fn copy_store(plan: &Plan, from: &Path, to: &str) -> PathBuf {
    let dir = fresh_dir(plan, to);
    for (name, bytes) in store_files(from) {
        std::fs::write(dir.join(name), bytes).expect("copy store file");
    }
    dir
}

/// Every file of a data directory except its LOCK, by name.
fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read data directory") {
        let path = entry.expect("data directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_owned();
        if name != "LOCK" {
            out.insert(name, std::fs::read(&path).expect("read store file"));
        }
    }
    out
}

/// Drops a service once the server's connection threads have released it.
fn crash(svc: Arc<GraphService>) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut svc = svc;
    loop {
        match Arc::try_unwrap(svc) {
            Ok(service) => {
                drop(service);
                return Ok(());
            }
            Err(shared) if Instant::now() < deadline => {
                svc = shared;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return Err("serve: connection threads still hold the service".into()),
        }
    }
}

fn seed_db(reg: &register::Register) -> Database {
    let mut db = Database::new();
    load_facts(&reg.graph, &mut db);
    db.assert_fact("th", &[Const::float(THRESHOLD)])
        .expect("th/1 has arity 1");
    db
}

pub fn run(plan: &Plan, shape: &Shape, named: bool, t: &mut Tracer) -> StageReport {
    let mut rep = StageReport::new("serve", shape.persons);
    let reg = register::build(shape.persons, plan.register_seed, plan.seed_for(named));
    let db = seed_db(&reg);
    let prog = program();
    let traffic = traffic(
        &reg.names,
        reg.company_range(),
        shape.reads(),
        plan.seed_for(named),
        WRITER_SEED,
    );
    let cfg = service_config(plan.threads);

    // Set-up: the first durable boot of an empty directory plus the server
    // spawn, repeated on fresh directories; the last one stays up.
    let mut setups = Vec::new();
    let mut up: Option<(Arc<GraphService>, Server, PathBuf)> = None;
    for i in 0..plan.setup_reps {
        if let Some((svc, server, _)) = up.take() {
            server.join();
            if let Err(e) = crash(svc) {
                rep.fail(e);
            }
        }
        let dir = fresh_dir(plan, &format!("serve-boot-{i}"));
        let initial = db.clone();
        let ((svc, server), tm) = calib::timed(|| {
            let (svc, _) = GraphService::open_durable(&prog, initial, cfg.clone(), STORE, &dir)
                .expect("durable boot of an empty directory");
            let svc = Arc::new(svc);
            let server = Server::spawn(svc.clone(), "127.0.0.1:0").expect("bind loopback");
            (svc, server)
        });
        setups.push(tm);
        up = Some((svc, server, dir));
    }
    rep.setup(&setups);
    let (svc, server, dir) = up.expect("at least one boot");

    let load = drive(&traffic, shape, server.addr());
    let failed = load.lookups.wall.failed() + load.updates.wall.failed();
    rep.attempted += load.lookups.wall.attempted() + load.updates.wall.attempted();
    rep.failed += failed;
    if failed > 0 {
        rep.fail(format!(
            "serve: {} lookups and {} updates failed",
            load.lookups.wall.failed(),
            load.updates.wall.failed()
        ));
    }
    for (name, lat, p, unit) in [
        ("serve.lookup_p50_us", &load.lookups, 50.0, "us"),
        ("serve.lookup_p99_us", &load.lookups, 99.0, "us"),
        ("serve.update_p50_ms", &load.updates, 50.0, "ms"),
        ("serve.update_p95_ms", &load.updates, 95.0, "ms"),
    ] {
        rep.metric(name, lat.norm.percentile(p), unit);
        rep.raw.push((name, lat.wall.percentile(p)));
    }

    // Checks: sampled lookups against the goal-directed reference on the
    // same pinned epoch, then the state every recovery must reproduce.
    let pin = svc.pin();
    for goal in traffic
        .goals
        .iter()
        .step_by((traffic.goals.len() / CHECKED_LOOKUPS).max(1))
    {
        let direct = svc.lookup_on(&pin, goal).map_err(|e| e.to_string());
        let reference = svc
            .query_on(pin.db(), goal)
            .map(|a| a.rows)
            .map_err(|e| e.to_string());
        if direct != reference {
            rep.fail(format!(
                "serve: lookup {goal} differs from GraphService::query_on"
            ));
            break;
        }
    }
    let before = canonical_state(pin.db());
    drop(pin);

    // Crash: drop the service without a shutdown, then time recoveries.
    server.join();
    if let Err(e) = crash(svc) {
        rep.fail(e);
    }
    let mut recoveries = Vec::new();
    for i in 0..RECOVERIES {
        let copy = copy_store(plan, &dir, &format!("serve-recover-{i}"));
        let ((svc, info, first), tm) = calib::timed(|| {
            let (svc, info) =
                GraphService::open_durable(&prog, Database::new(), cfg.clone(), STORE, &copy)
                    .expect("recovery of the crashed directory");
            let first = svc.lookup(&traffic.goals[0]);
            (svc, info, first)
        });
        recoveries.push(tm);
        if first.is_err() {
            rep.fail("serve: first lookup after recovery failed");
        }
        if i == 0 {
            if canonical_state(svc.pin().db()) != before {
                rep.fail("serve: recovered state differs from the state before the crash");
            }
            rep.note(
                "recovery",
                format!("replayed={} seq={}", info.replayed, info.seq),
            );
        }
    }
    rep.timed_metric("recover_s", &recoveries);

    // Update cost: the writer's deltas again, back to back through the
    // dispatch a connection thread runs, on a fresh durable service, with
    // the calibration kernel between chunks. Open-loop latencies stay with
    // the per-layer figures: on a shared two-core host they carry the
    // reader's contention and host stalls that no kernel sample tracks.
    // The pass must end on the state the traffic left.
    let closed_dir = fresh_dir(plan, "serve-closed");
    let (svc, _) = GraphService::open_durable(&prog, db.clone(), cfg.clone(), STORE, &closed_dir)
        .expect("durable boot of an empty directory");
    let stop = AtomicBool::new(false);
    let mut refused = 0;
    let per_update = calib::timed_per_item(&traffic.deltas, UPDATE_CHUNK, |d| {
        let req = Request {
            id: None,
            op: Op::Update { delta: d.clone() },
        };
        if !matches!(
            serve::server::dispatch(&svc, &stop, req).body,
            Body::Applied { .. }
        ) {
            refused += 1;
        }
    });
    let (norm, wall) = crate::medians(&per_update);
    rep.metric("update_ms", norm * 1e3, "ms");
    rep.raw.push(("update_ms", wall * 1e3));
    rep.attempted += traffic.deltas.len();
    rep.failed += refused;
    if refused > 0 {
        rep.fail(format!(
            "serve: {refused} back-to-back updates were refused"
        ));
    }
    if canonical_state(svc.pin().db()) != before {
        rep.fail("serve: back-to-back updates end on another state than the traffic");
    }
    drop(svc);

    rep.note(
        "serve",
        format!(
            "persons={} fsync=always snapshot_every={} zipf_s={ZIPF_S} read_rate={}/s \
             write_rate={:.2}/s window={}s; lookups {} {} (highest supported p{}); \
             updates {} {} (highest supported p{}); reader lateness max={:.3}ms p99={:.3}ms; \
             writer lateness max={:.3}ms p99={:.3}ms; rows={}; \
             update_ms over {} back-to-back updates in chunks of {UPDATE_CHUNK}",
            shape.persons,
            STORE.snapshot_every,
            shape.read_rate,
            shape.write_rate(),
            shape.window.as_secs_f64(),
            load.lookups.norm.describe(50.0),
            load.lookups.norm.describe(99.0),
            highest_supported(load.lookups.norm.attempted()).unwrap_or(0.0),
            load.updates.norm.describe(50.0),
            load.updates.norm.describe(95.0),
            highest_supported(load.updates.norm.attempted()).unwrap_or(0.0),
            load.read_late.0,
            load.read_late.1,
            load.write_late.0,
            load.write_late.1,
            load.rows,
            per_update.len()
        ),
    );

    if t.enabled() {
        replay(plan, &prog, &db, &traffic, shape, &mut rep, t);
    }
    rep
}

/// One stream's latencies, as measured and host-normalised.
struct Stream {
    wall: Latencies,
    norm: Latencies,
}

/// What the two open-loop streams measured.
struct Load {
    /// Microseconds from due time to answer.
    lookups: Stream,
    /// Milliseconds from due time to commit acknowledgement.
    updates: Stream,
    /// Generator lateness `(max, p99)` in milliseconds.
    read_late: (f64, f64),
    write_late: (f64, f64),
    rows: usize,
}

/// One request of an open-loop stream: when it was due, its latency in the
/// stream's unit (`None` when it failed) and how late it was sent.
type Sent = (Instant, Option<f64>, f64);

/// Runs one open-loop stream on its own connection. With `calibrate`,
/// the stream times the calibration kernel in its own idle gaps (never
/// delaying a request) and returns those samples too.
fn stream<T>(
    addr: std::net::SocketAddr,
    ready: &Barrier,
    base: Schedule,
    unit: f64,
    items: &[T],
    calibrate: bool,
    mut send: impl FnMut(&mut Client, &T) -> Option<usize>,
) -> (Vec<Sent>, usize, Vec<(Instant, f64)>) {
    let mut client = Client::connect(addr).expect("benchmark client connects");
    ready.wait();
    let sched = Schedule {
        start: Instant::now() + Duration::from_millis(20),
        ..base
    };
    let (mut out, mut rows, mut samples) = (Vec::with_capacity(items.len()), 0, Vec::new());
    for (i, item) in items.iter().enumerate() {
        sched.wait_for(i);
        let sent = Instant::now();
        let res = send(&mut client, item);
        let done = Instant::now();
        let (lat, late) = sched.account(i, sent, done);
        rows += res.unwrap_or(0);
        out.push((
            sched.due(i),
            res.map(|_| lat.as_secs_f64() * unit),
            late.as_secs_f64() * 1e3,
        ));
        if calibrate && i % CALIBRATE_EVERY == 0 && sched.due(i + 1) > done + CALIBRATE_GAP {
            samples.push((done, calib::kernel_now()));
        }
    }
    (out, rows, samples)
}

fn drive(traffic: &Traffic, shape: &Shape, addr: std::net::SocketAddr) -> Load {
    let ready = Barrier::new(2);
    let reads = Schedule {
        start: Instant::now(),
        interval: Duration::from_secs_f64(1.0 / shape.read_rate),
    };
    let writes = Schedule {
        interval: Duration::from_secs_f64(1.0 / shape.write_rate()),
        ..reads
    };
    let mut samples = vec![(Instant::now(), calib::kernel_now())];
    let ((reads, rows, _), (writes, _, inline)) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            stream(addr, &ready, reads, 1e6, &traffic.goals, false, |c, g| {
                c.query(g).ok().map(|(_, rows)| rows.len())
            })
        });
        let writer = s.spawn(|| {
            stream(addr, &ready, writes, 1e3, &traffic.deltas, true, |c, d| {
                c.update(d).ok().map(|_| 0)
            })
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    samples.extend(inline);
    samples.push((Instant::now(), calib::kernel_now()));
    let split = |sent: &[Sent]| {
        let mut s = Stream {
            wall: Latencies::default(),
            norm: Latencies::default(),
        };
        for &(due, lat, _) in sent {
            match lat {
                Some(l) => {
                    s.wall.record(l);
                    s.norm
                        .record(calib::normalise(l, calib::kernel_at(&samples, due)));
                }
                None => {
                    s.wall.record_failure();
                    s.norm.record_failure();
                }
            }
        }
        s
    };
    let lateness = |sent: &[Sent]| {
        let mut v: Vec<f64> = sent.iter().map(|s| s.2).collect();
        v.sort_by(f64::total_cmp);
        (v.last().copied().unwrap_or(0.0), percentile(&v, 99.0))
    };
    Load {
        lookups: split(&reads),
        updates: split(&writes),
        read_late: lateness(&reads),
        write_late: lateness(&writes),
        rows,
    }
}

/// The request lines of the traffic merged in due-time order.
fn request_lines(traffic: &Traffic, shape: &Shape) -> Vec<String> {
    let read_gap = 1.0 / shape.read_rate;
    let write_gap = 1.0 / shape.write_rate();
    let mut due: Vec<(f64, usize, Op)> = Vec::new();
    for (i, g) in traffic.goals.iter().enumerate() {
        due.push((i as f64 * read_gap, 1, Op::Query { goal: g.clone() }));
    }
    for (i, d) in traffic.deltas.iter().enumerate() {
        due.push((i as f64 * write_gap, 0, Op::Update { delta: d.clone() }));
    }
    due.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    due.into_iter()
        .enumerate()
        .map(|(i, (_, _, op))| {
            Request {
                id: Some(i as i64),
                op,
            }
            .encode()
        })
        .collect()
}

/// Traced run: the request sequence through the entry points and through
/// the re-composed layers, compared byte for byte.
fn replay(
    plan: &Plan,
    prog: &Program,
    db: &Database,
    traffic: &Traffic,
    shape: &Shape,
    rep: &mut StageReport,
    t: &mut Tracer,
) {
    let lines = request_lines(traffic, shape);
    let cfg = service_config(plan.threads);

    // Entry points, untraced.
    let dir_a = fresh_dir(plan, "serve-entry");
    let initial = db.clone();
    let t0 = Instant::now();
    let (svc, _) = GraphService::open_durable(prog, initial, cfg.clone(), STORE, &dir_a)
        .expect("durable boot of an empty directory");
    let stop = AtomicBool::new(false);
    let entry: Vec<String> = lines
        .iter()
        .map(|l| {
            let req = Request::decode(l).expect("benchmark requests decode");
            serve::server::dispatch(&svc, &stop, req).encode()
        })
        .collect();
    drop(svc);
    let (recovered, _) = GraphService::open_durable(prog, Database::new(), cfg, STORE, &dir_a)
        .expect("recovery of the entry-point directory");
    let first_entry = recovered.lookup(&traffic.goals[0]);
    let untraced_s = t0.elapsed().as_secs_f64();
    let entry_state = canonical_state(recovered.pin().db());
    drop(recovered);

    // The same sequence, re-composed under spans.
    let dir_b = fresh_dir(plan, "serve-recomposed");
    let initial = db.clone();
    let t0 = Instant::now();
    let (composed, composed_state, first_composed) = t.span("serve", |t| {
        let mut node = Node::boot(prog, initial, plan.threads, &dir_b, t);
        let out: Vec<String> = lines.iter().map(|l| node.request(l, t)).collect();
        drop(node);
        let mut node = Node::boot(prog, Database::new(), plan.threads, &dir_b, t);
        let first = node.request(
            &Request {
                id: None,
                op: Op::Query {
                    goal: traffic.goals[0].clone(),
                },
            }
            .encode(),
            t,
        );
        (out, canonical_state(node.session.db()), first)
    });
    let traced_s = t0.elapsed().as_secs_f64();
    rep.trace_overhead(traced_s, untraced_s);

    if composed != entry {
        rep.fail("serve: re-composed responses differ from serve::server::dispatch");
    }
    if store_files(&dir_a) != store_files(&dir_b) {
        rep.fail("serve: re-composed data directory differs from GraphService's");
    }
    if composed_state != entry_state {
        rep.fail("serve: re-composed recovery differs from GraphService::open_durable");
    }
    let first_entry = first_entry.map(|(epoch, rows)| {
        Response {
            id: None,
            body: Body::Rows { epoch, rows },
        }
        .encode()
    });
    if first_entry.as_ref() != Ok(&first_composed) {
        rep.fail("serve: first lookup after re-composed recovery differs");
    }
}

/// A `GraphService` taken apart: the single-writer session, the store,
/// the epoch registry.
struct Node {
    session: IncrementalEngine,
    store: DurableStore,
    registry: EpochRegistry,
    derived: HashSet<String>,
}

impl Node {
    /// `GraphService::open_durable`, step by step.
    fn boot(prog: &Program, initial: Database, threads: usize, dir: &Path, t: &mut Tracer) -> Node {
        let (store, recovery) = t.span("store.open", |_| {
            DurableStore::open(dir, STORE).expect("open the data directory")
        });
        let had_snapshot = recovery.base.is_some();
        let base = recovery.base.unwrap_or(initial);
        let mut session = t.span("datalog.incr.boot", |_| {
            let opts = EngineOptions {
                threads,
                ..EngineOptions::default()
            };
            let engine = Engine::with(prog, FunctionRegistry::default(), opts)
                .expect("bundled programs compile");
            IncrementalEngine::with(engine, base).expect("initial fixpoint")
        });
        let registry = EpochRegistry::new(session.db().clone());
        let replayed = t.span("store.replay", |_| {
            store::replay_tail(&mut session, &recovery.tail).expect("replay the WAL tail")
        });
        t.count("store.replayed_frames", replayed as f64);
        if replayed > 0 {
            registry
                .begin_write()
                .commit(Arc::new(session.db().clone()));
        }
        let derived: HashSet<String> = prog
            .rules
            .iter()
            .flat_map(|r| r.head.iter().map(|a| a.pred.clone()))
            .collect();
        let mut node = Node {
            session,
            store,
            registry,
            derived,
        };
        if !had_snapshot || node.store.should_snapshot() {
            traced_snapshot(&mut node.store, &node.derived, node.session.db(), t);
        }
        node
    }

    /// One request line in, one encoded response line out.
    fn request(&mut self, line: &str, t: &mut Tracer) -> String {
        let req = t.span("serve.decode", |_| {
            Request::decode(line).expect("benchmark requests decode")
        });
        let body = match req.op {
            Op::Query { goal } => self.lookup(&goal, t),
            Op::Update { delta } => self.update(&delta, t),
            _ => unreachable!("the benchmark sends lookups and updates only"),
        };
        let resp = Response { id: req.id, body };
        t.span("serve.encode", |_| resp.encode())
    }

    fn lookup(&mut self, goal: &str, t: &mut Tracer) -> Body {
        let pin = t.span("serve.pin", |_| self.registry.pin());
        let q = t.span("datalog.goal_parse", |_| {
            Query::parse(goal).expect("benchmark goals parse")
        });
        assert!(
            pin.db().find_pred(&q.pred).is_some(),
            "benchmark goals name derived predicates"
        );
        let rows = t.span("datalog.goal_matches", |_| goal_matches(pin.db(), &q));
        t.count("serve.lookups", 1.0);
        t.count("serve.rows", rows.len() as f64);
        Body::Rows {
            epoch: pin.id(),
            rows,
        }
    }

    fn update(&mut self, delta: &str, t: &mut Tracer) -> Body {
        let writer = self.registry.begin_write();
        let session = &mut self.session;
        let update = t.span("datalog.incr.parse_update", |_| {
            session.parse_update(delta).expect("benchmark deltas parse")
        });
        let cs = t.span("datalog.incr.apply_update", |_| {
            session
                .apply_update(&update)
                .expect("benchmark deltas apply")
        });
        t.count(
            "datalog.incr.replayed_units",
            cs.stats.replayed_units as f64,
        );
        t.count("datalog.incr.skipped_units", cs.stats.skipped_units as f64);
        t.count(
            "datalog.incr.full_recomputes",
            if cs.stats.full_recompute { 1.0 } else { 0.0 },
        );
        let db = session.db();
        let render = |facts: &[(String, Vec<Const>)]| -> Vec<String> {
            facts
                .iter()
                .map(|(pred, tuple)| {
                    let cells: Vec<String> = tuple.iter().map(|c| db.canonical(*c)).collect();
                    format!("{pred}({})", cells.join(","))
                })
                .collect()
        };
        let (inserted, deleted) = t.span("serve.render", |_| {
            (render(&cs.inserted), render(&cs.deleted))
        });
        let wal = self.store.dir().join("wal.log");
        let before = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        let store = &mut self.store;
        t.span("store.wal_append", |_| {
            store.append(&update, session.db()).expect("WAL append")
        });
        let after = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        t.count("store.wal_bytes", after.saturating_sub(before) as f64);
        t.count("store.wal_appends", 1.0);
        let snapshot = t.span("datalog.db_clone", |_| Arc::new(session.db().clone()));
        let epoch = t.span("serve.commit", |_| writer.commit(snapshot.clone()));
        if self.store.should_snapshot() {
            traced_snapshot(&mut self.store, &self.derived, &snapshot, t);
        }
        drop(writer);
        Body::Applied {
            epoch,
            inserted,
            deleted,
        }
    }
}

/// A cadence or boot snapshot, with the bytes it wrote.
fn traced_snapshot(
    store: &mut DurableStore,
    derived: &HashSet<String>,
    db: &Database,
    t: &mut Tracer,
) {
    t.span("store.snapshot", |_| {
        store.write_snapshot(db, derived).expect("write snapshot")
    });
    let path = store.dir().join(format!("snap-{:020}.vsnap", store.seq()));
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    t.count("store.snapshot_bytes", bytes as f64);
    t.count("store.snapshots", 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(name: &str) -> Plan {
        let mut p = Plan::for_tests();
        p.data_dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn writer_deletes_only_its_own_live_inserts() {
        let names: Vec<String> = (0..5).map(|i| format!("n{i}")).collect();
        let tr = traffic(&names, 3..5, 50, 9, 4);
        assert_eq!(tr.deltas.len(), UPDATES);
        assert_eq!(tr.goals.len(), 50);
        let mut live: HashSet<String> = HashSet::new();
        for d in &tr.deltas {
            for line in d.lines() {
                let (sign, fact) = line.split_at(1);
                if sign == "+" {
                    assert!(live.insert(fact.to_owned()), "re-insert of {fact}");
                } else {
                    assert!(live.remove(fact), "delete of {fact} it never inserted");
                }
            }
        }
        assert_eq!(tr.goals, traffic(&names, 3..5, 50, 9, 4).goals, "seeded");
    }

    #[test]
    fn recomposition_is_byte_identical_to_the_entry_points() {
        let p = plan("recompose");
        let shape = Shape {
            persons: 120,
            window: Duration::from_secs(7),
            read_rate: 10.0,
        };
        let reg = register::build(shape.persons, p.register_seed, 5);
        let db = seed_db(&reg);
        let tr = traffic(&reg.names, reg.company_range(), shape.reads(), 5, 5);
        let mut rep = StageReport::new("serve", shape.persons);
        let mut t = Tracer::new(true);
        replay(&p, &program(), &db, &tr, &shape, &mut rep, &mut t);
        let _ = std::fs::remove_dir_all(&p.data_dir);
        assert!(rep.errors.is_empty(), "{:?}", rep.errors);
        assert_eq!(t.counter("store.wal_appends"), UPDATES as f64);
        assert!(
            t.counter("store.snapshots") >= 4.0,
            "boot + 3 cadence + recovery"
        );
        assert!(t.counter("store.replayed_frames") > 0.0);
        let total: f64 = t.self_times().values().sum();
        assert!((total - t.total_s("serve")).abs() < 1e-9);
    }
}
