//! Durable-store benchmark: `repro --exp store`.
//!
//! One sweep plus one scale probe, both over deterministically generated
//! company registers:
//!
//! * **Recovery vs snapshot cadence** — a durable incremental session
//!   absorbs a fixed update stream under different `snapshot_every`
//!   settings (0 = WAL-only), is dropped without any shutdown handshake,
//!   and the recovery path (newest snapshot + WAL-tail replay) is timed.
//!   Each row records the recovery wall time, snapshots written, the
//!   replayed tail length and whether the recovered state is canonically
//!   identical to the pre-crash maintained database.
//!
//! * **Register scale** — one large register (1M persons at `--full`)
//!   loaded, evaluated with a plain [`Engine::run`], snapshotted and
//!   recovered, with the approximate heap footprint recorded.
//!
//! The JSON artifact (`BENCH_store.json`, schema `vadalink-bench-store/2`)
//! follows the writer/validator discipline of [`crate::bench_json`]: the
//! document is validated in-process right after it is rendered.

use std::path::PathBuf;
use std::time::Instant;

use datalog::{Database, Engine, EngineOptions, FunctionRegistry, IncrementalEngine, Program};
use gen::company::{generate, CompanyGraphConfig};
use store::{replay_tail, DurableStore, FsyncPolicy, StoreConfig};
use vada_link::mapping::load_facts;
use vada_link::model::CompanyGraph;
use vada_link::programs::CONTROL_PROGRAM;

use crate::bench_json::{check_doc_header, esc, non_empty_array, num, want_num, JVal};

/// Schema tag of the durable-store benchmark document.
pub const STORE_SCHEMA: &str = "vadalink-bench-store/2";

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct StoreBenchConfig {
    /// Person nodes in the recovery graphs (companies = half).
    pub persons: usize,
    /// Generator seed.
    pub seed: u64,
    /// Engine worker threads for the register-scale fixpoint.
    pub threads: usize,
    /// Committed update batches in the recovery sweep.
    pub updates: usize,
    /// `snapshot_every` settings to sweep (0 = WAL-only recovery).
    pub cadences: Vec<u64>,
    /// Person nodes of the register-scale probe.
    pub register_persons: usize,
}

/// One recovery-cadence row.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// `snapshot_every` setting (0 = boot snapshot + full WAL replay).
    pub cadence: u64,
    /// Committed update batches before the simulated crash.
    pub commits: usize,
    /// Wall time of open + snapshot load + session rebuild + tail replay.
    pub recovery_secs: f64,
    /// Snapshots written during the run (boot snapshot included).
    pub snapshots_written: usize,
    /// WAL frames replayed on recovery.
    pub wal_tail_frames: usize,
    /// Canonical identity against the pre-crash maintained database.
    pub outputs_match: bool,
}

/// The register-scale probe.
#[derive(Debug, Clone)]
pub struct RegisterRow {
    pub persons: usize,
    /// Extensional facts in the loaded register.
    pub total_facts: usize,
    /// Generate + load wall time.
    pub load_secs: f64,
    /// Fixpoint wall time.
    pub eval_secs: f64,
    /// Snapshot write + reopen + session rebuild wall time.
    pub recover_secs: f64,
    /// Approximate heap bytes of the evaluated database.
    pub heap_bytes: usize,
}

/// Everything `repro --exp store` reports.
#[derive(Debug, Clone)]
pub struct StoreBenchReport {
    pub recovery_rows: Vec<RecoveryRow>,
    pub register: RegisterRow,
}

fn register_db(persons: usize, seed: u64) -> Database {
    let out = generate(&CompanyGraphConfig {
        persons,
        companies: persons / 2,
        seed,
        ..Default::default()
    });
    let g = CompanyGraph::new(out.graph);
    let mut db = Database::new();
    load_facts(&g, &mut db);
    db
}

/// Canonical (set-identity) image, the incremental layer's own lens.
fn canon(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for p in 0..db.pred_count() as u32 {
        let pred = db.pred_name(p).to_owned();
        for line in db.dump_canonical(&pred) {
            out.push(format!("{pred}: {line}"));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Recovery vs snapshot cadence
// ---------------------------------------------------------------------------

/// Deterministic update stream: new ownership edges (with occasional
/// brand-new company symbols, exercising append-only interning during
/// replay) and deletions of earlier insertions.
fn update_batches(n: usize, companies: usize) -> Vec<String> {
    let m = companies as u64;
    (0..n as u64)
        .map(|i| {
            let mut b = String::new();
            let a = (i * 17 + 3) % m;
            let c = (i * 29 + 11) % m;
            b.push_str(&format!("+own(n{a}, n{c}, 0.{})\n", 3 + i % 5));
            if i % 7 == 0 {
                b.push_str(&format!("+company(bench_co_{i})\n"));
                b.push_str(&format!("+own(n{a}, bench_co_{i}, 0.7)\n"));
            }
            if i >= 6 {
                let pa = ((i - 6) * 17 + 3) % m;
                let pc = ((i - 6) * 29 + 11) % m;
                b.push_str(&format!("-own(n{pa}, n{pc}, 0.{})\n", 3 + (i - 6) % 5));
            }
            b
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vl-storebench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp data dir");
    dir
}

fn run_recovery_sweep(cfg: &StoreBenchConfig, program: &Program) -> Vec<RecoveryRow> {
    let derived: std::collections::HashSet<String> = ["control".to_owned()].into_iter().collect();
    let companies = (cfg.persons / 2).max(1);

    let mut rows = Vec::new();
    for &cadence in &cfg.cadences {
        let dir = scratch(&format!("cad{cadence}"));
        let store_cfg = StoreConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: cadence,
        };

        // Pre-crash process: boot snapshot, then the committed stream.
        let mut snapshots_written = 0usize;
        let pre_crash = {
            let (mut store, _) = DurableStore::open(&dir, store_cfg).expect("store opens");
            let mut session = IncrementalEngine::new(program, register_db(cfg.persons, cfg.seed))
                .expect("session opens");
            store
                .write_snapshot(session.db(), &derived)
                .expect("boot snapshot");
            snapshots_written += 1;
            for batch in update_batches(cfg.updates, companies) {
                let update = session.parse_update(&batch).expect("batch parses");
                session.apply_update(&update).expect("update applies");
                store.append(&update, session.db()).expect("wal append");
                if store.should_snapshot() {
                    store
                        .write_snapshot(session.db(), &derived)
                        .expect("cadence snapshot");
                    snapshots_written += 1;
                }
            }
            canon(session.db())
            // store + session dropped with no shutdown handshake.
        };

        // Timed recovery: open (snapshot load + WAL scan), rebuild, replay.
        let start = Instant::now();
        let (_store, recovery) = DurableStore::open(&dir, store_cfg).expect("store reopens");
        let base = recovery.base.expect("boot snapshot exists");
        let mut session = IncrementalEngine::new(program, base).expect("session rebuilds");
        let replayed = replay_tail(&mut session, &recovery.tail).expect("tail replays");
        let recovery_secs = start.elapsed().as_secs_f64();

        rows.push(RecoveryRow {
            cadence,
            commits: cfg.updates,
            recovery_secs,
            snapshots_written,
            wal_tail_frames: replayed,
            outputs_match: canon(session.db()) == pre_crash,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

// ---------------------------------------------------------------------------
// Register scale
// ---------------------------------------------------------------------------

fn run_register_probe(cfg: &StoreBenchConfig, program: &Program) -> RegisterRow {
    let derived: std::collections::HashSet<String> = ["control".to_owned()].into_iter().collect();

    let start = Instant::now();
    let base = register_db(cfg.register_persons, cfg.seed ^ 0x5CA1E);
    let load_secs = start.elapsed().as_secs_f64();
    let total_facts = base.total_facts();

    let options = EngineOptions {
        threads: cfg.threads,
        ..EngineOptions::default()
    };
    let engine = Engine::with(program, FunctionRegistry::default(), options)
        .expect("bundled program compiles");
    let mut evaled = base.clone();
    let start = Instant::now();
    engine.run(&mut evaled).expect("fixpoint");
    let eval_secs = start.elapsed().as_secs_f64();
    let heap_bytes = evaled.approx_heap_bytes();

    // Durability round trip: snapshot the evaluated register, reopen the
    // directory and rebuild a session from the recovered base.
    let dir = scratch("register");
    let store_cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    };
    let start = Instant::now();
    {
        let (mut store, _) = DurableStore::open(&dir, store_cfg).expect("store opens");
        store.write_snapshot(&evaled, &derived).expect("snapshot");
    }
    let (_store, recovery) = DurableStore::open(&dir, store_cfg).expect("store reopens");
    let session = IncrementalEngine::new(program, recovery.base.expect("snapshot exists"))
        .expect("session rebuilds");
    let recover_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        session.db().relation("own").map(|r| r.len()),
        base.relation("own").map(|r| r.len()),
        "recovered register must keep every ownership edge"
    );
    let _ = std::fs::remove_dir_all(&dir);

    RegisterRow {
        persons: cfg.register_persons,
        total_facts,
        load_secs,
        eval_secs,
        recover_secs,
        heap_bytes,
    }
}

/// Runs the recovery sweep and the register probe.
pub fn run_store_bench(cfg: &StoreBenchConfig) -> StoreBenchReport {
    let program = Program::parse(CONTROL_PROGRAM).expect("bundled program parses");
    StoreBenchReport {
        recovery_rows: run_recovery_sweep(cfg, &program),
        register: run_register_probe(cfg, &program),
    }
}

// ---------------------------------------------------------------------------
// Writer + validator
// ---------------------------------------------------------------------------

/// Renders the `BENCH_store.json` document.
pub fn render_store_json(cfg: &StoreBenchConfig, report: &StoreBenchReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{}\",\n", esc(STORE_SCHEMA)));
    s.push_str(&format!("  \"persons\": {},\n", cfg.persons));
    s.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    s.push_str(&format!("  \"threads\": {},\n", cfg.threads));
    s.push_str(&format!("  \"updates\": {},\n", cfg.updates));
    s.push_str("  \"recovery\": [\n");
    for (i, r) in report.recovery_rows.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"cadence\": {},\n", r.cadence));
        s.push_str(&format!("      \"commits\": {},\n", r.commits));
        s.push_str(&format!(
            "      \"recovery_secs\": {},\n",
            num(r.recovery_secs)
        ));
        s.push_str(&format!(
            "      \"snapshots_written\": {},\n",
            r.snapshots_written
        ));
        s.push_str(&format!(
            "      \"wal_tail_frames\": {},\n",
            r.wal_tail_frames
        ));
        s.push_str(&format!("      \"outputs_match\": {}\n", r.outputs_match));
        s.push_str(if i + 1 == report.recovery_rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    let reg = &report.register;
    s.push_str("  \"register\": {\n");
    s.push_str(&format!("    \"persons\": {},\n", reg.persons));
    s.push_str(&format!("    \"total_facts\": {},\n", reg.total_facts));
    s.push_str(&format!("    \"load_secs\": {},\n", num(reg.load_secs)));
    s.push_str(&format!("    \"eval_secs\": {},\n", num(reg.eval_secs)));
    s.push_str(&format!(
        "    \"recover_secs\": {},\n",
        num(reg.recover_secs)
    ));
    s.push_str(&format!("    \"heap_bytes\": {}\n", reg.heap_bytes));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

fn want_count(v: &JVal, field: &str, min: f64) -> Result<(), String> {
    let n = want_num(v, field)?;
    if n < min || n.fract() != 0.0 {
        return Err(format!("field '{field}' must be an integer >= {min}"));
    }
    Ok(())
}

fn want_pos(v: &JVal, field: &str) -> Result<(), String> {
    let n = want_num(v, field)?;
    if n <= 0.0 || n.is_nan() {
        return Err(format!("field '{field}' must be > 0"));
    }
    Ok(())
}

fn want_match(v: &JVal) -> Result<(), String> {
    match v.get("outputs_match") {
        Some(JVal::Bool(true)) => Ok(()),
        Some(JVal::Bool(false)) => Err("outputs_match is false — recovered state diverged".into()),
        _ => Err("missing boolean field 'outputs_match'".into()),
    }
}

/// Validates a `BENCH_store.json` document: schema tag, field presence and
/// types, positive timings and matched outputs on every row.
pub fn validate_store_json(text: &str) -> Result<(), String> {
    let doc = check_doc_header(
        text,
        STORE_SCHEMA,
        &["persons", "seed", "threads", "updates"],
    )?;

    let recovery = non_empty_array(&doc, "recovery")?;
    for (i, r) in recovery.iter().enumerate() {
        let ctx = |msg: String| format!("recovery[{i}]: {msg}");
        want_count(r, "cadence", 0.0).map_err(&ctx)?;
        want_count(r, "commits", 1.0).map_err(&ctx)?;
        want_pos(r, "recovery_secs").map_err(&ctx)?;
        want_count(r, "snapshots_written", 1.0).map_err(&ctx)?;
        want_count(r, "wal_tail_frames", 0.0).map_err(&ctx)?;
        want_match(r).map_err(&ctx)?;
    }

    let reg = doc
        .get("register")
        .ok_or("missing object field 'register'")?;
    if !matches!(reg, JVal::Obj(_)) {
        return Err("field 'register' must be an object".into());
    }
    let ctx = |msg: String| format!("register: {msg}");
    want_count(reg, "persons", 1.0).map_err(ctx)?;
    let ctx = |msg: String| format!("register: {msg}");
    want_count(reg, "total_facts", 1.0).map_err(ctx)?;
    for field in ["load_secs", "eval_secs", "recover_secs"] {
        want_pos(reg, field).map_err(|msg| format!("register: {msg}"))?;
    }
    want_count(reg, "heap_bytes", 1.0).map_err(|msg| format!("register: {msg}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cfg() -> StoreBenchConfig {
        StoreBenchConfig {
            persons: 100,
            seed: 1,
            threads: 1,
            updates: 4,
            cadences: vec![0, 2],
            register_persons: 100,
        }
    }

    fn sample_report() -> StoreBenchReport {
        StoreBenchReport {
            recovery_rows: vec![RecoveryRow {
                cadence: 2,
                commits: 4,
                recovery_secs: 0.02,
                snapshots_written: 3,
                wal_tail_frames: 1,
                outputs_match: true,
            }],
            register: RegisterRow {
                persons: 100,
                total_facts: 500,
                load_secs: 0.01,
                eval_secs: 0.02,
                recover_secs: 0.03,
                heap_bytes: 65536,
            },
        }
    }

    #[test]
    fn writer_output_validates() {
        let text = render_store_json(&sample_cfg(), &sample_report());
        validate_store_json(&text).expect("writer output must satisfy the schema");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let good = render_store_json(&sample_cfg(), &sample_report());
        assert!(validate_store_json("not json").is_err());
        assert!(validate_store_json(&good.replace(STORE_SCHEMA, "other/9")).is_err());
        assert!(validate_store_json(&good.replace("\"cadence\"", "\"period\"")).is_err());
        assert!(validate_store_json(
            &good.replace("\"outputs_match\": true", "\"outputs_match\": false")
        )
        .is_err());
        assert!(validate_store_json(&good.replace("\"register\"", "\"registry\"")).is_err());
        let empty = StoreBenchReport {
            recovery_rows: vec![],
            ..sample_report()
        };
        assert!(validate_store_json(&render_store_json(&sample_cfg(), &empty)).is_err());
    }

    #[test]
    fn store_bench_runs_end_to_end_on_a_tiny_graph() {
        let cfg = StoreBenchConfig {
            persons: 200,
            seed: 0xEDB7,
            threads: 1,
            updates: 6,
            cadences: vec![0, 2],
            register_persons: 200,
        };
        let report = run_store_bench(&cfg);
        assert_eq!(report.recovery_rows.len(), 2);
        for r in &report.recovery_rows {
            assert!(r.outputs_match, "cadence {}: recovery diverged", r.cadence);
            assert!(r.snapshots_written >= 1);
            assert!(r.wal_tail_frames <= cfg.updates);
        }
        // Cadence snapshots shorten the replayed tail vs WAL-only.
        assert_eq!(report.recovery_rows[0].wal_tail_frames, cfg.updates);
        assert!(report.recovery_rows[1].wal_tail_frames < cfg.updates);
        assert!(report.register.total_facts > 0 && report.register.heap_bytes > 0);
        let text = render_store_json(&cfg, &report);
        validate_store_json(&text).expect("real bench output must validate");
    }
}
