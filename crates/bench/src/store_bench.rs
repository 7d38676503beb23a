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
//! The JSON artifact is `BENCH_store.json` ([`SCHEMA`],
//! `vadalink-bench-store/2`).

use std::path::PathBuf;
use std::time::Instant;

use datalog::{Database, Engine, EngineOptions, FunctionRegistry, IncrementalEngine, Program};
use store::{replay_tail, DurableStore, FsyncPolicy, StoreConfig};
use vada_link::programs::CONTROL_PROGRAM;

use crate::artifact::{array, cells, object, row, Check::*, Json, Row, Schema, Section};
use crate::workload::{company_graph, fresh_db, set_image};

/// The `BENCH_store.json` format.
pub const SCHEMA: Schema = Schema {
    tag: "vadalink-bench-store/2",
    file: "BENCH_store.json",
    header: &[
        ("persons", Int(1)),
        ("seed", Int(1)),
        ("threads", Int(1)),
        ("updates", Int(1)),
    ],
    sections: &[
        Section::Rows("recovery", RecoveryRow::FIELDS),
        Section::Object("register", RegisterRow::FIELDS),
    ],
    rule: |_| Ok(()),
};

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

row! {
    /// One recovery-cadence row.
    #[derive(Debug, Clone)]
    pub struct RecoveryRow {
        /// `snapshot_every` setting (0 = boot snapshot + full WAL replay).
        pub cadence: u64 = Int(0),
        /// Committed update batches before the simulated crash.
        pub commits: usize = Int(1),
        /// Wall time of open + snapshot load + session rebuild + tail
        /// replay.
        pub recovery_secs: f64 = Pos,
        /// Snapshots written during the run (boot snapshot included).
        pub snapshots_written: usize = Int(1),
        /// WAL frames replayed on recovery.
        pub wal_tail_frames: usize = Int(0),
        /// Canonical identity against the pre-crash maintained database.
        pub outputs_match: bool = True,
    }
}

row! {
    /// The register-scale probe.
    #[derive(Debug, Clone)]
    pub struct RegisterRow {
        pub persons: usize = Int(1),
        /// Extensional facts in the loaded register.
        pub total_facts: usize = Int(1),
        /// Generate + load wall time.
        pub load_secs: f64 = Pos,
        /// Fixpoint wall time.
        pub eval_secs: f64 = Pos,
        /// Snapshot write + reopen + session rebuild wall time.
        pub recover_secs: f64 = Pos,
        /// Approximate heap bytes of the evaluated database.
        pub heap_bytes: usize = Int(1),
    }
}

/// Everything `repro --exp store` reports.
#[derive(Debug, Clone)]
pub struct StoreBenchReport {
    pub recovery_rows: Vec<RecoveryRow>,
    pub register: RegisterRow,
}

fn register_db(persons: usize, seed: u64) -> Database {
    fresh_db(&company_graph(persons, persons / 2, seed), None)
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
            set_image(session.db())
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
            outputs_match: set_image(session.db()) == pre_crash,
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

/// The `BENCH_store.json` document of a run.
pub fn doc(cfg: &StoreBenchConfig, report: &StoreBenchReport) -> Json {
    SCHEMA.doc(
        cells![cfg.persons, cfg.seed, cfg.threads, cfg.updates],
        vec![array(&report.recovery_rows), object(&report.register)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let text = SCHEMA.render(&doc(&cfg, &report));
        SCHEMA
            .validate(&text)
            .expect("real bench output must validate");
    }
}
