//! The reasoning stage: batch fixpoints of the paper's control and
//! close-link programs over the register's extensional facts.
//!
//! Timed: `Engine::run` of `CONTROL_PROGRAM` and of `CLOSELINK_PROGRAM`
//! (with `th(0.2)`), each on a fresh copy of the loaded facts. Checked:
//! `control` against the native `core::control::all_control`, and
//! `close_link` against the interpreted step machine (`compile` and
//! `batch` off), an executor independent of the compiled and batch tiers
//! under test.

use std::time::Instant;

use datalog::{Const, Database, Engine, EngineOptions, Program, RunStats};
use vada_link::control::all_control;
use vada_link::mapping::{load_facts, read_pairs};
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM};

use crate::calib;
use crate::register::{self, Register};
use crate::trace::Tracer;
use crate::{Plan, StageReport, MIN_REPS};

/// The close-link threshold of the paper's running example.
pub const THRESHOLD: f64 = 0.2;

struct Loaded {
    control_db: Database,
    close_link_db: Database,
    control: Engine,
    close_link: Engine,
}

/// load_facts + parse + `Engine::new`: what the stage needs before its
/// first fixpoint.
fn load(reg: &Register, t: &mut Tracer) -> Loaded {
    let mut control_db = Database::new();
    t.span("core.load_facts", |_| {
        load_facts(&reg.graph, &mut control_db)
    });
    let mut close_link_db = control_db.clone();
    close_link_db
        .assert_fact("th", &[Const::float(THRESHOLD)])
        .expect("th/1 has arity 1");
    let (pc, pl) = t.span("datalog.parse", |_| {
        (
            Program::parse(CONTROL_PROGRAM).expect("bundled program parses"),
            Program::parse(CLOSELINK_PROGRAM).expect("bundled program parses"),
        )
    });
    let (control, close_link) = t.span("datalog.engine_new", |_| {
        (
            Engine::new(&pc).expect("bundled program compiles"),
            Engine::new(&pl).expect("bundled program compiles"),
        )
    });
    Loaded {
        control_db,
        close_link_db,
        control,
        close_link,
    }
}

/// Both fixpoints on fresh copies; returns the two result databases, their
/// statistics and the seconds spent inside `Engine::run`.
fn fixpoints(l: &Loaded, t: &mut Tracer) -> (Database, Database, RunStats, RunStats, f64) {
    let mut dc = l.control_db.clone();
    let mut dl = l.close_link_db.clone();
    let t0 = Instant::now();
    let sc = t.span("datalog.run.control", |_| l.control.run(&mut dc));
    let sl = t.span("datalog.run.close_link", |_| l.close_link.run(&mut dl));
    let secs = t0.elapsed().as_secs_f64();
    (
        dc,
        dl,
        sc.expect("control fixpoint"),
        sl.expect("close_link fixpoint"),
        secs,
    )
}

pub fn run(plan: &Plan, persons: usize, named: bool, t: &mut Tracer) -> StageReport {
    let mut rep = StageReport::new("reason", persons);
    let reg = register::build(persons, plan.register_seed, plan.seed_for(named));
    let untimed = &mut Tracer::new(false);
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..plan.setup_reps {
        let (l, tm) = calib::timed(|| load(&reg, untimed));
        loaded = Some(l);
        setups.push(tm);
    }
    let l = loaded.expect("at least one setup");
    let setup_wall_s = rep.setup(&setups);

    let mut times = Vec::new();
    let mut last = None;
    let began = Instant::now();
    while times.len() < MIN_REPS || began.elapsed() < plan.budget(named) {
        drop(last.take()); // hold one repetition's databases at a time
        let k0 = calib::kernel_now();
        let (dc, dl, sc, sl, secs) = fixpoints(&l, untimed);
        let k = (k0 + calib::kernel_now()) / 2.0;
        times.push(calib::Timing {
            wall_s: secs,
            norm_s: calib::normalise(secs, k),
        });
        rep.attempted += 2;
        last = Some((dc, dl, sc, sl));
    }
    let (dc, dl, sc, sl) = last.expect("at least one fixpoint");
    let reason_s = rep.timed_metric("reason_s", &times);

    // Checks, outside the timed region.
    let mut native = all_control(&reg.graph);
    native.sort_unstable();
    if read_pairs(&dc, "control") != native {
        rep.fail("reason: control differs from core::control::all_control");
    }
    let close_links = dl.dump_canonical("close_link");
    if close_links != interpreted_close_links(&l.close_link_db) {
        rep.fail("reason: close_link differs from the interpreted executor");
    }
    if close_links.is_empty() {
        rep.fail("reason: no close links derived");
    }

    // The traced pass: the same calls again, under spans.
    if t.enabled() {
        let t0 = Instant::now();
        let (tc, tl) = t.span("reason", |t| {
            let l = load(&reg, t);
            let (tc, tl, _, tsl, _) = fixpoints(&l, t);
            t.count("datalog.rounds.close_link", tsl.rounds as f64);
            t.count("datalog.derived.close_link", tsl.derived as f64);
            (tc, tl)
        });
        let traced_s = t0.elapsed().as_secs_f64();
        t.count(
            "datalog.facts_total",
            (tc.total_facts() + tl.total_facts()) as f64,
        );
        if tc.dump_canonical("control") != dc.dump_canonical("control")
            || tl.dump_canonical("close_link") != close_links
        {
            rep.fail("reason: traced pass derived different facts");
        }
        rep.trace_overhead(traced_s, setup_wall_s + reason_s);
    }
    rep.note(
        "reason",
        format!(
            "control: rounds={} derived={}; close_link: rounds={} derived={} pairs={}; reps={}",
            sc.rounds,
            sc.derived,
            sl.rounds,
            sl.derived,
            close_links.len(),
            times.len()
        ),
    );
    rep
}

/// `close_link` by the interpreted step machine over the same facts.
fn interpreted_close_links(facts: &Database) -> Vec<String> {
    let program = Program::parse(CLOSELINK_PROGRAM).expect("bundled program parses");
    let engine = Engine::with(
        &program,
        Default::default(),
        EngineOptions {
            compile: false,
            batch: false,
            ..EngineOptions::default()
        },
    )
    .expect("bundled program compiles");
    let mut db = facts.clone();
    engine
        .run(&mut db)
        .expect("interpreted close_link fixpoint");
    db.dump_canonical("close_link")
}
