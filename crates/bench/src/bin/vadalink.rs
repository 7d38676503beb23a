//! `vadalink` — command-line interface to the reproduction.
//!
//! ```text
//! vadalink stats     --nodes nodes.csv --edges edges.csv
//! vadalink control   --nodes nodes.csv --edges edges.csv [--explain X,Y] [--explain-plan]
//! vadalink closelink --nodes nodes.csv --edges edges.csv [--threshold 0.2] [--explain-plan]
//! vadalink update    PROGRAM --nodes nodes.csv --edges edges.csv --update u.txt [--threshold 0.2]
//! vadalink demo      [--out DIR]      # writes the Figure 1 graph as CSV
//! vadalink check     PROGRAM [--lax] [--json]  # static analysis of a Vadalog file
//! vadalink query     PROGRAM 'control("n0", X)?' --nodes N.csv --edges E.csv
//! vadalink serve     PROGRAM --nodes N.csv --edges E.csv [--addr 127.0.0.1:0] [--threshold 0.2]
//! ```
//!
//! Node files: `id,label[,k=v;k=v...]` with dense integer ids; edge files:
//! `src,dst,label[,k=v;...]` (see `pgraph::io`). Control and close-link
//! results are printed as `x,y` pairs of node ids, one per line.
//!
//! Every subcommand accepts `--threads N` to pin the worker count of the
//! parallel kernels (walks, training, linkage, fixpoint evaluation); the
//! default consults `VADALINK_THREADS`, then the machine's parallelism.
//! Results are identical for every value.
//!
//! `--explain-plan` prints the engine's cost-based execution plans for the
//! subcommand's Vadalog program — per stratum and rule, the chosen literal
//! order, probe keys and estimated cardinalities — to stderr before the
//! results.
//!
//! `check` parses a program (`-` reads stdin) and prints every analyzer
//! diagnostic as `file:line:col: severity[CODE]: message`. It runs in
//! strict mode (implicit existentials are errors) unless `--lax` is given,
//! and exits 1 when any error-level diagnostic is found, 2 on usage or
//! parse errors, 0 otherwise. With `--json` the diagnostics are emitted as
//! one machine-readable JSON document (schema `vadalink-check/1`) instead:
//! code, severity, source location and message per diagnostic, in the
//! analyzer's deterministic order; the exit-code contract is unchanged.
//!
//! `query` evaluates a single goal goal-directedly: the program is
//! rewritten by the demand (magic-sets) transformation around the goal's
//! bound constants, so only the cone of facts the answer depends on is
//! derived. Matching facts print one per line; the adornment summary and
//! run statistics go to stderr. `PROGRAM` is a Vadalog file or a bundled
//! shortcut (`control` / `closelink`, the latter seeds `th(--threshold)`).
//!
//! `update` opens an incremental reasoning session over the graph's
//! extensional facts, applies the signed ground facts of the update file
//! (`+own(n0,n4,0.3)` inserts, `-own(n0,n4,0.8)` deletes, `%` comments),
//! and prints the net derived-fact diff — one `+fact`/`-fact` line each —
//! with propagation statistics on stderr. `PROGRAM` is a Vadalog file or
//! one of the bundled shortcuts `control` / `closelink` (the latter seeds
//! `th(--threshold)`).
//!
//! `serve` loads the graph, runs the program to fixpoint and keeps the
//! result resident behind a line-delimited-JSON TCP endpoint (protocol
//! `vadalink-serve/1`): point lookups and derivation-tree explanations
//! run against immutable epoch snapshots while signed-fact update batches
//! commit new epochs through the incremental session — see DESIGN.md §12.
//! The bound address is printed to stdout (use `--addr 127.0.0.1:0` for
//! an ephemeral port); the process exits 0 when a client sends the
//! `shutdown` op.
//!
//! `update` and `serve` accept `--data-dir DIR` for **durability**: every
//! committed update batch is appended to a checksummed write-ahead log in
//! DIR before it becomes visible, and snapshots are cut every
//! `--snapshot-every N` commits (`--fsync always|never` picks the sync
//! policy). On boot the newest snapshot is loaded and the WAL tail
//! replayed, restoring the pre-crash state; `--nodes`/`--edges` seed the
//! register only on the first boot of an empty directory. The directory
//! must already exist — a missing path is a usage error (exit 2), while a
//! directory locked by another live process or written by an incompatible
//! store version exits 1 with a diagnostic.
//!
//! All usage errors (unknown flags or subcommands, missing values) exit 2
//! and print the usage summary to stderr; `--help`/`-h` prints it to
//! stdout and exits 0.

use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;

use bench::workload::fresh_db;
use pgraph::{io, NodeId};
use vada_link::kg::KnowledgeGraph;
use vada_link::model::CompanyGraph;
use vada_link::paper_graphs::figure1;
use vada_link::programs::{plan_report, run_close_links, CLOSELINK_PROGRAM, CONTROL_PROGRAM};

const USAGE: &str = "\
usage: vadalink <subcommand> [options]

subcommands:
  stats     --nodes N.csv --edges E.csv
  control   --nodes N.csv --edges E.csv [--explain X,Y] [--explain-plan]
  closelink --nodes N.csv --edges E.csv [--threshold 0.2] [--explain-plan]
  update    PROGRAM --nodes N.csv --edges E.csv --update U [--threshold 0.2]
            [--data-dir DIR]
            PROGRAM is a Vadalog file or a bundled shortcut
            (control | closelink); U holds one signed ground fact per
            line: +own(n0,n4,0.3) inserts, -own(n0,n4,0.8) deletes,
            '%' starts a comment. With --data-dir the batch is logged
            durably and the session state is restored from DIR
  demo      [--out DIR]
  check     PROGRAM [--lax] [--json]
  query     PROGRAM GOAL --nodes N.csv --edges E.csv [--threshold 0.2]
            GOAL is a single goal such as 'control(\"n0\", X)?';
            PROGRAM is a Vadalog file or a bundled shortcut
            (control | closelink)
  serve     PROGRAM --nodes N.csv --edges E.csv [--addr 127.0.0.1:0]
            [--threshold 0.2] [--data-dir DIR]
            serves point lookups, explanations and updates over
            line-delimited JSON on TCP; prints the bound address to
            stdout and exits 0 on a client 'shutdown' op. With
            --data-dir commits are WAL-logged before their epoch swap
            and boot restores snapshot + WAL tail

global options:
  --threads N   pin the worker-thread count
  -h, --help    print this help and exit

durability options (update, serve):
  --data-dir DIR        existing directory for the WAL and snapshots;
                        missing DIR is a usage error (exit 2), DIR held
                        by a live process or written by an incompatible
                        store version exits 1
  --fsync always|never  WAL sync policy (default always)
  --snapshot-every N    snapshot cadence in commits (default 64;
                        0 disables periodic snapshots)
";

struct Opts {
    cmd: String,
    nodes: Option<String>,
    edges: Option<String>,
    threshold: f64,
    explain: Option<(u32, u32)>,
    explain_plan: bool,
    out: String,
    file: Option<String>,
    goal: Option<String>,
    update: Option<String>,
    lax: bool,
    json: bool,
    addr: String,
    data_dir: Option<String>,
    fsync: store::FsyncPolicy,
    snapshot_every: u64,
}

fn parse_opts() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        cmd: argv.first().cloned().ok_or("missing subcommand")?,
        nodes: None,
        edges: None,
        threshold: 0.2,
        explain: None,
        explain_plan: false,
        out: ".".to_owned(),
        file: None,
        goal: None,
        update: None,
        lax: false,
        json: false,
        addr: "127.0.0.1:0".to_owned(),
        data_dir: None,
        fsync: store::FsyncPolicy::Always,
        snapshot_every: 64,
    };
    let mut i = 1;
    while i < argv.len() {
        let next = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--nodes" => opts.nodes = Some(next(&mut i)?),
            "--edges" => opts.edges = Some(next(&mut i)?),
            "--threshold" => {
                opts.threshold = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?
            }
            "--explain" => {
                let v = next(&mut i)?;
                let (a, b) = v.split_once(',').ok_or("--explain expects X,Y")?;
                opts.explain = Some((
                    a.trim().parse().map_err(|e| format!("bad node id: {e}"))?,
                    b.trim().parse().map_err(|e| format!("bad node id: {e}"))?,
                ));
            }
            "--explain-plan" => opts.explain_plan = true,
            "--out" => opts.out = next(&mut i)?,
            "--update" => opts.update = Some(next(&mut i)?),
            "--addr" => opts.addr = next(&mut i)?,
            "--lax" => opts.lax = true,
            "--json" => opts.json = true,
            "--threads" => {
                let n: usize = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                par::set_threads(n);
            }
            "--data-dir" => opts.data_dir = Some(next(&mut i)?),
            "--fsync" => {
                opts.fsync = match next(&mut i)?.as_str() {
                    "always" => store::FsyncPolicy::Always,
                    "never" => store::FsyncPolicy::Never,
                    other => return Err(format!("bad --fsync {other} (always|never)")),
                }
            }
            "--snapshot-every" => {
                opts.snapshot_every = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad snapshot cadence: {e}"))?
            }
            other if !other.starts_with('-') || other == "-" => {
                // Positionals in order: PROGRAM first, then (for `query`)
                // the goal.
                if opts.file.is_none() {
                    opts.file = Some(other.to_owned());
                } else if opts.goal.is_none() {
                    opts.goal = Some(other.to_owned());
                } else {
                    return Err(format!("unexpected extra argument {other}"));
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn load_graph(opts: &Opts) -> Result<CompanyGraph, String> {
    let nodes = opts.nodes.as_ref().ok_or("--nodes is required")?;
    let edges = opts.edges.as_ref().ok_or("--edges is required")?;
    let nf = BufReader::new(File::open(nodes).map_err(|e| format!("{nodes}: {e}"))?);
    let ef = BufReader::new(File::open(edges).map_err(|e| format!("{edges}: {e}"))?);
    let g = io::read_csv(nf, ef).map_err(|e| format!("parse error: {e}"))?;
    Ok(CompanyGraph::new(g))
}

fn store_cfg(opts: &Opts) -> store::StoreConfig {
    store::StoreConfig {
        fsync: opts.fsync,
        snapshot_every: opts.snapshot_every,
    }
}

/// Maps a store failure onto the CLI exit scheme: a missing data
/// directory is a usage error (exit 2, via the `Err` path like any other
/// missing file), anything else — lock held by a live process,
/// incompatible snapshot/WAL version, unrecoverable corruption — is an
/// operational failure (exit 1, diagnostic only, no usage spam).
fn store_exit(e: store::StoreError) -> Result<ExitCode, String> {
    match e {
        store::StoreError::MissingDir(_) => Err(e.to_string()),
        other => {
            eprintln!("vadalink: {other}");
            Ok(ExitCode::from(1))
        }
    }
}

/// Head predicates of a program — omitted from snapshots, re-derived on
/// recovery.
fn head_preds(program: &datalog::Program) -> std::collections::HashSet<String> {
    program
        .rules
        .iter()
        .flat_map(|r| r.head.iter().map(|a| a.pred.clone()))
        .collect()
}

/// Implements `vadalink check`: parse, analyze, print, and translate the
/// outcome into an exit code (0 clean, 1 errors found).
fn run_check(opts: &Opts) -> Result<ExitCode, String> {
    use std::io::Read;

    let path = opts
        .file
        .as_deref()
        .ok_or("usage: vadalink check PROGRAM [--lax]")?;
    let src = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let program = datalog::Program::parse(&src).map_err(|e| format!("{path}: {e}"))?;
    let cfg = if opts.lax {
        datalog::AnalysisConfig::default()
    } else {
        datalog::AnalysisConfig::strict()
    };
    let analysis = datalog::analyze_with(&program, &cfg);
    if opts.json {
        println!("{}", render_check_json(path, &src, &analysis));
        return Ok(if analysis.errors().count() > 0 {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }
    for d in &analysis.diagnostics {
        println!("{path}:{}", d.render(&src));
    }
    let errors = analysis.errors().count();
    let warnings = analysis.warnings().count();
    if errors > 0 {
        eprintln!("vadalink: {errors} error(s), {warnings} warning(s) in {path}");
        return Ok(ExitCode::from(1));
    }
    eprintln!(
        "vadalink: {path} is clean ({} rule(s), {warnings} warning(s))",
        program.rules.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// Renders the `check --json` document: one object per diagnostic with
/// the stable code, severity, rule index, resolved source location and
/// message, in the analyzer's deterministic order.
fn render_check_json(path: &str, src: &str, analysis: &datalog::Analysis) -> String {
    use serve::json::esc;

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"vadalink-check/1\",\n");
    s.push_str(&format!("  \"path\": \"{}\",\n", esc(path)));
    s.push_str(&format!("  \"errors\": {},\n", analysis.errors().count()));
    s.push_str(&format!(
        "  \"warnings\": {},\n",
        analysis.warnings().count()
    ));
    s.push_str("  \"diagnostics\": [");
    for (i, d) in analysis.diagnostics.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    {");
        s.push_str(&format!("\"code\": \"{}\", ", d.code.as_str()));
        s.push_str(&format!(
            "\"severity\": \"{}\", ",
            format!("{:?}", d.severity).to_lowercase()
        ));
        match d.rule {
            Some(r) => s.push_str(&format!("\"rule\": {r}, ")),
            None => s.push_str("\"rule\": null, "),
        }
        match d.span {
            Some(span) => {
                let (line, col) = span.line_col(src);
                s.push_str(&format!("\"line\": {line}, \"col\": {col}, "));
                s.push_str(&format!(
                    "\"start\": {}, \"end\": {}, ",
                    span.start, span.end
                ));
            }
            None => s.push_str("\"line\": null, \"col\": null, \"start\": null, \"end\": null, "),
        }
        s.push_str(&format!("\"message\": \"{}\"}}", esc(&d.message)));
    }
    s.push_str("\n  ]\n}");
    s
}

/// Implements `vadalink query`: goal-directed evaluation of a single goal
/// over the graph's facts, via the demand (magic-sets) rewrite.
fn run_query(opts: &Opts) -> Result<ExitCode, String> {
    let spec = opts
        .file
        .as_deref()
        .ok_or("query needs a PROGRAM (a .vada file, control, or closelink)")?;
    let goal = opts
        .goal
        .as_deref()
        .ok_or("query needs a GOAL, e.g. 'control(\"n0\", X)?'")?;
    let src = match spec {
        "control" => CONTROL_PROGRAM.to_owned(),
        "closelink" => CLOSELINK_PROGRAM.to_owned(),
        path => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
    };
    let g = load_graph(opts)?;
    let program = datalog::Program::parse(&src).map_err(|e| format!("{spec}: {e}"))?;
    let engine = datalog::Engine::new(&program).map_err(|e| e.to_string())?;
    let db = fresh_db(&g, Some(opts.threshold));
    let answer = engine.query(&db, goal).map_err(|e| e.to_string())?;
    for row in &answer.rows {
        println!("{row}");
    }
    eprint!("{}", answer.report.render());
    eprintln!(
        "vadalink: {} answer(s) in {:.3?} ({}, {} fact(s) derived, {} round(s))",
        answer.rows.len(),
        answer.stats.duration,
        if answer.demanded {
            "goal-directed".to_owned()
        } else {
            let why = answer.fallback_reason.as_deref().unwrap_or("all-free goal");
            format!("full evaluation: {why}")
        },
        answer.stats.derived,
        answer.stats.rounds,
    );
    Ok(ExitCode::SUCCESS)
}

/// Implements `vadalink update`: open an incremental session, apply the
/// update file, print the net fact diff (derived facts included).
fn run_update(opts: &Opts) -> Result<ExitCode, String> {
    let spec = opts
        .file
        .as_deref()
        .ok_or("update needs a PROGRAM (a .vada file, control, or closelink)")?;
    let src = match spec {
        "control" => CONTROL_PROGRAM.to_owned(),
        "closelink" => CLOSELINK_PROGRAM.to_owned(),
        path => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
    };
    let upd_path = opts.update.as_ref().ok_or("--update is required")?;
    let upd_src = std::fs::read_to_string(upd_path).map_err(|e| format!("{upd_path}: {e}"))?;
    let program = datalog::Program::parse(&src).map_err(|e| format!("{spec}: {e}"))?;
    let boot_db = |opts: &Opts| -> Result<datalog::Database, String> {
        let g = load_graph(opts)?;
        if opts.explain_plan {
            eprintln!("{}", plan_report(&src, &g, Some(opts.threshold)));
        }
        Ok(fresh_db(&g, Some(opts.threshold)))
    };
    let (mut session, mut durable) = if let Some(dir) = &opts.data_dir {
        let (mut store, recovery) =
            match store::DurableStore::open(std::path::Path::new(dir), store_cfg(opts)) {
                Ok(ok) => ok,
                Err(e) => return store_exit(e),
            };
        for w in &recovery.warnings {
            eprintln!("vadalink: {w}");
        }
        let first_boot = recovery.base.is_none();
        // The snapshot is the register of record; --nodes/--edges seed
        // only the first boot of an empty directory.
        let base = match recovery.base {
            Some(db) => db,
            None => boot_db(opts)?,
        };
        let mut session =
            datalog::IncrementalEngine::new(&program, base).map_err(|e| e.to_string())?;
        let replayed =
            store::replay_tail(&mut session, &recovery.tail).map_err(|e| e.to_string())?;
        if first_boot {
            store
                .write_snapshot(session.db(), &head_preds(&program))
                .map_err(|e| e.to_string())?;
        } else {
            eprintln!(
                "vadalink: restored seq={} (replayed {replayed} update(s))",
                recovery.seq
            );
        }
        (session, Some(store))
    } else {
        let session =
            datalog::IncrementalEngine::new(&program, boot_db(opts)?).map_err(|e| e.to_string())?;
        (session, None)
    };
    let update = session
        .parse_update(&upd_src)
        .map_err(|e| format!("{upd_path}: {e}"))?;
    let cs = session.apply_update(&update).map_err(|e| e.to_string())?;
    if let Some(store) = &mut durable {
        store
            .append(&update, session.db())
            .map_err(|e| e.to_string())?;
        if store.should_snapshot() {
            store
                .write_snapshot(session.db(), &head_preds(&program))
                .map_err(|e| e.to_string())?;
        }
        eprintln!("vadalink: committed seq={}", store.seq());
    }
    let db = session.db();
    let render = |tuple: &[datalog::Const]| -> String {
        tuple
            .iter()
            .map(|c| db.canonical(*c))
            .collect::<Vec<_>>()
            .join(",")
    };
    for (pred, tuple) in &cs.deleted {
        println!("-{pred}({})", render(tuple));
    }
    for (pred, tuple) in &cs.inserted {
        println!("+{pred}({})", render(tuple));
    }
    let s = &cs.stats;
    eprintln!(
        "vadalink: {} inserted, {} deleted in {:.3?} \
         ({} DRed, {} replayed, {} skipped unit(s){})",
        cs.inserted.len(),
        cs.deleted.len(),
        s.duration,
        s.dred_units,
        s.replayed_units,
        s.skipped_units,
        if s.full_recompute {
            "; full recompute"
        } else {
            ""
        }
    );
    Ok(ExitCode::SUCCESS)
}

/// Implements `vadalink serve`: run the program to fixpoint over the
/// graph, keep the result resident behind an epoch registry, and answer
/// lookups/explanations/updates over line-delimited JSON on TCP until a
/// client sends the `shutdown` op.
fn run_serve_cmd(opts: &Opts) -> Result<ExitCode, String> {
    use std::sync::Arc;

    let spec = opts
        .file
        .as_deref()
        .ok_or("serve needs a PROGRAM (a .vada file, control, or closelink)")?;
    let src = match spec {
        "control" => CONTROL_PROGRAM.to_owned(),
        "closelink" => CLOSELINK_PROGRAM.to_owned(),
        path => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
    };
    let g = load_graph(opts)?;
    let program = datalog::Program::parse(&src).map_err(|e| format!("{spec}: {e}"))?;
    let db = fresh_db(&g, Some(opts.threshold));
    let cfg = serve::ServiceConfig {
        name: spec.to_owned(),
        threads: 0,
    };
    let svc = if let Some(dir) = &opts.data_dir {
        match serve::GraphService::open_durable(
            &program,
            db,
            cfg,
            store_cfg(opts),
            std::path::Path::new(dir),
        ) {
            Ok((svc, info)) => {
                for w in &info.warnings {
                    eprintln!("vadalink: {w}");
                }
                eprintln!(
                    "vadalink: restored seq={} (replayed {} update(s))",
                    info.seq, info.replayed
                );
                svc
            }
            Err(serve::DurableOpenError::Store(e)) => return store_exit(e),
            Err(serve::DurableOpenError::Engine(e)) => return Err(e.to_string()),
        }
    } else {
        serve::GraphService::new(&program, db, cfg).map_err(|e| e.to_string())?
    };
    let server = serve::Server::spawn(Arc::new(svc), &opts.addr)
        .map_err(|e| format!("{}: {e}", opts.addr))?;
    // The bound address goes to stdout (and is flushed) so scripted
    // clients piping our output learn the ephemeral port immediately.
    println!("{}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    eprintln!(
        "vadalink: serving {spec} on {} (protocol {}); \
         send {{\"op\":\"shutdown\"}} to stop",
        server.addr(),
        serve::PROTOCOL_VERSION
    );
    server.wait();
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_opts()?;
    match opts.cmd.as_str() {
        "stats" => {
            let g = load_graph(&opts)?;
            let stats = pgraph::GraphStats::compute(g.graph(), "w");
            print!("{}", stats.report());
        }
        "control" => {
            let g = load_graph(&opts)?;
            if opts.explain_plan {
                eprintln!("{}", plan_report(CONTROL_PROGRAM, &g, None));
            }
            let mut kg = KnowledgeGraph::new(g).with_provenance();
            kg.derive_control();
            for (x, y) in kg.control_pairs() {
                println!("{},{}", x.0, y.0);
            }
            if let Some((a, b)) = opts.explain {
                match kg.explain_control(NodeId(a), NodeId(b), 8) {
                    Some(tree) => eprintln!("\n{}", tree.render()),
                    None => eprintln!("\nno control({a}, {b}) fact derived"),
                }
            }
        }
        "closelink" => {
            let g = load_graph(&opts)?;
            if opts.explain_plan {
                eprintln!(
                    "{}",
                    plan_report(CLOSELINK_PROGRAM, &g, Some(opts.threshold))
                );
            }
            for (x, y) in run_close_links(&g, opts.threshold) {
                println!("{},{}", x.0, y.0);
            }
        }
        "demo" => {
            let fig = figure1();
            let nodes_path = format!("{}/figure1_nodes.csv", opts.out);
            let edges_path = format!("{}/figure1_edges.csv", opts.out);
            let mut nf = File::create(&nodes_path).map_err(|e| e.to_string())?;
            let mut ef = File::create(&edges_path).map_err(|e| e.to_string())?;
            io::write_csv(fig.graph.graph(), &mut nf, &mut ef).map_err(|e| e.to_string())?;
            nf.flush().map_err(|e| e.to_string())?;
            ef.flush().map_err(|e| e.to_string())?;
            eprintln!("wrote {nodes_path} and {edges_path} (the paper's Figure 1)");
            eprintln!(
                "try: vadalink control --nodes {nodes_path} --edges {edges_path} --explain 0,4"
            );
        }
        "check" => return run_check(&opts),
        "query" => return run_query(&opts),
        "update" => return run_update(&opts),
        "serve" => return run_serve_cmd(&opts),
        other => {
            return Err(format!(
                "unknown subcommand {other} (stats|control|closelink|update|demo|check|query|serve)"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vadalink: {e}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
