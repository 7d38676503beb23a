//! The paper's experiments as reusable harness functions.
//!
//! Every function generates its workload deterministically, exercises the
//! system exactly as Section 6 describes, and returns printable rows. The
//! `repro` binary renders them; EXPERIMENTS.md records a run next to the
//! paper's reported values.

use std::time::Instant;

use gen::ba::{generate_ba, BaConfig, DensityPreset};
use gen::company::{generate, CompanyGraphConfig};
use pgraph::GraphStats;
use vada_link::augment::{augment, AugmentOptions, PersonLinkCandidate};
use vada_link::family::{FamilyDetector, FamilyDetectorConfig};
use vada_link::model::CompanyGraph;
use vada_link::naive::naive_augment;
use vada_link::recall::{ground_links, recall_protocol, HijackedCandidate};

use crate::synth::SyntheticCandidate;

/// A walk-heavy node2vec configuration for the synthetic density
/// experiments: the paper notes that "node2vec needs to process a number
/// of random walks that grows with the density" — second-order transition
/// sampling is quadratic in the branching factor, so walk generation must
/// dominate training for density to show up in the elapsed time.
fn dense_stress_options() -> AugmentOptions {
    AugmentOptions {
        node2vec: embed::Node2VecConfig {
            dims: 8,
            walk_length: 40,
            walks_per_node: 20,
            window: 1,
            negatives: 1,
            epochs: 1,
            learning_rate: 0.05,
            p: 1.0,
            q: 0.5,
            seed: 0xE5B,
            threads: 1,
        },
        ..Default::default()
    }
}

/// Builds a company graph of `persons` persons (plus `persons / 2`
/// companies) together with a trained person-link candidate.
pub fn person_workload(persons: usize, seed: u64) -> (CompanyGraph, PersonLinkCandidate) {
    let out = generate(&CompanyGraphConfig {
        persons,
        companies: persons / 2,
        seed,
        ..Default::default()
    });
    let g = CompanyGraph::new(out.graph);
    let det = FamilyDetector::train(&g, &out.truth, &FamilyDetectorConfig::default());
    (g, PersonLinkCandidate::new(det))
}

// ---------------------------------------------------------------------------
// T1 — Section 2 dataset statistics
// ---------------------------------------------------------------------------

/// Paper-reported reference values for the Section 2 statistics, quoted
/// per metric for side-by-side comparison (full register, 4.06M nodes).
pub const T1_PAPER_REFERENCE: &[(&str, &str)] = &[
    ("nodes", "4_059_000 (avg/year)"),
    ("edges", "3_960_000 (avg/year)"),
    ("scc_avg_size", "≈ 1"),
    ("scc_max_size", "15"),
    ("wcc_count", "> 600_000"),
    ("wcc_avg_size", "≈ 6"),
    ("wcc_max_size", "> 1_000_000"),
    ("mean_degree", "≈ 1"),
    ("max_in_degree", "> 5_000"),
    ("max_out_degree", "> 28_000"),
    ("clustering_coefficient", "≈ 0.0084"),
    ("self_loops", "≈ 3_000 (0.07% of companies)"),
    ("power_law", "degree distribution follows a power law"),
];

/// Generates a calibrated company graph of `nodes` total nodes and
/// computes the full Section 2 statistical profile.
pub fn exp_t1(nodes: usize, seed: u64) -> (GraphStats, String) {
    let out = generate(&CompanyGraphConfig::scaled(nodes, seed));
    let stats = GraphStats::compute(&out.graph, "w");
    let mut report = String::new();
    report.push_str(&format!(
        "T1: dataset statistics at {nodes} nodes (paper: 4.06M nodes/year)\n"
    ));
    report.push_str(&stats.report());
    report.push_str("\npaper reference values:\n");
    for (k, v) in T1_PAPER_REFERENCE {
        report.push_str(&format!("  {k:<26} {v}\n"));
    }
    (stats, report)
}

// ---------------------------------------------------------------------------
// Figure 4(a) — time vs number of nodes (real-world-like)
// ---------------------------------------------------------------------------

/// One row of the Figure 4(a) series.
#[derive(Debug, Clone)]
pub struct Fig4aRow {
    /// Persons in the graph.
    pub persons: usize,
    /// VADA-LINK elapsed seconds (clustered + blocked).
    pub vadalink_secs: f64,
    /// Pairwise comparisons performed by VADA-LINK.
    pub comparisons: usize,
    /// Naive all-pairs elapsed seconds (`None` above `naive_cap`).
    pub naive_secs: Option<f64>,
    /// Naive comparisons (`None` above `naive_cap`).
    pub naive_comparisons: Option<usize>,
}

/// Runs the Figure 4(a) sweep: family detection over company graphs of
/// increasing size; the naive baseline runs only up to `naive_cap`
/// persons (it is quadratic — the point of the figure).
pub fn exp_fig4a(sizes: &[usize], naive_cap: usize, seed: u64) -> Vec<Fig4aRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let (g, cand) = person_workload(n, seed);
        let mut gv = g.clone();
        let t = Instant::now();
        let stats = augment(&mut gv, &[&cand], &AugmentOptions::default());
        let vadalink_secs = t.elapsed().as_secs_f64();
        let (naive_secs, naive_comparisons) = if n <= naive_cap {
            let mut gn = g.clone();
            let t = Instant::now();
            let ns = naive_augment(&mut gn, &[&cand]);
            (Some(t.elapsed().as_secs_f64()), Some(ns.comparisons))
        } else {
            (None, None)
        };
        rows.push(Fig4aRow {
            persons: n,
            vadalink_secs,
            comparisons: stats.comparisons,
            naive_secs,
            naive_comparisons,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 4(b) — time vs number of nodes (dense synthetic)
// ---------------------------------------------------------------------------

/// One row of the Figure 4(b) series.
#[derive(Debug, Clone)]
pub struct Fig4bRow {
    /// Nodes in the BA graph.
    pub nodes: usize,
    /// Elapsed seconds.
    pub secs: f64,
    /// Pairwise comparisons.
    pub comparisons: usize,
}

/// Runs the Figure 4(b) sweep: the synthetic predicate over dense
/// (m = 8) Barabási–Albert graphs.
pub fn exp_fig4b(sizes: &[usize], seed: u64) -> Vec<Fig4bRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let g = generate_ba(&BaConfig::with_density(n, DensityPreset::Superdense, seed));
        let mut cg = CompanyGraph::new(g);
        let cand = SyntheticCandidate;
        let t = Instant::now();
        let stats = augment(&mut cg, &[&cand], &dense_stress_options());
        rows.push(Fig4bRow {
            nodes: n,
            secs: t.elapsed().as_secs_f64(),
            comparisons: stats.comparisons,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 4(c) — time vs number of clusters
// ---------------------------------------------------------------------------

/// One row of the Figure 4(c) series.
#[derive(Debug, Clone)]
pub struct Fig4cRow {
    /// Cluster count (the hijacked block count).
    pub clusters: usize,
    /// Elapsed seconds.
    pub secs: f64,
    /// Pairwise comparisons.
    pub comparisons: usize,
}

/// Runs the Figure 4(c) sweep: fixed graph, feature-hijacked blocking
/// into 1..500 clusters (Section 6.1's protocol).
pub fn exp_fig4c(persons: usize, clusters: &[usize], seed: u64) -> Vec<Fig4cRow> {
    let (g, cand) = person_workload(persons, seed);
    let mut rows = Vec::new();
    for &k in clusters {
        let hijacked = HijackedCandidate::new(&cand, k);
        let mut gv = g.clone();
        let t = Instant::now();
        let stats = augment(
            &mut gv,
            &[&hijacked],
            &AugmentOptions {
                block_count: Some(k),
                ..Default::default()
            },
        );
        rows.push(Fig4cRow {
            clusters: k,
            secs: t.elapsed().as_secs_f64(),
            comparisons: stats.comparisons,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 4(d) — time vs density
// ---------------------------------------------------------------------------

/// One row of the Figure 4(d) series.
#[derive(Debug, Clone)]
pub struct Fig4dRow {
    /// Density preset name.
    pub density: &'static str,
    /// Nodes in the graph.
    pub nodes: usize,
    /// Elapsed seconds.
    pub secs: f64,
}

/// Runs the Figure 4(d) sweep: four density presets, growing sizes.
pub fn exp_fig4d(sizes: &[usize], seed: u64) -> Vec<Fig4dRow> {
    let mut rows = Vec::new();
    for preset in DensityPreset::all() {
        for &n in sizes {
            let g = generate_ba(&BaConfig::with_density(n, preset, seed));
            let mut cg = CompanyGraph::new(g);
            let cand = SyntheticCandidate;
            let t = Instant::now();
            augment(&mut cg, &[&cand], &dense_stress_options());
            rows.push(Fig4dRow {
                density: preset.name(),
                nodes: n,
                secs: t.elapsed().as_secs_f64(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 4(e) — recall vs number of clusters
// ---------------------------------------------------------------------------

/// One row of the Figure 4(e) series.
#[derive(Debug, Clone)]
pub struct Fig4eRow {
    /// Cluster count.
    pub clusters: usize,
    /// Mean recall over the repeats.
    pub recall: f64,
    /// Mean comparisons.
    pub comparisons: f64,
}

/// Runs the Figure 4(e) protocol: ground links from no-cluster mode, 20%
/// removed, re-run with hijacked `k`-cluster blocking, averaged over
/// `repeats` removal draws (the paper averages 10 × 10 runs).
pub fn exp_fig4e(persons: usize, clusters: &[usize], repeats: usize, seed: u64) -> Vec<Fig4eRow> {
    let (g, cand) = person_workload(persons, seed);
    let ground = ground_links(&g, &cand);
    // The sweep varies the *second-level* clustering only (the Section
    // 6.1 technique); a single first-level cluster keeps c = 1 exhaustive.
    let opts = AugmentOptions {
        clusters: 1,
        max_rounds: 2,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for &k in clusters {
        let hijacked = HijackedCandidate::new(&cand, k);
        let mut recall_sum = 0.0;
        let mut cmp_sum = 0.0;
        for r in 0..repeats.max(1) {
            let out = recall_protocol(
                &g,
                &hijacked,
                &ground,
                k,
                0.2,
                &opts,
                seed ^ (r as u64).wrapping_mul(0x9E37),
            );
            recall_sum += out.recall;
            cmp_sum += out.comparisons as f64;
        }
        let reps = repeats.max(1) as f64;
        rows.push(Fig4eRow {
            clusters: k,
            recall: recall_sum / reps,
            comparisons: cmp_sum / reps,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Free-form ablation report (naive vs blocked vs embedded+blocked;
/// native vs Datalog control; exact vs walk-sum accumulated ownership).
pub fn exp_ablations(persons: usize, seed: u64) -> String {
    use pgraph::algo::PathLimits;
    use vada_link::closelink::{accumulated_from, walk_ownership_from};
    use vada_link::control::all_control;
    use vada_link::programs::run_control;

    let mut out = String::new();
    let (g, cand) = person_workload(persons, seed);

    // (a) Search-space reduction.
    let mut gn = g.clone();
    let t = Instant::now();
    let naive = naive_augment(&mut gn, &[&cand]);
    let naive_t = t.elapsed().as_secs_f64();
    let mut gb = g.clone();
    let t = Instant::now();
    let blocked = augment(
        &mut gb,
        &[&cand],
        &AugmentOptions {
            clusters: 1,
            ..Default::default()
        },
    );
    let blocked_t = t.elapsed().as_secs_f64();
    let mut ge = g.clone();
    let t = Instant::now();
    let embedded = augment(&mut ge, &[&cand], &AugmentOptions::default());
    let embedded_t = t.elapsed().as_secs_f64();
    out.push_str(&format!(
        "ablation (a): search-space reduction at {persons} persons\n\
           naive all-pairs:    {:>10} comparisons  {naive_t:>8.3}s  {} links\n\
           blocked only:       {:>10} comparisons  {blocked_t:>8.3}s  {} links\n\
           embedded + blocked: {:>10} comparisons  {embedded_t:>8.3}s  {} links\n",
        naive.comparisons,
        naive.links_added,
        blocked.comparisons,
        blocked.links_added,
        embedded.comparisons,
        embedded.links_added,
    ));

    // (b) Native fixpoint vs Datalog program for company control.
    let t = Instant::now();
    let native = all_control(&g);
    let native_t = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let datalog = run_control(&g);
    let datalog_t = t.elapsed().as_secs_f64();
    out.push_str(&format!(
        "ablation (b): company control at {} nodes\n\
           native worklist:    {native_t:>8.3}s  {} control pairs\n\
           datalog (Alg. 5):   {datalog_t:>8.3}s  {} control pairs\n",
        g.node_count(),
        native.len(),
        datalog.len(),
    ));

    // (c) Exact simple paths vs walk-sum accumulated ownership.
    let sources: Vec<pgraph::NodeId> = g
        .graph()
        .node_ids()
        .filter(|&n| g.graph().out_degree(n) > 0)
        .take(200)
        .collect();
    let t = Instant::now();
    let mut exact_vals = 0usize;
    for &s in &sources {
        exact_vals += accumulated_from(&g, s, PathLimits::default()).len();
    }
    let exact_t = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut walk_vals = 0usize;
    for &s in &sources {
        walk_vals += walk_ownership_from(&g, s, 32, 1e-12).len();
    }
    let walk_t = t.elapsed().as_secs_f64();
    out.push_str(&format!(
        "ablation (c): accumulated ownership over {} sources\n\
           exact simple paths: {exact_t:>8.3}s  {exact_vals} (src,dst) values\n\
           walk-sum iteration: {walk_t:>8.3}s  {walk_vals} (src,dst) values\n",
        sources.len(),
    ));
    out
}

// ---------------------------------------------------------------------------
// Thread scaling — the parallel execution layer
// ---------------------------------------------------------------------------

/// One measurement of the thread-scaling sweep.
#[derive(Debug, Clone)]
pub struct ThreadScalingRow {
    /// Kernel under test.
    pub kernel: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Elapsed seconds.
    pub secs: f64,
    /// Wall-clock speedup relative to the kernel's first (baseline) row.
    pub speedup: f64,
}

/// Measures every parallel kernel at the given thread counts on the same
/// Figure 4(b)-style workload: a superdense Barabási–Albert graph of
/// `nodes` nodes. The first entry of `thread_counts` (conventionally 1)
/// is the speedup baseline. Kernels:
///
/// * `walks` — node2vec random-walk generation;
/// * `sgns` — skip-gram training over a fixed walk corpus (sharded mode
///   for `threads > 1`);
/// * `fixpoint` — semi-naive datalog reachability over the ownership
///   facts, every node a source;
/// * `linkage` — all-pairs-within-block similarity scoring.
pub fn exp_thread_scaling(
    nodes: usize,
    thread_counts: &[usize],
    seed: u64,
) -> Vec<ThreadScalingRow> {
    use datalog::{Engine, EngineOptions, Program};
    use embed::{generate_walks, train_sgns, SgnsConfig, WalkConfig};
    use linkage::{jaro_winkler, score_blocks, FeatureBlocker};

    let g = generate_ba(&BaConfig::with_density(
        nodes,
        DensityPreset::Superdense,
        seed,
    ));
    let cg = CompanyGraph::new(g);
    let csr = pgraph::Csr::from_graph(cg.graph(), "w");
    let mut rows = Vec::new();
    let mut push = |kernel: &'static str, threads: usize, secs: f64, base: f64| {
        rows.push(ThreadScalingRow {
            kernel,
            threads,
            secs,
            speedup: base / secs,
        });
    };

    // Walk generation (thread-count-invariant output).
    let walk_cfg = |threads: usize| WalkConfig {
        walk_length: 40,
        walks_per_node: 20,
        p: 1.0,
        q: 0.5,
        seed,
        threads,
    };
    let mut base = 0.0;
    for (i, &t) in thread_counts.iter().enumerate() {
        let now = Instant::now();
        let w = generate_walks(&csr, &walk_cfg(t));
        let secs = now.elapsed().as_secs_f64();
        std::hint::black_box(&w);
        if i == 0 {
            base = secs;
        }
        push("walks", t, secs, base);
    }

    // SGNS over one fixed corpus (sharded deterministic mode when t > 1).
    let walks = generate_walks(&csr, &walk_cfg(0));
    for (i, &t) in thread_counts.iter().enumerate() {
        let cfg = SgnsConfig {
            dims: 32,
            window: 2,
            negatives: 2,
            epochs: 2,
            learning_rate: 0.025,
            seed: seed ^ 0x5EED,
            threads: t,
        };
        let now = Instant::now();
        let emb = train_sgns(csr.node_count(), &walks, &cfg);
        let secs = now.elapsed().as_secs_f64();
        std::hint::black_box(&emb);
        if i == 0 {
            base = secs;
        }
        push("sgns", t, secs, base);
    }

    // Datalog fixpoint: reachability over the ownership facts with every
    // node a source — wide per-round deltas, the parallel scheduler's case.
    let src = "reach(X, Y) :- node(X), own(X, Y, _).\n\
               reach(X, Z) :- reach(X, Y), own(Y, Z, _).";
    let program = Program::parse(src).expect("valid program");
    for (i, &t) in thread_counts.iter().enumerate() {
        let options = EngineOptions {
            threads: t,
            ..EngineOptions::default()
        };
        let engine = Engine::with(&program, Default::default(), options).expect("compiles");
        let mut db = crate::workload::fresh_db(&cg, None);
        for n in cg.graph().node_ids() {
            let s = vada_link::mapping::sym_of(&mut db, n);
            db.assert_fact("node", &[s]).expect("arity");
        }
        let now = Instant::now();
        engine.run(&mut db).expect("fixpoint");
        let secs = now.elapsed().as_secs_f64();
        std::hint::black_box(&db);
        if i == 0 {
            base = secs;
        }
        push("fixpoint", t, secs, base);
    }

    // Linkage: all-pairs-within-block scoring of synthetic name records.
    let items: Vec<String> = (0..nodes * 4)
        .map(|i| format!("record-{}-{}", i % 97, i.wrapping_mul(0x9E37) % 1013))
        .collect();
    let blocker = FeatureBlocker::with_block_count(48);
    for (i, &t) in thread_counts.iter().enumerate() {
        let now = Instant::now();
        let scored = score_blocks(
            &blocker,
            &items,
            t,
            |it| it.rsplit('-').nth(1).unwrap_or("").to_owned(),
            |a, b| jaro_winkler(a, b),
        );
        let secs = now.elapsed().as_secs_f64();
        std::hint::black_box(&scored);
        if i == 0 {
            base = secs;
        }
        push("linkage", t, secs, base);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_statistics_have_paper_shape() {
        let (stats, report) = exp_t1(3000, 11);
        assert!(stats.mean_degree > 0.4 && stats.mean_degree < 1.6);
        assert!(stats.scc_avg_size < 1.05);
        assert!(report.contains("paper reference"));
    }

    #[test]
    fn fig4a_vadalink_beats_naive_comparisons() {
        let rows = exp_fig4a(&[300, 600], 600, 5);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            let naive = r.naive_comparisons.expect("within cap");
            assert!(r.comparisons < naive, "{} < {naive}", r.comparisons);
        }
    }

    #[test]
    fn fig4c_time_decreases_with_clusters() {
        let rows = exp_fig4c(500, &[1, 50, 500], 5);
        assert!(rows[0].comparisons > rows[1].comparisons);
        assert!(rows[1].comparisons >= rows[2].comparisons);
    }

    #[test]
    fn fig4e_recall_profile() {
        let rows = exp_fig4e(400, &[1, 20, 450], 2, 5);
        assert!((rows[0].recall - 1.0).abs() < 1e-9, "k=1 exhaustive");
        assert!(rows[1].recall > 0.85, "k=20 high: {}", rows[1].recall);
        assert!(rows[2].recall < 0.5, "k=450 collapsed: {}", rows[2].recall);
    }

    #[test]
    fn fig4d_density_ordering() {
        let rows = exp_fig4d(&[300], 5);
        assert_eq!(rows.len(), 4);
        // Superdense processes at least as many edges as sparse.
        let sparse = rows.iter().find(|r| r.density == "sparse").unwrap();
        let superdense = rows.iter().find(|r| r.density == "superdense").unwrap();
        assert!(superdense.secs > 0.0 && sparse.secs > 0.0);
    }

    #[test]
    fn thread_scaling_measures_every_kernel() {
        let rows = exp_thread_scaling(300, &[1, 2], 5);
        for kernel in ["walks", "sgns", "fixpoint", "linkage"] {
            let ts: Vec<&ThreadScalingRow> = rows.iter().filter(|r| r.kernel == kernel).collect();
            assert_eq!(ts.len(), 2, "{kernel}: one row per thread count");
            assert!(ts.iter().all(|r| r.secs > 0.0), "{kernel}: timed");
            // Speedups are wall-clock and thus not asserted; the baseline
            // row must have speedup exactly 1 by construction.
            assert!((ts[0].speedup - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ablations_render() {
        let report = exp_ablations(200, 5);
        assert!(report.contains("ablation (a)"));
        assert!(report.contains("ablation (b)"));
        assert!(report.contains("ablation (c)"));
    }
}
