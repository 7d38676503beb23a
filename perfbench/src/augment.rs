//! The augmentation stage: the paper's Figure 4(a) run.
//!
//! Timed: `vada_link::augment::augment` with `AugmentOptions::default()`
//! and a trained `PersonLinkCandidate`. `augment` hides its layers, so
//! [`recompose`] re-drives the same loop through the layers' public
//! functions (`Csr`, `generate_walks`, `train_sgns`, `kmeans`,
//! `FeatureBlocker`, `CandidatePredicate::decide`, `add_link`) under
//! spans, and every run checks that it lands on exactly the links the
//! entry point added.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use embed::{generate_walks, kmeans, train_sgns, SgnsConfig, WalkConfig};
use linkage::blocking::FeatureBlocker;
use pgraph::NodeId;
use vada_link::augment::{augment, AugmentOptions, CandidatePredicate, PersonLinkCandidate};
use vada_link::family::{FamilyDetector, FamilyDetectorConfig};
use vada_link::model::CompanyGraph;

use crate::calib;
use crate::register::{self, Register};
use crate::trace::Tracer;
use crate::{Plan, StageReport, MIN_REPS};

/// Link classes `PersonLinkCandidate` produces.
const CLASSES: [&str; 3] = ["PartnerOf", "SiblingOf", "ParentOf"];

/// What one augmentation produced, in a canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub rounds: usize,
    pub comparisons: usize,
    pub links_added: usize,
    /// `(class, a, b)` of every link of the three classes, sorted.
    pub links: Vec<(&'static str, u32, u32)>,
}

fn outcome(g: &CompanyGraph, rounds: usize, comparisons: usize, links_added: usize) -> Outcome {
    let mut links = Vec::new();
    for class in CLASSES {
        links.extend(
            g.links_of(class)
                .into_iter()
                .map(|(a, b)| (class, a.0, b.0)),
        );
    }
    links.sort_unstable();
    Outcome {
        rounds,
        comparisons,
        links_added,
        links,
    }
}

fn setup(persons: usize, register_seed: u64, seed: u64) -> (Register, PersonLinkCandidate) {
    let reg = register::build(persons, register_seed, seed);
    let det = FamilyDetector::train(&reg.graph, &reg.truth, &FamilyDetectorConfig::default());
    (reg, PersonLinkCandidate::new(det))
}

pub fn run(plan: &Plan, persons: usize, named: bool, t: &mut Tracer) -> StageReport {
    let mut rep = StageReport::new("augment", persons);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..plan.setup_reps {
        let (b, tm) = calib::timed(|| setup(persons, plan.register_seed, plan.seed_for(named)));
        built = Some(b);
        setups.push(tm);
    }
    let (reg, cand) = built.expect("at least one setup");
    rep.setup(&setups);

    // Timed: the entry point, repeated on fresh copies of the register.
    let opts = AugmentOptions::default();
    let mut times = Vec::new();
    let mut first: Option<Outcome> = None;
    let began = Instant::now();
    while times.len() < MIN_REPS || began.elapsed() < plan.budget(named) {
        let mut g = reg.graph.clone();
        let (stats, tm) = calib::timed(|| augment(&mut g, &[&cand], &opts));
        times.push(tm);
        rep.attempted += 1;
        let out = outcome(&g, stats.rounds, stats.comparisons, stats.links_added);
        match &first {
            None => first = Some(out),
            Some(f) if *f != out => rep.fail("augment: repeated runs added different links"),
            Some(_) => {}
        }
    }
    let entry = first.expect("at least one augmentation");
    let augment_s = rep.timed_metric("augment_s", &times);

    // Checks, outside the timed region: quality against the generator's
    // ground truth, and the traced re-composition against the entry point.
    let (recall, precision) = quality(&reg, &entry);
    rep.metric("augment_recall", recall, "ratio");
    rep.metric("augment_precision", precision, "ratio");
    if entry.links_added == 0 {
        rep.fail("augment: no links added");
    }

    let mut g = reg.graph.clone();
    let t0 = Instant::now();
    let recomposed = t.span("augment", |t| recompose(&mut g, &cand, &opts, t));
    let traced_s = t0.elapsed().as_secs_f64();
    if recomposed != entry {
        rep.fail("augment: re-composed pipeline differs from vada_link::augment::augment");
    }
    t.count("core.links_added", recomposed.links_added as f64);
    rep.trace_overhead(traced_s, augment_s);
    rep.note(
        "augment",
        format!(
            "rounds={} comparisons={} links_added={} truth_links={} reps={}",
            entry.rounds,
            entry.comparisons,
            entry.links_added,
            reg.truth.links.len(),
            times.len()
        ),
    );
    rep
}

/// Recall and precision of the predicted family links (any class) against
/// the generator's ground truth, as unordered pairs.
fn quality(reg: &Register, out: &Outcome) -> (f64, f64) {
    let unordered = |a: u32, b: u32| (a.min(b), a.max(b));
    let truth: HashSet<(u32, u32)> = reg
        .truth
        .links
        .iter()
        .map(|(a, b, _)| unordered(a.0, b.0))
        .collect();
    let predicted: HashSet<(u32, u32)> =
        out.links.iter().map(|&(_, a, b)| unordered(a, b)).collect();
    let hits = predicted.intersection(&truth).count() as f64;
    (
        hits / truth.len().max(1) as f64,
        hits / predicted.len().max(1) as f64,
    )
}

/// `augment` re-driven through the layers' public functions, one span per
/// layer call. Mirrors the entry point step for step for a single
/// candidate, so its outcome must be identical.
pub fn recompose(
    g: &mut CompanyGraph,
    cand: &PersonLinkCandidate,
    opts: &AugmentOptions,
    t: &mut Tracer,
) -> Outcome {
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let blocker = match opts.block_count {
        Some(k) => FeatureBlocker::with_block_count(k).with_salt(opts.seed),
        None => FeatureBlocker::natural().with_salt(opts.seed),
    };
    let n2v = &opts.node2vec;
    let (mut rounds, mut comparisons, mut links_added) = (0, 0, 0);
    for _ in 0..opts.max_rounds.max(1) {
        rounds += 1;
        t.count("augment.rounds", 1.0);
        let assign: Vec<u32> = if opts.clusters > 1 {
            let csr = t.span("pgraph.csr", |_| g.csr());
            let walks = t.span("embed.walks", |_| {
                generate_walks(
                    &csr,
                    &WalkConfig {
                        walk_length: n2v.walk_length,
                        walks_per_node: n2v.walks_per_node,
                        p: n2v.p,
                        q: n2v.q,
                        seed: n2v.seed,
                        threads: 0,
                    },
                )
            });
            let tokens: usize = walks.iter().map(Vec::len).sum();
            t.count("embed.walk_tokens", tokens as f64);
            let emb = t.span("embed.sgns", |_| {
                train_sgns(
                    csr.node_count(),
                    &walks,
                    &SgnsConfig {
                        dims: n2v.dims,
                        window: n2v.window,
                        negatives: n2v.negatives,
                        epochs: n2v.epochs,
                        learning_rate: n2v.learning_rate,
                        seed: n2v.seed ^ 0x5EED,
                        threads: n2v.threads,
                    },
                )
            });
            t.span("embed.kmeans", |_| {
                kmeans(&emb, opts.clusters, 20, opts.seed)
            })
        } else {
            vec![0; g.node_count()]
        };

        let gref = &*g;
        let pairs = t.span("linkage.block", |t| {
            let mut blocks: HashMap<(u32, u64), Vec<NodeId>> = HashMap::new();
            for n in gref.graph().node_ids() {
                if !cand.applies(gref, n) {
                    continue;
                }
                let mut keys: Vec<u64> = cand
                    .block_keys(gref, n)
                    .into_iter()
                    .map(|k| blocker.block_of(&k))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for key in keys {
                    blocks.entry((assign[n.index()], key)).or_default().push(n);
                }
            }
            t.count("linkage.blocks", blocks.len() as f64);
            let largest = blocks.values().map(Vec::len).max().unwrap_or(0) as f64;
            t.count_max("linkage.max_block", largest);
            let mut keys: Vec<&(u32, u64)> = blocks.keys().collect();
            keys.sort_unstable();
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for key in keys {
                let members = &blocks[key];
                for i in 0..members.len() {
                    for j in i + 1..members.len() {
                        let (a, b) = (members[i], members[j]);
                        if seen.insert((a.0.min(b.0), a.0.max(b.0))) {
                            pairs.push((a, b));
                        }
                    }
                }
            }
            pairs
        });
        comparisons += pairs.len();
        t.count("core.comparisons", pairs.len() as f64);
        let decisions = t.span("core.decide", |_| {
            par::par_map_with(&pairs, opts.threads, 0, |&(a, b)| cand.decide(gref, a, b))
        });
        let mut new_links: Vec<(String, NodeId, NodeId)> = pairs
            .into_iter()
            .zip(decisions)
            .filter_map(|((a, b), class)| class.map(|c| (c, a, b)))
            .collect();
        new_links.sort_unstable();
        let added = t.span("pgraph.add_link", |_| {
            let mut added = 0;
            for (class, a, b) in new_links {
                if g.find_link(&class, a, b).is_none() && g.find_link(&class, b, a).is_none() {
                    g.add_link(&class, a, b);
                    added += 1;
                }
            }
            added
        });
        links_added += added;
        if added == 0 {
            break;
        }
    }
    outcome(g, rounds, comparisons, links_added)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recomposition_is_byte_identical_to_the_entry_point() {
        let (reg, cand) = setup(400, register::REGISTER_SEED, 3);
        let opts = AugmentOptions::default();
        let mut a = reg.graph.clone();
        let stats = augment(&mut a, &[&cand], &opts);
        let entry = outcome(&a, stats.rounds, stats.comparisons, stats.links_added);
        let mut b = reg.graph.clone();
        let mut t = Tracer::new(true);
        let re = t.span("augment", |t| recompose(&mut b, &cand, &opts, t));
        assert!(entry.links_added > 0);
        assert_eq!(re, entry);
        assert_eq!(t.counter("core.comparisons"), entry.comparisons as f64);
        assert_eq!(t.counter("augment.rounds"), entry.rounds as f64);
        // Self times under the root add up to the root's duration.
        let total: f64 = t.self_times().values().sum();
        assert!((total - t.total_s("augment")).abs() < 1e-9);
    }
}
