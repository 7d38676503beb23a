//! The company register every workload runs on.
//!
//! The register's content is one fixed draw of the generator: seed
//! [`REGISTER_SEED`], the seed of every `BENCH_*.json` in the repository.
//! Its cost is heavy-tailed across draws (the close_link fixpoint over
//! 15 000 persons takes 0.9 s on one draw and 2.3 s on another), which
//! would swamp any change under test, so `--seed` does not redraw it.
//! Instead `--seed` permutes the order in which the register's
//! shareholding edges are stored: adjacency lists, random walks, `own`
//! fact order and hash-table layout all change, the ownership structure
//! does not. `--register-seed` redraws the register itself, to show the
//! workloads are not tuned to one draw.

use datalog::Database;
use gen::company::{generate, CompanyGraphConfig, GroundTruth};
use pgraph::{EdgeId, PropertyGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vada_link::model::CompanyGraph;

/// Generator seed of the register (`0xEDB7`).
pub const REGISTER_SEED: u64 = 60855;

pub struct Register {
    pub graph: CompanyGraph,
    pub truth: GroundTruth,
    /// Node symbols (`n<index>`), persons then companies in generation
    /// order: zipf rank 0 is the first person generated.
    pub names: Vec<String>,
    persons: usize,
}

impl Register {
    /// Indices of the companies in [`Register::names`].
    pub fn company_range(&self) -> std::ops::Range<usize> {
        self.persons..self.names.len()
    }
}

/// Generates `persons` persons and `persons / 2` companies from
/// `register_seed`, with shareholding edges stored in an order drawn from
/// `order_seed`.
pub fn build(persons: usize, register_seed: u64, order_seed: u64) -> Register {
    let out = generate(&CompanyGraphConfig {
        persons,
        companies: persons / 2,
        seed: register_seed,
        ..Default::default()
    });
    let names = out
        .persons
        .iter()
        .chain(out.companies.iter())
        .map(|n| format!("n{}", n.index()))
        .collect();
    Register {
        graph: CompanyGraph::new(permute_edges(&out.graph, order_seed)),
        truth: out.truth,
        names,
        persons,
    }
}

/// A copy of `src` with identical node ids and properties whose edges are
/// inserted in a seeded random order.
fn permute_edges(src: &PropertyGraph, seed: u64) -> PropertyGraph {
    let mut g = PropertyGraph::with_capacity(src.node_count(), src.edge_count());
    for n in src.node_ids() {
        let id = g.add_node(src.label_name(src.node_label(n)));
        for (k, v) in src.node_props(n) {
            g.set_node_prop(id, src.key_name(*k), v.clone());
        }
    }
    let mut edges: Vec<EdgeId> = src.edge_ids().collect();
    edges.shuffle(&mut StdRng::seed_from_u64(seed));
    for e in edges {
        let (a, b) = src.endpoints(e);
        let id = g.add_edge(src.label_name(src.edge_label(e)), a, b);
        for (k, v) in src.edge_props(e) {
            g.set_edge_prop(id, src.key_name(*k), v.clone());
        }
    }
    g
}

/// Every relation of `db`, canonically rendered and sorted: two databases
/// with equal canonical states hold the same facts.
pub fn canonical_state(db: &Database) -> Vec<String> {
    let mut preds: Vec<String> = (0..db.pred_count() as u32)
        .map(|p| db.pred_name(p).to_owned())
        .collect();
    preds.sort();
    let mut out = Vec::new();
    for p in preds {
        for row in db.dump_canonical(&p) {
            out.push(format!("{p}({row})"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_seed_permutes_edges_but_keeps_the_register() {
        let a = build(300, REGISTER_SEED, 1);
        let b = build(300, REGISTER_SEED, 2);
        let edges = |r: &Register| {
            let g = r.graph.graph();
            g.edge_ids()
                .map(|e| {
                    let (x, y) = g.endpoints(e);
                    (x, y, format!("{:?}", g.edge_props(e)))
                })
                .collect::<Vec<_>>()
        };
        let (ea, eb) = (edges(&a), edges(&b));
        assert_ne!(ea, eb, "different storage order");
        let sorted = |mut v: Vec<_>| {
            v.sort();
            v
        };
        assert_eq!(sorted(ea.clone()), sorted(eb), "same shareholdings");
        assert_eq!(a.names, b.names);
        assert_eq!(ea, edges(&build(300, REGISTER_SEED, 1)), "deterministic");
    }
}
