//! # bench — experiment harness for the paper's evaluation (Section 6)
//!
//! Each experiment of the paper has a function here that generates the
//! workload, runs the system and returns the series the paper plots:
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Section 2 dataset statistics | [`experiments::exp_t1`] |
//! | Figure 4(a) — time vs nodes, real-world-like | [`experiments::exp_fig4a`] |
//! | Figure 4(b) — time vs nodes, dense synthetic | [`experiments::exp_fig4b`] |
//! | Figure 4(c) — time vs cluster count | [`experiments::exp_fig4c`] |
//! | Figure 4(d) — time vs density | [`experiments::exp_fig4d`] |
//! | Figure 4(e) — recall vs cluster count | [`experiments::exp_fig4e`] |
//! | Ablations (DESIGN.md) | [`experiments::exp_ablations`] |
//!
//! The `repro` binary drives them from the command line; the Criterion
//! benches in `benches/` wrap representative points of each series.
//!
//! The engine's own measurements live in one `<x>_bench` module per
//! `BENCH_<x>.json` artifact, each declaring its format as an
//! [`artifact::Schema`] that the one writer and validator in [`artifact`]
//! read; [`workload`] holds the graph, programs and identity lenses they
//! share.

pub mod artifact;
pub mod compile_bench;
pub mod datalog_bench;
pub mod experiments;
pub mod incr_bench;
pub mod magic_bench;
pub mod serve_bench;
pub mod store_bench;
pub mod synth;
pub mod workload;
