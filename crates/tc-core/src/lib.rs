//! # tc-core — the paper's contribution
//!
//! Two things live here:
//!
//! * [`grouptc`] — **GroupTC**, the new algorithm of Section V:
//!   edge-centric, binary-search based, processing *chunks* of
//!   consecutive edges per thread block so every lane always has work,
//!   with the paper's three optimizations (partial 2-hop search,
//!   resume offsets, and search-table flipping), each individually
//!   toggleable for the ablation benches.
//! * [`framework`] — the unified testing framework of Section IV:
//!   dataset preparation pipeline, the algorithm registry (the eight
//!   published implementations plus GroupTC), the evaluation runner that
//!   produces every figure's underlying matrix, and report formatting.

pub mod framework;
pub mod grouptc;
pub mod grouptc_hybrid;

pub use framework::backend::{
    run_matrix_backends, run_matrix_backends_parallel, run_on_dataset_cpu, Backend, CpuBackend,
    SimBackend,
};
pub use framework::conformance::{run_conformance, run_conformance_suite, ConformanceReport};
pub use framework::registry::all_algorithms;
pub use framework::runner::{run_on_dataset, PreparedDataset, RunOutcome, RunRecord};
pub use grouptc::{GroupTc, GroupTcConfig};
pub use grouptc_hybrid::GroupTcHybrid;
