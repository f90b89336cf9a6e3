//! # graph-data — graph substrate for the TC-Compare reproduction
//!
//! Everything the paper's evaluation framework needs around the GPU
//! kernels themselves:
//!
//! * [`types`] — CSR storage, the cleaned undirected graph type, and the
//!   [`types::CsrAccess`] trait the pipeline is generic over.
//! * [`chunked`] — out-of-core CSR: arrays spilled to a versioned file
//!   and served through a bounded LRU chunk cache.
//! * [`clean`] — the paper's data-cleaning pipeline (drop self-loops,
//!   duplicate edges and isolated vertices; Section IV "Datasets").
//! * [`orient`](mod@orient) — DAG orientations (by ID, by degree) used by the
//!   intersection-based counters so each triangle is found exactly once.
//! * [`io`] — SNAP text and binary edge-list formats plus auto-detection
//!   (the paper's "data transformation tools").
//! * [`gen`] — synthetic graph generators (RMAT, Barabási–Albert with
//!   triad formation, Erdős–Rényi, 2-D road grids, Watts–Strogatz).
//! * [`datasets`] — the 19-dataset registry mirroring Table II with
//!   scaled-down synthetic stand-ins.
//! * [`cpu_ref`] — exact CPU triangle counters (merge, binary-search,
//!   hash, bitmap, node-iterator, matrix-multiplication and
//!   subgraph-matching baselines) used as ground truth.

pub mod chunked;
pub mod clean;
pub mod cpu_ref;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod kcore;
pub mod orient;
pub mod stats;
pub mod types;

pub use chunked::{ChunkCacheConfig, ChunkCacheStats, ChunkedCsr};
pub use clean::{clean_edges, CleanReport};
pub use datasets::{DatasetSpec, SizeClass, TABLE2_DATASETS};
pub use kcore::{core_decomposition, CoreDecomposition};
pub use orient::{orient, orient_access, DagGraph, Orientation};
pub use stats::GraphStats;
pub use types::{materialize_csr, Csr, CsrAccess, EdgeList, UndirGraph, VertexId};
