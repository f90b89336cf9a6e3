//! Native host kernels: rayon-parallel CPU analogues of the GPU
//! intersection strategies.
//!
//! Every [`TcAlgorithm`](crate::api::TcAlgorithm) also executes on the
//! host via [`count_cpu`](crate::api::TcAlgorithm::count_cpu), using the
//! same prepared DAG the device kernels consume. The helpers here mirror
//! the four Section II-B intersection primitives, while the *parallel
//! structure* mirrors each algorithm's iterator model: one rayon task
//! per vertex with its out-edges processed inline, which is the standard
//! multicore shape for both vertex- and edge-iterator counters (an edge
//! task list would only add scheduling overhead). Merge and binary
//! search reuse the `graph_data::cpu_ref` oracles per pair. The bitmap
//! and hash kernels keep their tables in per-worker `map_init` scratch
//! instead, so no kernel allocates per vertex or per edge: Bisson and
//! TRUST build `N⁺(u)`'s table once and probe every neighbour's list
//! against it, and H-INDEX keeps `u`'s table for every edge where `u`'s
//! list is the shorter side. `cpu_ref::intersect_hash` stays the oracle
//! the hash tables are tested against.
//!
//! The CPU path deliberately models nothing: no cycles, no profiling
//! counters — it exists to serve real counts at wall-clock speed and to
//! act as a differential twin for the simulator (see
//! `tc_core::framework::backend`).

use graph_data::cpu_ref::{intersect_binsearch, intersect_merge};
use graph_data::DagGraph;
use rayon::prelude::*;

/// Forward counting with the two-pointer merge primitive (Green, Polak):
/// for every DAG edge (u,v), merge-intersect the out-lists of u and v.
pub fn par_edge_merge(dag: &DagGraph) -> u64 {
    let csr = dag.csr();
    (0..csr.num_vertices())
        .into_par_iter()
        .map(|u| {
            csr.neighbors(u)
                .iter()
                .map(|&v| intersect_merge(csr.neighbors(u), csr.neighbors(v)))
                .sum::<u64>()
        })
        .sum()
}

/// Forward counting with the binary-search primitive (TriCore, Hu,
/// GroupTC): each key of the shorter list descends the longer one.
pub fn par_edge_binsearch(dag: &DagGraph) -> u64 {
    let csr = dag.csr();
    (0..csr.num_vertices())
        .into_par_iter()
        .map(|u| {
            csr.neighbors(u)
                .iter()
                .map(|&v| intersect_binsearch(csr.neighbors(u), csr.neighbors(v)))
                .sum::<u64>()
        })
        .sum()
}

/// A chained-bucket hash table over one list of keys, stored flat: a
/// counting sort by bucket lays the keys out so bucket `b`'s chain is
/// `keys[start[b]..start[b + 1]]`. Buckets are `x & mask`, so the count
/// must be a power of two. Rebuilding reuses both arrays: a kernel holds
/// one table per worker and never allocates per vertex or per edge.
#[derive(Debug, Default)]
struct HashTable {
    mask: u32,
    start: Vec<u32>,
    /// The chains, then [`WINDOW`] slots of padding.
    keys: Vec<u32>,
}

/// Chain slots a probe compares at once. Most chains hold 0–3 keys, and
/// a loop that exits on the chain length mispredicts on nearly every
/// probe; a fixed window under a length mask branches only for the rare
/// longer chain.
const WINDOW: usize = 4;

impl HashTable {
    /// Hash `list` into `buckets` chains, replacing the previous contents.
    fn build(&mut self, list: &[u32], buckets: usize) {
        debug_assert!(buckets.is_power_of_two());
        self.mask = buckets as u32 - 1;
        // Counts land two slots up; after the prefix sum `start[b + 1]`
        // is bucket `b`'s write cursor, and scattering leaves it at the
        // chain's end, which is where bucket `b + 1` begins.
        self.start.clear();
        self.start.resize(buckets + 2, 0);
        for &x in list {
            self.start[(x & self.mask) as usize + 2] += 1;
        }
        for b in 2..buckets + 2 {
            self.start[b] += self.start[b - 1];
        }
        self.keys.resize(list.len() + WINDOW, 0);
        for &x in list {
            let cursor = &mut self.start[(x & self.mask) as usize + 1];
            self.keys[*cursor as usize] = x;
            *cursor += 1;
        }
    }

    fn contains(&self, x: u32) -> bool {
        let b = (x & self.mask) as usize;
        let (lo, hi) = (self.start[b] as usize, self.start[b + 1] as usize);
        let window: &[u32; WINDOW] = self.keys[lo..lo + WINDOW]
            .try_into()
            .expect("a window is WINDOW slots long");
        let mut hits = 0u32;
        for (i, &k) in window.iter().enumerate() {
            hits |= u32::from(k == x) << i;
        }
        let live = (1u32 << (hi - lo).min(WINDOW)) - 1;
        hits & live != 0 || (hi - lo > WINDOW && self.keys[lo + WINDOW..hi].contains(&x))
    }

    /// How many keys of `probe` the table holds.
    fn count(&self, probe: &[u32]) -> u64 {
        probe.iter().filter(|&&x| self.contains(x)).count() as u64
    }
}

/// Every hash kernel masks keys into buckets; reject other counts before
/// any worker starts.
fn assert_power_of_two(buckets: usize) {
    assert!(
        buckets.is_power_of_two(),
        "hash bucket count must be a power of two, got {buckets}"
    );
}

/// Per-worker tables of the edge-iterator hash kernels, which follow
/// H-INDEX's rule: the shorter list builds the table, the longer probes
/// it. When `u`'s out-list is the shorter side its table is built once
/// and kept for all of `u`'s edges; a shorter neighbour list is hashed
/// into the second table for its one edge.
#[derive(Debug, Default)]
struct EdgeTables {
    own: HashTable,
    /// The vertex whose list `own` currently holds.
    own_vertex: Option<u32>,
    other: HashTable,
}

impl EdgeTables {
    /// `|N⁺(u) ∩ b|`, where `a` is `N⁺(u)` and `b` a neighbour's list.
    fn intersect(&mut self, u: u32, a: &[u32], b: &[u32], buckets: usize) -> u64 {
        if b.is_empty() {
            return 0;
        }
        if a.len() <= b.len() {
            if self.own_vertex != Some(u) {
                self.own.build(a, buckets);
                self.own_vertex = Some(u);
            }
            self.own.count(b)
        } else {
            self.other.build(b, buckets);
            self.other.count(a)
        }
    }
}

/// Forward counting with the chained-bucket hash primitive (H-INDEX):
/// fixed bucket count (a power of two), shorter list builds the table.
pub fn par_edge_hash(dag: &DagGraph, buckets: usize) -> u64 {
    assert_power_of_two(buckets);
    let csr = dag.csr();
    (0..csr.num_vertices())
        .into_par_iter()
        .map_init(EdgeTables::default, |tables, u| {
            let a = csr.neighbors(u);
            a.iter()
                .map(|&v| tables.intersect(u, a, csr.neighbors(v), buckets))
                .sum::<u64>()
        })
        .sum()
}

/// Vertex-iterator hash counting with a degree-adaptive bucket count
/// (TRUST's warp/block mode switch): `N⁺(u)` is hashed once, into
/// `large_buckets` chains when it exceeds `threshold` entries and into
/// `small_buckets` otherwise, and every neighbour's out-list probes it.
/// Both counts must be powers of two.
pub fn par_vertex_hash(
    dag: &DagGraph,
    threshold: u32,
    small_buckets: usize,
    large_buckets: usize,
) -> u64 {
    assert_power_of_two(small_buckets);
    assert_power_of_two(large_buckets);
    let csr = dag.csr();
    (0..csr.num_vertices())
        .into_par_iter()
        .map_init(HashTable::default, |table, u| {
            let nbrs = csr.neighbors(u);
            if nbrs.is_empty() {
                return 0;
            }
            let buckets = if nbrs.len() as u32 > threshold {
                large_buckets
            } else {
                small_buckets
            };
            table.build(nbrs, buckets);
            nbrs.iter()
                .map(|&v| table.count(csr.neighbors(v)))
                .sum::<u64>()
        })
        .sum()
}

/// Vertex-iterator bitmap counting (Bisson): each worker thread owns one
/// bitmap spanning the vertex-ID space, marks N⁺(u) once, probes every
/// neighbour's out-list against it, then clears only the set bits —
/// exactly the build/probe/clear cycle of the GPU kernel, with rayon's
/// `map_init` standing in for the per-block bitmap arena slot.
pub fn par_vertex_bitmap(dag: &DagGraph) -> u64 {
    let csr = dag.csr();
    let words = (csr.num_vertices() as usize).div_ceil(32).max(1);
    (0..csr.num_vertices())
        .into_par_iter()
        .map_init(
            || vec![0u32; words],
            |bits, u| {
                let nbrs = csr.neighbors(u);
                for &x in nbrs {
                    bits[x as usize / 32] |= 1 << (x % 32);
                }
                let mut local = 0u64;
                for &v in nbrs {
                    for &w in csr.neighbors(v) {
                        local += u64::from(bits[w as usize / 32] >> (w % 32) & 1);
                    }
                }
                for &x in nbrs {
                    bits[x as usize / 32] &= !(1 << (x % 32));
                }
                local
            },
        )
        .sum()
}

/// Per-edge adaptive counting (Fox): pick merge or binary search per
/// edge by the cheaper estimated workload, using the same estimators as
/// the GPU binning prepass.
pub fn par_edge_adaptive(dag: &DagGraph) -> u64 {
    let csr = dag.csr();
    (0..csr.num_vertices())
        .into_par_iter()
        .map(|u| {
            let a = csr.neighbors(u);
            csr.neighbors(u)
                .iter()
                .map(|&v| {
                    let b = csr.neighbors(v);
                    let (du, dv) = (a.len() as u32, b.len() as u32);
                    let small = du.min(dv) as u64;
                    let large = u64::from(du.max(dv).max(1));
                    let bsearch = small * (64 - large.leading_zeros() as u64);
                    let merge = du as u64 + dv as u64;
                    if bsearch < merge {
                        intersect_binsearch(a, b)
                    } else {
                        intersect_merge(a, b)
                    }
                })
                .sum::<u64>()
        })
        .sum()
}

/// Per-edge hash/binary-search routing (GroupTC-H): with the shorter
/// out-list as keys and the longer as the search table (the same
/// flipping rule as the device split), an edge whose table has at least
/// `table_min` entries probed by at least `keys_min` keys intersects
/// through H-INDEX's chained hash (shorter side builds, in the same
/// per-worker tables); everything else binary-searches.
pub fn par_edge_adaptive_hash(
    dag: &DagGraph,
    table_min: u32,
    keys_min: u32,
    buckets: usize,
) -> u64 {
    assert_power_of_two(buckets);
    let csr = dag.csr();
    (0..csr.num_vertices())
        .into_par_iter()
        .map_init(EdgeTables::default, |tables, u| {
            let a = csr.neighbors(u);
            a.iter()
                .map(|&v| {
                    let b = csr.neighbors(v);
                    let keys = a.len().min(b.len()) as u32;
                    let table = a.len().max(b.len()) as u32;
                    if table >= table_min && keys >= keys_min {
                        tables.intersect(u, a, b, buckets)
                    } else {
                        intersect_binsearch(a, b)
                    }
                })
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_data::{clean_edges, cpu_ref, gen, orient, EdgeList, Orientation};

    const ORIENTATIONS: [Orientation; 5] = [
        Orientation::ById,
        Orientation::DegreeAsc,
        Orientation::DegreeDesc,
        Orientation::KCore,
        Orientation::Random(7),
    ];

    /// Every kernel, under every orientation and a spread of bucket
    /// counts, equals the node-iterator oracle. One bucket chains every
    /// key together, so probes run past the window; a zero threshold
    /// sends every TRUST vertex to the large table.
    fn assert_all_kernels_match_oracle(label: &str, edges: &EdgeList) {
        let (g, _) = clean_edges(edges);
        let expected = cpu_ref::node_iterator(&g);
        for o in ORIENTATIONS {
            let dag = orient(&g, o);
            assert_eq!(par_edge_merge(&dag), expected, "{label} merge {o:?}");
            assert_eq!(par_edge_binsearch(&dag), expected, "{label} bin {o:?}");
            assert_eq!(par_vertex_bitmap(&dag), expected, "{label} bitmap {o:?}");
            assert_eq!(par_edge_adaptive(&dag), expected, "{label} adaptive {o:?}");
            for buckets in [1, 2, 32, 256] {
                assert_eq!(
                    par_edge_hash(&dag, buckets),
                    expected,
                    "{label} hash/{buckets} {o:?}"
                );
                assert_eq!(
                    par_edge_adaptive_hash(&dag, 16, 4, buckets),
                    expected,
                    "{label} ahash/{buckets} {o:?}"
                );
            }
            for (threshold, small, large) in [(100, 32, 1024), (0, 1, 1), (8, 1, 2), (4, 2, 64)] {
                assert_eq!(
                    par_vertex_hash(&dag, threshold, small, large),
                    expected,
                    "{label} vhash/{threshold}/{small}/{large} {o:?}"
                );
            }
        }
    }

    #[test]
    fn all_host_kernels_agree_with_the_oracle_on_hub_heavy_rmat() {
        // Skewed quadrants give hubs of several hundred neighbours, so
        // out-lists cross TRUST's 100-entry threshold under most orders.
        let edges = gen::rmat(9, 6000, 0.65, 0.15, 0.15, 0.05, 31);
        let (g, _) = clean_edges(&edges);
        assert!(orient(&g, Orientation::ById).max_out_degree() > 100);
        assert_all_kernels_match_oracle("rmat", &edges);
    }

    #[test]
    fn all_host_kernels_agree_with_the_oracle_on_ba() {
        assert_all_kernels_match_oracle("ba", &gen::barabasi_albert(300, 6, 0.5, 33));
    }

    #[test]
    fn all_host_kernels_agree_with_the_oracle_on_er() {
        assert_all_kernels_match_oracle("er", &gen::erdos_renyi(150, 900, 32));
    }

    #[test]
    fn hash_table_finds_exactly_its_keys() {
        let keys = [0, 3, 5, 8, 11, 16, 19, 24, 32, 40, 64, 65];
        for buckets in [1, 2, 4, 8, 1024] {
            let mut table = HashTable::default();
            // A longer list first: a rebuild must forget it.
            table.build(&(0..100).collect::<Vec<_>>(), buckets);
            table.build(&keys, buckets);
            for x in 0..70 {
                assert_eq!(table.contains(x), keys.contains(&x), "{x} in {buckets}");
            }
        }
        let mut empty = HashTable::default();
        empty.build(&[], 32);
        assert_eq!(empty.count(&[0, 1, 2]), 0);
    }

    #[test]
    fn edge_tables_hash_the_shorter_side_and_cache_u() {
        let short = [3, 9];
        let mut tables = EdgeTables::default();
        // u's list is the shorter side: its table is built once and
        // serves every such edge of u; the per-edge table stays unused.
        for b in [&[2, 3, 4, 5, 9, 40][..], &[1, 9, 10]] {
            let want = cpu_ref::intersect_hash(&short, b, 2);
            assert_eq!(tables.intersect(0, &short, b, 2), want);
        }
        assert_eq!(tables.own_vertex, Some(0));
        assert!(tables.other.keys.is_empty());
        // v's list is the shorter side: it is hashed for its edge alone,
        // and u's cached table survives for u's later edges.
        assert_eq!(tables.intersect(0, &short, &[3], 2), 1);
        assert_eq!(tables.other.keys[0], 3);
        assert_eq!(tables.intersect(0, &short, &[2, 9, 12], 2), 1);
        assert_eq!(tables.own_vertex, Some(0));
        // The next vertex replaces the cache.
        assert_eq!(tables.intersect(1, &[4, 9], &[4, 5, 9], 2), 2);
        assert_eq!(tables.own_vertex, Some(1));
    }

    #[test]
    fn h_index_counts_through_both_table_paths() {
        // Under ById, N⁺(0) = {1, 2} is shorter than N⁺(1) = {2, 3, 4, 5}:
        // u's cached table serves edge (0, 1).
        let u_short = EdgeList::new(vec![(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3)]);
        // N⁺(0) = {1, 2, 3, 4} is longer than N⁺(1) = {2, 3}: edge (0, 1)
        // hashes v's list instead.
        let v_short = EdgeList::new(vec![(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)]);
        for (label, edges, triangles) in [("u shorter", u_short, 2), ("v shorter", v_short, 4)] {
            let (g, _) = clean_edges(&edges);
            let dag = orient(&g, Orientation::ById);
            assert_eq!(cpu_ref::node_iterator(&g), triangles, "{label}");
            for buckets in [1, 32] {
                assert_eq!(par_edge_hash(&dag, buckets), triangles, "{label}/{buckets}");
            }
        }
    }

    #[test]
    fn non_power_of_two_bucket_counts_are_rejected() {
        let (g, _) = clean_edges(&gen::erdos_renyi(20, 60, 1));
        let dag = orient(&g, Orientation::ById);
        let kernels: [&(dyn Fn() -> u64 + std::panic::RefUnwindSafe); 4] = [
            &|| par_edge_hash(&dag, 24),
            &|| par_edge_adaptive_hash(&dag, 16, 4, 0),
            &|| par_vertex_hash(&dag, 100, 32, 1000),
            &|| par_vertex_hash(&dag, 100, 3, 1024),
        ];
        for kernel in kernels {
            let err = std::panic::catch_unwind(kernel).expect_err("must panic");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(
                msg.starts_with("hash bucket count must be a power of two, got "),
                "{msg}"
            );
        }
    }

    #[test]
    fn empty_graph_counts_zero_on_every_kernel() {
        let (g, _) = clean_edges(&EdgeList::new(vec![(0, 1)]));
        let dag = orient(&g, Orientation::ById);
        assert_eq!(par_edge_merge(&dag), 0);
        assert_eq!(par_edge_binsearch(&dag), 0);
        assert_eq!(par_edge_hash(&dag, 32), 0);
        assert_eq!(par_vertex_hash(&dag, 100, 32, 1024), 0);
        assert_eq!(par_vertex_bitmap(&dag), 0);
        assert_eq!(par_edge_adaptive(&dag), 0);
        assert_eq!(par_edge_adaptive_hash(&dag, 16, 4, 32), 0);
    }
}
