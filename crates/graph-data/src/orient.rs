//! DAG orientations.
//!
//! All intersection-based counters first orient the undirected graph into
//! a DAG so that each triangle `{a, b, c}` is discovered exactly once.
//! After relabeling, every directed edge `(u, v)` satisfies `u < v` — the
//! "popular format" GroupTC's first optimization relies on (Section V).
//!
//! Two orderings matter in the paper's corpus:
//! * **ById** — keep the input order (Polak's baseline behaviour).
//! * **DegreeAsc** — relabel so vertex IDs increase with degree and
//!   orient each edge toward the higher-degree endpoint. This bounds
//!   out-degrees by O(sqrt(E)) on real graphs and is what the optimized
//!   implementations (TriCore, TRUST, GroupTC) preprocess with.
//! * **DegreeDesc** — the reverse ordering, kept for ablations.

use crate::types::{materialize_csr, Csr, CsrAccess, UndirGraph, VertexId};

/// Vertex-ordering rule used to build the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// Orient edge (u,v) from min ID to max ID, no relabeling.
    ById,
    /// Relabel by ascending degree (ties by old ID), then orient by ID.
    #[default]
    DegreeAsc,
    /// Relabel by descending degree (ties by old ID), then orient by ID.
    DegreeDesc,
    /// Relabel by degeneracy (k-core peeling) order: out-degrees are
    /// bounded by the graph's degeneracy.
    KCore,
    /// Random relabeling from the given seed — the worst-case baseline
    /// the pre-processing literature compares against.
    Random(u64),
}

/// The oriented graph handed to the GPU algorithms: out-CSR where every
/// edge goes from a smaller to a larger (new) vertex ID, plus the edge
/// array used by edge-centric kernels.
#[derive(Debug, Clone)]
pub struct DagGraph {
    csr: Csr,
    /// `new_to_old[new_id] = old_id` in the cleaned graph.
    new_to_old: Vec<VertexId>,
    orientation: Orientation,
}

impl DagGraph {
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    pub fn orientation(&self) -> Orientation {
        self.orientation
    }

    pub fn num_vertices(&self) -> u32 {
        self.csr.num_vertices()
    }

    /// Number of directed DAG edges (= undirected edges of the input).
    pub fn num_edges(&self) -> u64 {
        self.csr.num_entries()
    }

    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.csr.degree(v)
    }

    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Map a relabeled vertex back to its ID in the cleaned graph.
    pub fn old_id(&self, new_id: VertexId) -> VertexId {
        self.new_to_old[new_id as usize]
    }

    /// Maximum out-degree (drives hash-table and bin sizing decisions).
    pub fn max_out_degree(&self) -> u32 {
        self.csr.max_degree()
    }

    /// Flat (src, dst) arrays for edge-centric kernels, in CSR order so
    /// consecutive edges share sources — the locality GroupTC exploits.
    pub fn edge_arrays(&self) -> (Vec<VertexId>, Vec<VertexId>) {
        let mut src = Vec::with_capacity(self.num_edges() as usize);
        let mut dst = Vec::with_capacity(self.num_edges() as usize);
        for (u, v) in self.csr.edge_iter() {
            src.push(u);
            dst.push(v);
        }
        (src, dst)
    }
}

/// Orient a cleaned undirected graph into a DAG under the given rule.
pub fn orient(g: &UndirGraph, orientation: Orientation) -> DagGraph {
    match orientation {
        // KCore peels the resident graph directly; the generic path
        // below would materialize a second copy first.
        Orientation::KCore => orient_with_order(
            g.csr(),
            crate::kcore::core_decomposition(g).order,
            orientation,
        ),
        _ => orient_access(g.csr(), orientation),
    }
}

/// [`orient`] over any [`CsrAccess`] — the entry point for out-of-core
/// graphs ([`crate::chunked::ChunkedCsr`]), which stream through the
/// same ordering and DAG construction as resident ones. `KCore` is the
/// one rule that needs the whole graph resident (degeneracy peeling
/// mutates degrees globally), so it materializes a temporary copy.
pub fn orient_access<A: CsrAccess + ?Sized>(g: &A, orientation: Orientation) -> DagGraph {
    // order[new id] = old id.
    let order: Vec<VertexId> = match orientation {
        Orientation::ById => (0..g.num_vertices()).collect(),
        Orientation::DegreeAsc => degree_order(g, false),
        Orientation::DegreeDesc => degree_order(g, true),
        Orientation::KCore => {
            let und = UndirGraph::from_csr(materialize_csr(g));
            crate::kcore::core_decomposition(&und).order
        }
        Orientation::Random(seed) => random_order(g.num_vertices(), seed),
    };
    orient_with_order(g, order, orientation)
}

/// Fisher–Yates shuffle of `0..n` with a splitmix-style generator (no
/// rand dependency needed for a baseline shuffle).
fn random_order(n: u32, seed: u64) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = (0..n).collect();
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in (1..n as usize).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Vertices sorted by degree (ascending, or descending when
/// `descending`), ties by ascending ID: a stable counting sort over the
/// degree histogram, which yields exactly the `(degree, id)` comparison
/// order because vertices are placed into their buckets in ID order.
fn degree_order<A: CsrAccess + ?Sized>(g: &A, descending: bool) -> Vec<VertexId> {
    let n = g.num_vertices();
    let deg: Vec<u32> = (0..n).map(|v| g.degree(v)).collect();
    let max = deg.iter().copied().max().unwrap_or(0);
    // `bucket(d)` is d's rank in the requested degree order.
    let bucket = |d: u32| (if descending { max - d } else { d }) as usize;
    let mut start = vec![0u32; max as usize + 2];
    for &d in &deg {
        start[bucket(d) + 1] += 1;
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut order = vec![0; n as usize];
    for (v, &d) in (0..n).zip(&deg) {
        let slot = &mut start[bucket(d)];
        order[*slot as usize] = v;
        *slot += 1;
    }
    order
}

/// Relabel `g` by `order` (`order[new_id] = old_id`) and keep each edge
/// pointing from the smaller to the larger new ID. Builds the CSR in
/// place in two passes over the adjacency: count every vertex's
/// out-degree, prefix-sum the counts into offsets, then scatter each
/// edge into its source's slot and sort each slice.
fn orient_with_order<A: CsrAccess + ?Sized>(
    g: &A,
    order: Vec<VertexId>,
    orientation: Orientation,
) -> DagGraph {
    let n = g.num_vertices() as usize;
    let mut rank = vec![0u32; n];
    for (new_id, &old) in order.iter().enumerate() {
        rank[old as usize] = new_id as u32;
    }

    // Pass 1: out-degree of every new vertex.
    let mut cursor = vec![0u32; n];
    for old_u in 0..n as u32 {
        let nu = rank[old_u as usize];
        let mut out = 0u32;
        g.for_each_neighbor(old_u, &mut |old_v| {
            out += u32::from(nu < rank[old_v as usize])
        });
        cursor[nu as usize] = out;
    }
    // Prefix sum; `cursor` becomes each list's next free slot.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut total = 0u32;
    for c in &mut cursor {
        let start = total;
        total = total
            .checked_add(*c)
            .expect("graph exceeds u32 edge-offset space");
        offsets.push(total);
        *c = start;
    }

    // Pass 2: scatter, then sort each list.
    let mut targets = vec![0; total as usize];
    for old_u in 0..n as u32 {
        let nu = rank[old_u as usize];
        let slot = &mut cursor[nu as usize];
        g.for_each_neighbor(old_u, &mut |old_v| {
            let nv = rank[old_v as usize];
            if nu < nv {
                targets[*slot as usize] = nv;
                *slot += 1;
            }
        });
    }
    for w in offsets.windows(2) {
        targets[w[0] as usize..w[1] as usize].sort_unstable();
    }
    DagGraph {
        csr: Csr::from_parts(offsets, targets),
        new_to_old: order,
        orientation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clean_edges;
    use crate::types::EdgeList;

    fn star_plus_triangle() -> UndirGraph {
        // Vertex 0 is a hub (degree 5); triangle 1-2-3.
        let raw = EdgeList::new(vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (2, 3),
            (1, 3),
        ]);
        clean_edges(&raw).0
    }

    const ALL: [Orientation; 5] = [
        Orientation::ById,
        Orientation::DegreeAsc,
        Orientation::DegreeDesc,
        Orientation::KCore,
        Orientation::Random(42),
    ];

    #[test]
    fn edge_count_preserved() {
        let g = star_plus_triangle();
        for o in ALL {
            let d = orient(&g, o);
            assert_eq!(d.num_edges(), g.num_edges(), "{o:?}");
            assert_eq!(d.num_vertices(), g.num_vertices());
        }
    }

    #[test]
    fn all_edges_point_up() {
        let g = star_plus_triangle();
        for o in ALL {
            let d = orient(&g, o);
            for (u, v) in d.csr().edge_iter() {
                assert!(u < v, "{o:?}: edge ({u},{v}) not ascending");
            }
        }
    }

    #[test]
    fn kcore_orientation_bounds_out_degree_by_degeneracy() {
        let raw = crate::gen::barabasi_albert(800, 4, 0.5, 12);
        let (g, _) = clean_edges(&raw);
        let degeneracy = crate::kcore::core_decomposition(&g).degeneracy;
        let d = orient(&g, Orientation::KCore);
        assert!(
            d.max_out_degree() <= degeneracy,
            "max out-degree {} exceeds degeneracy {degeneracy}",
            d.max_out_degree()
        );
        assert_eq!(crate::cpu_ref::forward_merge(&d), {
            let asc = orient(&g, Orientation::DegreeAsc);
            crate::cpu_ref::forward_merge(&asc)
        });
    }

    #[test]
    fn random_orientation_is_seed_deterministic() {
        let g = star_plus_triangle();
        let a = orient(&g, Orientation::Random(7));
        let b = orient(&g, Orientation::Random(7));
        assert_eq!(a.csr(), b.csr());
        let c = orient(&g, Orientation::Random(8));
        // Different seed almost surely shuffles differently.
        assert_ne!(
            (0..g.num_vertices())
                .map(|v| a.old_id(v))
                .collect::<Vec<_>>(),
            (0..g.num_vertices())
                .map(|v| c.old_id(v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn degree_asc_puts_hub_last() {
        let g = star_plus_triangle();
        let d = orient(&g, Orientation::DegreeAsc);
        // The hub (old 0, degree 5) must get the largest new ID, hence
        // out-degree 0.
        let hub_new = (0..d.num_vertices()).find(|&v| d.old_id(v) == 0).unwrap();
        assert_eq!(hub_new, d.num_vertices() - 1);
        assert_eq!(d.out_degree(hub_new), 0);
    }

    #[test]
    fn degree_desc_puts_hub_first() {
        let g = star_plus_triangle();
        let d = orient(&g, Orientation::DegreeDesc);
        let hub_new = (0..d.num_vertices()).find(|&v| d.old_id(v) == 0).unwrap();
        assert_eq!(hub_new, 0);
        assert_eq!(d.out_degree(hub_new), 5);
    }

    #[test]
    fn orientation_preserves_triangle_count() {
        let g = star_plus_triangle();
        let expected = crate::cpu_ref::node_iterator(&g);
        for o in ALL {
            let d = orient(&g, o);
            assert_eq!(crate::cpu_ref::forward_merge(&d), expected, "{o:?}");
        }
    }

    /// The builder this module used before the flat two-pass one: a
    /// comparison sort for the degree orders, one `Vec` per vertex, each
    /// sorted, then copied into a `Csr`. Kept as the oracle the flat
    /// builder must match byte for byte.
    fn oracle<A: CsrAccess + ?Sized>(g: &A, o: Orientation) -> (Csr, Vec<VertexId>) {
        let n = g.num_vertices() as usize;
        let mut order: Vec<VertexId> = (0..n as u32).collect();
        match o {
            Orientation::ById => {}
            Orientation::DegreeAsc => order.sort_by_key(|&v| (g.degree(v), v)),
            Orientation::DegreeDesc => order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v)),
            Orientation::KCore => {
                let und = UndirGraph::from_csr(materialize_csr(g));
                order = crate::kcore::core_decomposition(&und).order;
            }
            Orientation::Random(seed) => order = random_order(n as u32, seed),
        }
        let mut rank = vec![0u32; n];
        for (new_id, &old) in order.iter().enumerate() {
            rank[old as usize] = new_id as u32;
        }
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for old_u in 0..n as u32 {
            let nu = rank[old_u as usize];
            g.for_each_neighbor(old_u, &mut |old_v| {
                let nv = rank[old_v as usize];
                if nu < nv {
                    adj[nu as usize].push(nv);
                }
            });
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        (Csr::from_adjacency(&adj), order)
    }

    fn assert_matches_oracle<A: CsrAccess + ?Sized>(g: &A, what: &str) {
        for o in ALL {
            let d = orient_access(g, o);
            let (csr, order) = oracle(g, o);
            assert_eq!(d.csr(), &csr, "{what} {o:?}: CSR differs");
            assert_eq!(d.new_to_old, order, "{what} {o:?}: relabeling differs");
            assert_eq!(d.orientation(), o);
        }
    }

    /// Graphs with the shapes the builder must get right: seeded
    /// generator output of each skew family, no vertices, vertices with
    /// no edges, and one hub adjacent to everything.
    fn oracle_fixtures() -> Vec<(&'static str, UndirGraph)> {
        let isolated = {
            // 0-3, 3-6, 0-6 triangle; 1, 2, 4, 5, 7 have no edges.
            let adj: Vec<Vec<VertexId>> = (0..8u32)
                .map(|v| match v {
                    0 => vec![3, 6],
                    3 => vec![0, 6],
                    6 => vec![0, 3],
                    _ => vec![],
                })
                .collect();
            UndirGraph::from_csr(Csr::from_adjacency(&adj))
        };
        let star = {
            let raw = EdgeList::new((1..300).map(|leaf| (leaf, 0)).collect());
            clean_edges(&raw).0
        };
        vec![
            ("er", clean_edges(&crate::gen::erdos_renyi(600, 4000, 3)).0),
            (
                "rmat",
                clean_edges(&crate::gen::rmat(11, 12_000, 0.57, 0.19, 0.19, 0.05, 5)).0,
            ),
            (
                "ba",
                clean_edges(&crate::gen::barabasi_albert(700, 5, 0.6, 9)).0,
            ),
            (
                "empty",
                UndirGraph::from_csr(Csr::from_parts(vec![0], vec![])),
            ),
            ("isolated", isolated),
            ("star", star),
        ]
    }

    #[test]
    fn flat_builder_matches_vec_of_vecs_oracle() {
        for (what, g) in oracle_fixtures() {
            assert_matches_oracle(g.csr(), what);
            // `orient` (the resident entry point, KCore peeling in place)
            // agrees with the generic path.
            for o in ALL {
                let (csr, order) = oracle(g.csr(), o);
                let d = orient(&g, o);
                assert_eq!((d.csr(), &d.new_to_old), (&csr, &order), "{what} {o:?}");
            }
        }
    }

    #[test]
    fn flat_builder_matches_oracle_through_chunked_csr() {
        use crate::chunked::{ChunkCacheConfig, ChunkedCsr};
        let cfg = ChunkCacheConfig {
            chunk_words: 16,
            max_resident: 3,
            pinned_chunks: 1,
        };
        for (what, g) in oracle_fixtures() {
            let path = std::env::temp_dir().join(format!(
                "tc-compare-orient-oracle-{}-{what}.csr",
                std::process::id()
            ));
            let chunked = ChunkedCsr::spill_with(g.csr(), &path, cfg).unwrap();
            assert_matches_oracle(&chunked, what);
            // The builder's output does not depend on where the graph
            // lives.
            for o in ALL {
                assert_eq!(
                    orient_access(&chunked, o).csr(),
                    orient(&g, o).csr(),
                    "{what} {o:?}"
                );
            }
            if g.csr().num_entries() > 64 {
                assert!(
                    chunked.cache_stats().evictions > 0,
                    "{what}: a 3-chunk cache must page"
                );
            }
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn edge_arrays_match_csr_order() {
        let g = star_plus_triangle();
        let d = orient(&g, Orientation::ById);
        let (src, dst) = d.edge_arrays();
        assert_eq!(src.len() as u64, d.num_edges());
        let from_iter: Vec<_> = d.csr().edge_iter().collect();
        let from_arrays: Vec<_> = src.into_iter().zip(dst).collect();
        assert_eq!(from_iter, from_arrays);
    }
}
