//! The paper's data-cleaning pipeline (Section IV, "Datasets"):
//! *"removing vertices that are not connected to any edges, eliminating
//! self-loop edges, and resolving duplicate edges within the graph. It is
//! important to note that these transformations do not alter the number
//! of triangles within the graph."*

use crate::types::{Csr, EdgeList, UndirGraph};

/// What cleaning removed — reported by the framework's dataset pipeline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CleanReport {
    pub input_edges: u64,
    pub removed_self_loops: u64,
    /// Duplicate undirected edges removed (counting reverse-direction
    /// repeats of an already-seen edge as duplicates).
    pub removed_duplicates: u64,
    pub removed_isolated_vertices: u64,
    pub final_vertices: u32,
    pub final_edges: u64,
}

/// Clean a raw edge list into a simple undirected graph:
/// drop self-loops, merge duplicate/reverse-duplicate edges, drop
/// isolated vertices (compacting IDs while preserving relative order).
pub fn clean_edges(raw: &EdgeList) -> (UndirGraph, CleanReport) {
    let mut report = CleanReport {
        input_edges: raw.len() as u64,
        ..Default::default()
    };

    // Normalize each edge to a `min << 32 | max` key, dropping
    // self-loops: sorting the keys as integers sorts the `(min, max)`
    // pairs lexicographically.
    let mut keys: Vec<u64> = Vec::with_capacity(raw.len());
    for &(u, v) in &raw.edges {
        if u == v {
            report.removed_self_loops += 1;
        } else {
            keys.push(u64::from(u.min(v)) << 32 | u64::from(u.max(v)));
        }
    }
    keys.sort_unstable();
    let before = keys.len();
    keys.dedup();
    report.removed_duplicates = (before - keys.len()) as u64;
    let pair = |k: u64| ((k >> 32) as usize, k as u32 as usize);

    // Compact vertex IDs: keep only endpoints of surviving edges.
    let id_space = raw.id_space() as usize;
    let mut used = vec![false; id_space];
    for &k in &keys {
        let (u, v) = pair(k);
        used[u] = true;
        used[v] = true;
    }
    let mut remap = vec![u32::MAX; id_space];
    let mut next = 0u32;
    for (old, &u) in used.iter().enumerate() {
        if u {
            remap[old] = next;
            next += 1;
        }
    }
    report.removed_isolated_vertices = (id_space as u64).saturating_sub(next as u64);
    report.final_vertices = next;
    report.final_edges = keys.len() as u64;

    // Build symmetric adjacency.
    let n = next as usize;
    let mut deg = vec![0u32; n];
    for &k in &keys {
        let (u, v) = pair(k);
        deg[remap[u] as usize] += 1;
        deg[remap[v] as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut acc = 0u32;
    for &d in &deg {
        acc += d;
        offsets.push(acc);
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; acc as usize];
    for &k in &keys {
        let (u, v) = pair(k);
        let (nu, nv) = (remap[u], remap[v]);
        targets[cursor[nu as usize] as usize] = nv;
        cursor[nu as usize] += 1;
        targets[cursor[nv as usize] as usize] = nu;
        cursor[nv as usize] += 1;
    }
    // Every list comes out strictly ascending without a sort: the pairs
    // are sorted and deduplicated with `u < v`, so vertex `x` first
    // receives its lower neighbours (from pairs `(u, x)`, ascending in
    // `u`), then its higher ones (from pairs `(x, v)`, ascending in `v`),
    // and the remap is monotone.
    debug_assert!(
        (0..n).all(|v| targets[offsets[v] as usize..offsets[v + 1] as usize]
            .windows(2)
            .all(|w| w[0] < w[1])),
        "cleaned neighbour lists must be strictly ascending"
    );

    let g = UndirGraph::from_csr(Csr::from_parts(offsets, targets));
    (g, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::VertexId;

    #[test]
    fn removes_self_loops_and_duplicates() {
        let raw = EdgeList::new(vec![(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        let (g, r) = clean_edges(&raw);
        assert_eq!(r.removed_self_loops, 1);
        assert_eq!(r.removed_duplicates, 2);
        assert_eq!(r.final_edges, 2);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn compacts_isolated_vertices_preserving_order() {
        // Vertices 0 and 3 unused; 1-5 and 5-7 edges.
        let raw = EdgeList::new(vec![(1, 5), (5, 7)]);
        let (g, r) = clean_edges(&raw);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(r.removed_isolated_vertices, 8 - 3);
        // 1 -> 0, 5 -> 1, 7 -> 2.
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn cleaning_preserves_triangles() {
        // Triangle 2-4-6 with noise.
        let raw = EdgeList::new(vec![(2, 4), (4, 2), (4, 6), (6, 2), (2, 2), (6, 2), (9, 2)]);
        let (g, _) = clean_edges(&raw);
        assert_eq!(crate::cpu_ref::node_iterator(&g), 1);
    }

    #[test]
    fn empty_input() {
        let (g, r) = clean_edges(&EdgeList::default());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(r.final_edges, 0);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let raw = EdgeList::new(vec![(5, 0), (5, 3), (5, 1), (5, 4), (5, 2)]);
        let (g, _) = clean_edges(&raw);
        // Vertex 5 remaps to 5 (all of 0..=5 used).
        let star_center = 5;
        let n = g.neighbors(star_center);
        assert!(n.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(n.len(), 5);

        // Many edges in random order, each given in both directions and
        // some repeated, with gaps in the ID space: every list must still
        // come out strictly ascending, equal to a sort-and-dedup oracle.
        let mut edges = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (u, v) = ((state % 97) as u32 * 3, ((state >> 32) % 97) as u32 * 3);
            edges.push((u, v));
            edges.push((v, u));
            if state.is_multiple_of(3) {
                edges.push((v, u));
            }
        }
        let (g, r) = clean_edges(&EdgeList::new(edges.clone()));
        let mut expected: Vec<Vec<VertexId>> = vec![Vec::new(); 97];
        for &(u, v) in &edges {
            if u != v {
                expected[u as usize / 3].push(v / 3);
            }
        }
        for list in &mut expected {
            list.sort_unstable();
            list.dedup();
        }
        assert_eq!(r.removed_isolated_vertices, 3 * 96 + 1 - 97);
        assert_eq!(g.num_vertices(), 97);
        for v in 0..g.num_vertices() {
            assert_eq!(g.neighbors(v), expected[v as usize], "vertex {v}");
        }
    }
}
