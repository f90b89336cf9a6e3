//! R-MAT recursive matrix generator (Chakrabarti et al.): the standard
//! way to synthesize power-law graphs with community structure. With the
//! canonical (0.57, 0.19, 0.19, 0.05) parameters it matches the skewed
//! degree distributions of the SNAP social/web graphs the paper uses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::types::EdgeList;

/// Generate `num_edges` raw directed pairs over `2^scale` vertices.
///
/// `a + b + c + d` must sum to 1 (within 1e-6) and each weight must be
/// non-negative. Duplicate edges and self-loops are left in, as in real
/// RMAT dumps; run [`crate::clean::clean_edges`] afterwards.
pub fn rmat(scale: u32, num_edges: usize, a: f64, b: f64, c: f64, d: f64, seed: u64) -> EdgeList {
    assert!(scale > 0 && scale < 31, "scale out of range");
    assert!(
        ((a + b + c + d) - 1.0).abs() < 1e-6,
        "RMAT probabilities must sum to 1"
    );
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0,
        "RMAT probabilities must be non-negative"
    );
    // Cumulative quadrant bounds: top-left [0, a), top-right [a, ab),
    // bottom-left [ab, abc), bottom-right [abc, 1). With non-negative
    // weights `a <= ab <= abc`, so three independent comparisons pick the
    // quadrant without a data-dependent branch: the row bit is set in the
    // bottom half, the column bit in the two right-hand quadrants.
    let ab = a + b;
    let abc = ab + c;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let r: f64 = rng.gen();
            let (ge_a, ge_ab, ge_abc) = (r >= a, r >= ab, r >= abc);
            u = (u << 1) | u32::from(ge_ab);
            v = (v << 1) | u32::from((ge_a & !ge_ab) | ge_abc);
        }
        edges.push((u, v));
    }
    EdgeList::new(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clean_edges;
    use crate::stats::GraphStats;

    #[test]
    fn deterministic_for_seed() {
        let a = rmat(10, 5000, 0.57, 0.19, 0.19, 0.05, 42);
        let b = rmat(10, 5000, 0.57, 0.19, 0.19, 0.05, 42);
        assert_eq!(a, b);
        let c = rmat(10, 5000, 0.57, 0.19, 0.19, 0.05, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn ids_within_scale() {
        let e = rmat(8, 2000, 0.57, 0.19, 0.19, 0.05, 1);
        assert!(e.edges.iter().all(|&(u, v)| u < 256 && v < 256));
    }

    #[test]
    fn skewed_degrees() {
        let e = rmat(12, 40_000, 0.57, 0.19, 0.19, 0.05, 7);
        let (g, _) = clean_edges(&e);
        let s = GraphStats::compute(&g);
        // Power-law: hub degree far above the mean.
        assert!(s.skew() > 10.0, "skew {} too small for RMAT", s.skew());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        rmat(8, 10, 0.5, 0.5, 0.5, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_probability() {
        // Sums to 1, but a negative weight has no meaning as a quadrant
        // probability.
        rmat(8, 10, 0.6, -0.1, 0.3, 0.2, 0);
    }
}
