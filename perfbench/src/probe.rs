//! Machine-calibration probe recorded with every run: pointer-chase
//! latency and dependent-add rate. It tells a slow run on a degraded box
//! apart from a slow program; it is context, not a gated metric.

use std::hint::black_box;
use std::time::Instant;

/// 32 MiB of `u32` links: larger than the last-level cache of the boxes
/// this runs on, so each hop is a DRAM access.
const CHASE_LEN: usize = 8 << 20;
const CHASE_HOPS: usize = 1 << 20;
const ADDS: u64 = 100_000_000;

pub struct Calibration {
    /// Nanoseconds per dependent load over a random cycle.
    pub pointer_chase_ns: f64,
    /// Billions of dependent adds per second.
    pub dep_add_gops: f64,
}

pub fn calibrate() -> Calibration {
    // Sattolo's algorithm: a random permutation that is one single cycle,
    // so the chase visits every slot before repeating.
    let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for i in (1..CHASE_LEN).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    let mut at = 0u32;
    let started = Instant::now();
    for _ in 0..CHASE_HOPS {
        at = next[at as usize];
    }
    black_box(at);
    let pointer_chase_ns = started.elapsed().as_secs_f64() * 1e9 / CHASE_HOPS as f64;

    let mut x = 0u64;
    let started = Instant::now();
    for i in 0..ADDS {
        x = black_box(x.wrapping_add(i));
    }
    black_box(x);
    let dep_add_gops = ADDS as f64 / started.elapsed().as_secs_f64() / 1e9;
    Calibration {
        pointer_chase_ns,
        dep_add_gops,
    }
}
