//! A worker that panics must hand its share of the process-wide worker
//! budget back. This file is its own test binary holding one test, so no
//! concurrently running test holds workers while it counts them.

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

/// How many workers one parallel map over `n` items runs on: every
/// worker calls `init` exactly once.
fn workers_of_a_map(n: usize) -> usize {
    let inits = AtomicUsize::new(0);
    let out: Vec<usize> = (0..n)
        .into_par_iter()
        .map_init(|| inits.fetch_add(1, Ordering::Relaxed), |_, i| i)
        .collect();
    assert_eq!(out.len(), n);
    inits.into_inner()
}

#[test]
fn a_caught_worker_panic_returns_its_worker_budget() {
    let threads = rayon::current_num_threads();
    assert_eq!(workers_of_a_map(64), threads);
    let caught = std::panic::catch_unwind(|| {
        (0u32..64)
            .into_par_iter()
            .map(|i| {
                if i == 7 {
                    panic!("deliberate worker panic");
                }
                i
            })
            .sum::<u32>()
    });
    assert!(caught.is_err(), "the worker panic must reach the caller");
    assert_eq!(
        workers_of_a_map(64),
        threads,
        "a later parallel map must get every worker back"
    );
}
