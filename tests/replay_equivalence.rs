//! Cross-engine equivalence: every registered algorithm, replayed on the
//! pinned conformance graphs, must produce **byte-identical**
//! `LaunchStats` to the pinned table in `replay_equivalence/pins.rs`.
//!
//! The pins were captured from the pre-arena, one-`Op`-per-instruction
//! execution engine and survived the streaming rewrite (run-length-encoded
//! compute runs, per-worker `BlockScratch` arenas, small-array sector and
//! bank passes) unchanged — that equivalence is exactly what this test
//! locks. A second test replays the same pins with the race detector,
//! SimSan and SimLint all on: the analyses only observe, so every pin
//! must still match once their check counters are masked. Any drift
//! means the replay rules or the memory system changed; re-pin
//! deliberately with:
//!
//! ```sh
//! cargo run --release -p tc-bench --bin pin_replay_snapshots \
//!     > tests/replay_equivalence/pins.rs
//! ```

use tc_compare::algos::conformance::generator_cases;
use tc_compare::algos::{DeviceGraph, TcOutput};
use tc_compare::core::framework::registry::all_algorithms;
use tc_compare::graph::{clean_edges, orient};
use tc_compare::sim::{Device, DeviceMem, ProfileCounters};

/// One representative graph per generator family (kept in sync with the
/// pin tool's `PINNED_CASES`).
const PINNED_CASES: [&str; 3] = ["er-dense", "rmat-skewed", "road-grid"];

/// One pinned launch: the exact modelled outcome of `algorithm` on
/// `case`.
pub struct Pin {
    pub algorithm: &'static str,
    pub case: &'static str,
    pub triangles: u64,
    pub kernel_cycles: u64,
    pub total_block_cycles: u64,
    pub blocks: u64,
    pub counters: ProfileCounters,
}

include!("replay_equivalence/pins.rs");

/// Run every algorithm on every pinned case on `dev`, hand each outcome
/// to `on_run`, and assert it reproduces its pin exactly with the three
/// analysis check counters (0 in every pin) masked to 0. Returns how
/// many pins were exercised.
fn check_pins(dev: &Device, mut on_run: impl FnMut(&str, &TcOutput)) -> usize {
    let algos = all_algorithms();
    let cases = generator_cases();
    let mut checked = 0;
    for case in cases.iter().filter(|c| PINNED_CASES.contains(&c.name)) {
        let (g, _) = clean_edges(&case.edges);
        for algo in &algos {
            let pin = PINS
                .iter()
                .find(|p| p.algorithm == algo.name() && p.case == case.name)
                .unwrap_or_else(|| panic!("no pin for {} on {}", algo.name(), case.name));
            let dag = orient(&g, algo.preferred_orientation());
            let mut mem = DeviceMem::new(dev);
            let dg = DeviceGraph::upload(&dag, &mut mem).expect("upload");
            let out = algo
                .count(dev, &mut mem, &dg)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", algo.name(), case.name));
            let ctx = format!("{} on {}", algo.name(), case.name);
            on_run(&ctx, &out);
            let mut counters = out.stats.counters;
            counters.race_checks = 0;
            counters.sanitizer_checks = 0;
            counters.lint_checks = 0;
            assert_eq!(out.triangles, pin.triangles, "triangles drifted: {ctx}");
            assert_eq!(
                out.stats.kernel_cycles, pin.kernel_cycles,
                "kernel_cycles drifted: {ctx}"
            );
            assert_eq!(
                out.stats.total_block_cycles, pin.total_block_cycles,
                "total_block_cycles drifted: {ctx}"
            );
            assert_eq!(out.stats.blocks, pin.blocks, "blocks drifted: {ctx}");
            assert_eq!(counters, pin.counters, "counters drifted: {ctx}");
            checked += 1;
        }
    }
    checked
}

#[test]
fn every_algorithm_replays_bit_identically_to_the_pinned_engine() {
    let checked = check_pins(&Device::v100(), |ctx, out| {
        let c = &out.stats.counters;
        assert_eq!(
            (c.race_checks, c.sanitizer_checks, c.lint_checks),
            (0, 0, 0),
            "analyses ran on a plain device: {ctx}"
        );
    });
    // Every pin was exercised: 10 algorithms x 3 graphs.
    assert_eq!(checked, PINS.len());
    assert_eq!(checked, 30);
}

/// The race detector, SimSan and SimLint only observe: with all three on,
/// every pin must still reproduce exactly, once the three check counters
/// (which the plain pins hold at 0) are masked out.
#[test]
fn every_algorithm_replays_its_pin_with_every_analysis_on() {
    let dev = Device::v100()
        .with_race_detection()
        .with_sanitizer()
        .with_lints();
    let checked = check_pins(&dev, |ctx, out| {
        let c = &out.stats.counters;
        assert!(c.race_checks > 0, "race detector never engaged: {ctx}");
        assert!(c.sanitizer_checks > 0, "SimSan never engaged: {ctx}");
        assert!(c.lint_checks > 0, "SimLint never engaged: {ctx}");
        assert_eq!(c.races_detected, 0, "race reported: {ctx}");
        assert_eq!(c.sanitizer_reports, 0, "SimSan report: {ctx}");
        assert!(out.stats.lint.is_some(), "no LintReport attached: {ctx}");
    });
    assert_eq!(checked, PINS.len());
    assert_eq!(checked, 30);
}
