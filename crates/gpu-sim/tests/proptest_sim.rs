//! Property tests of the simulator's accounting: whatever a kernel does,
//! the profiling identities must hold and replay must be deterministic.

use proptest::prelude::*;

use gpu_sim::{Device, DeviceMem, KernelConfig, LaunchStats};

/// Words of `data` each block owns.
const REGION_WORDS: usize = 1 << 14;

/// A tiny random "program": per lane, a mix of ops driven by the lane id
/// and two parameters.
///
/// Every load and store stays inside the block's own region of `data`:
/// the lanes of a block run in a fixed order, so the values they load —
/// and the data-dependent compute those values drive — are the same in
/// every run. A store into another block's region would make a block's
/// cycles depend on the order the host workers happened to run blocks in.
fn run_program(block_dim: u32, grid_dim: u32, stride: usize, work: u32) -> LaunchStats {
    let dev = Device::v100();
    let mut mem = DeviceMem::new(&dev);
    let data = mem
        .alloc_zeroed(REGION_WORDS * grid_dim as usize, "data")
        .unwrap();
    let counter = mem.alloc_zeroed(16, "counter").unwrap();
    let cfg = KernelConfig::new(grid_dim, block_dim).with_shared_words(64);
    dev.launch(&mem, cfg, |blk| {
        let region = blk.block_idx() as usize * REGION_WORDS;
        blk.phase(|lane| {
            let t = lane.global_tid() as usize;
            for i in 0..(work as usize) {
                let off = (t * stride + i * 97) % REGION_WORDS;
                let v = lane.ld_global(data, region + off);
                lane.compute(1 + (v % 3));
                if i % 7 == 0 {
                    lane.st_global(data, region + (off + 1) % REGION_WORDS, v + 1);
                }
                if i % 11 == 0 {
                    lane.atomic_add_global(counter, t % 16, 1);
                }
            }
            lane.st_shared((lane.tid() % 64) as usize, 1);
            let _ = lane.ld_shared((lane.tid() % 64) as usize);
        });
    })
    .unwrap()
}

/// The accounting identities every launch must satisfy, shared by the
/// property below and the pinned historical failures at the bottom.
fn check_accounting_identities(block_dim: u32, grid: u32, stride: usize, work: u32) {
    let s = run_program(block_dim, grid, stride, work);
    let c = &s.counters;
    // Efficiency in (0, 1].
    let eff = c.warp_execution_efficiency();
    assert!(eff > 0.0 && eff <= 1.0, "eff {eff}");
    // No slot can have more than a warp of active threads.
    assert!(c.active_thread_slots <= c.issued_slots * 32);
    // A load request needs at most 32 transactions (one per lane).
    assert!(c.gld_transactions <= c.global_load_requests * 32);
    assert!(c.gst_transactions <= c.global_store_requests * 32);
    // Kernel time can never beat either the per-block critical path
    // spread over all slots or the DRAM floor.
    assert!(
        s.kernel_cycles * (80 * 32) + 1 > s.total_block_cycles,
        "makespan {} vs total {}",
        s.kernel_cycles,
        s.total_block_cycles
    );
    // DRAM misses are a subset of the wavefront transactions, and
    // kernel time can never beat the DRAM floor over the misses.
    assert!(c.dram_load_sectors <= c.gld_transactions);
    let sectors = c.dram_load_sectors + c.gst_transactions + c.global_atomic_requests;
    assert!(s.kernel_cycles >= sectors / 20);
    assert_eq!(s.blocks, grid as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn accounting_identities_hold(
        block_pow in 0u32..6,
        grid in 1u32..20,
        stride in 1usize..600,
        work in 0u32..40,
    ) {
        let block_dim = 32 << block_pow; // 32..=1024
        check_accounting_identities(block_dim, grid, stride, work);
    }

    #[test]
    fn launches_are_deterministic(
        grid in 1u32..16,
        stride in 1usize..300,
        work in 1u32..30,
    ) {
        let a = run_program(64, grid, stride, work);
        let b = run_program(64, grid, stride, work);
        prop_assert_eq!(a.kernel_cycles, b.kernel_cycles);
        prop_assert_eq!(a.total_block_cycles, b.total_block_cycles);
        prop_assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn atomic_sums_are_exact_under_concurrency(
        grid in 1u32..32,
        block_pow in 0u32..5,
    ) {
        let block_dim = 32u32 << block_pow;
        let dev = Device::v100();
        let mut mem = DeviceMem::new(&dev);
        let counter = mem.alloc_zeroed(1, "counter").unwrap();
        dev.launch(&mem, KernelConfig::new(grid, block_dim), |blk| {
            blk.phase(|lane| {
                lane.atomic_add_global(counter, 0, 1);
            });
        })
        .unwrap();
        prop_assert_eq!(mem.read_back(counter)[0], grid * block_dim);
    }

    #[test]
    fn wider_strides_never_reduce_transactions(work in 1u32..24) {
        // Same op count; scattering addresses more can only increase the
        // sector traffic.
        let narrow = run_program(64, 4, 1, work);
        let wide = run_program(64, 4, 512, work);
        prop_assert!(
            wide.counters.gld_transactions >= narrow.counters.gld_transactions
        );
    }
}

// Historical shrunk failures from `proptest_sim.proptest-regressions`.
// The vendored proptest stand-in does not consume that file, so the two
// recorded cases are pinned here as always-run regression tests (and kept
// deterministic across repeated runs, since the second case's original
// failure mode was cross-block interleaving dependent).

#[test]
fn regression_block128_grid1_work0() {
    // cc c03123a9… : block_pow = 2, grid = 1, stride = 1, work = 0
    check_accounting_identities(32 << 2, 1, 1, 0);
}

#[test]
fn regression_block1024_grid13_stride48_work2() {
    // cc b114c230… : block_pow = 5, grid = 13, stride = 48, work = 2
    check_accounting_identities(32 << 5, 13, 48, 2);
    let a = run_program(32 << 5, 13, 48, 2);
    for _ in 0..4 {
        let b = run_program(32 << 5, 13, 48, 2);
        assert_eq!(a.kernel_cycles, b.kernel_cycles);
        assert_eq!(a.total_block_cycles, b.total_block_cycles);
        assert_eq!(a.counters, b.counters);
    }
}
