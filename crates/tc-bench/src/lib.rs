//! # tc-bench — benchmark harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index) plus Criterion benches. The binaries share [`sweep`] /
//! [`full_sweep`], which run the evaluation matrix and return the records
//! the figures are printed from.
//!
//! Dataset selection: every figure binary accepts dataset names as
//! arguments (default: all 19 of Table II). `--small` selects the
//! small class, `--medium` small+medium — handy for quick runs, since the
//! full sweep simulates ~170 kernel configurations.

pub mod bench_json;
pub mod lint_json;

use gpu_sim::Device;
use graph_data::{DatasetSpec, SizeClass, TABLE2_DATASETS};
use tc_algos::api::TcAlgorithm;
use tc_core::framework::backend::{run_matrix_backends, run_matrix_backends_parallel, SimBackend};
use tc_core::framework::registry::all_algorithms;
use tc_core::framework::runner::RunRecord;

/// Run the given algorithms over the given datasets on a simulated V100.
///
/// Cells are fanned out across a rayon pool; the records come back in
/// the same deterministic (dataset-major) order as [`sweep_serial`], and
/// a faulting implementation records `Failed` for its own cell without
/// taking the rest of the sweep down. Honor `--serial` from a binary by
/// calling [`sweep_serial`] instead.
pub fn sweep(algos: &[Box<dyn TcAlgorithm>], datasets: &[DatasetSpec]) -> Vec<RunRecord> {
    let dev = Device::v100();
    run_matrix_backends_parallel(&[&SimBackend { dev: &dev }], algos, datasets)
}

/// [`sweep`] without the parallel fan-out — one cell at a time, for
/// debugging or for minimizing peak memory on huge sweeps.
pub fn sweep_serial(algos: &[Box<dyn TcAlgorithm>], datasets: &[DatasetSpec]) -> Vec<RunRecord> {
    let dev = Device::v100();
    run_matrix_backends(&[&SimBackend { dev: &dev }], algos, datasets)
}

/// The paper's full evaluation: all nine algorithms on the given
/// datasets.
pub fn full_sweep(datasets: &[DatasetSpec]) -> Vec<RunRecord> {
    sweep(&all_algorithms(), datasets)
}

/// Parse figure-binary CLI args into a dataset list.
///
/// * no args → all 19;
/// * `--small` → the small class; `--medium` → small + medium;
/// * otherwise each arg must be a Table II dataset name.
pub fn datasets_from_args(args: &[String]) -> Result<Vec<DatasetSpec>, String> {
    if args.is_empty() {
        return Ok(TABLE2_DATASETS.to_vec());
    }
    if args.len() == 1 && args[0] == "--small" {
        return Ok(TABLE2_DATASETS
            .iter()
            .filter(|d| d.size_class == SizeClass::Small)
            .copied()
            .collect());
    }
    if args.len() == 1 && args[0] == "--medium" {
        return Ok(TABLE2_DATASETS
            .iter()
            .filter(|d| d.size_class != SizeClass::Large)
            .copied()
            .collect());
    }
    args.iter()
        .map(|name| {
            DatasetSpec::by_name(name)
                .copied()
                .ok_or_else(|| format!("unknown dataset `{name}` (see Table II)"))
        })
        .collect()
}

/// Progress note to stderr so long sweeps show life.
pub fn eprint_progress(what: &str) {
    eprintln!("[tc-bench] {what}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_select_all_19() {
        assert_eq!(datasets_from_args(&[]).unwrap().len(), 19);
    }

    #[test]
    fn class_filters() {
        let small = datasets_from_args(&["--small".into()]).unwrap();
        assert!(small.iter().all(|d| d.size_class == SizeClass::Small));
        assert_eq!(small.len(), 6);
        let medium = datasets_from_args(&["--medium".into()]).unwrap();
        assert_eq!(medium.len(), 16);
    }

    #[test]
    fn names_resolve_case_insensitively() {
        let ds = datasets_from_args(&["as-caida".into(), "Twitter".into()]).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(datasets_from_args(&["bogus".into()]).is_err());
    }
}
