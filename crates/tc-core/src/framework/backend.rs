//! Execution backends: the same registry, prepared datasets and record
//! surface, running either on the cycle-modelled simulator or natively
//! on the host.
//!
//! A [`Backend`] turns one (algorithm, dataset) cell into a
//! [`RunRecord`]. [`SimBackend`] wraps the existing
//! [`run_on_dataset`] path; [`CpuBackend`] executes the algorithm's
//! rayon host kernel ([`TcAlgorithm::count_cpu`]) with the same
//! preferred-orientation pipeline and the same fault isolation — a
//! panicking CPU kernel becomes [`RunOutcome::Failed`] in its own cell,
//! exactly like a device memory fault, instead of tearing down the
//! sweep.
//!
//! What the CPU path deliberately does *not* model: cycles, profiling
//! counters, occupancy — its records carry `kernel_cycles: 0` and
//! default counters. It exists to serve exact counts at wall-clock
//! speed (ROADMAP item 4) and to act as a differential twin for the
//! simulator; only [`RunRecord::wall`] is meaningful for its timing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gpu_sim::{Device, SimError};
use tc_algos::api::TcAlgorithm;

use rayon::prelude::*;

use crate::framework::runner::{
    panic_message, run_on_dataset, PreparedDataset, RunOutcome, RunRecord,
};

/// An execution substrate for evaluation cells.
pub trait Backend: Sync {
    /// Short tag recorded in [`RunRecord::backend`] and the CSV
    /// `backend` column (`"sim"`, `"cpu"`).
    fn tag(&self) -> &'static str;

    /// Run one algorithm on one prepared dataset, fault-isolated.
    fn run(&self, algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord;
}

/// The cycle-modelled SIMT simulator backend (the default everywhere).
pub struct SimBackend<'d> {
    pub dev: &'d Device,
}

impl Backend for SimBackend<'_> {
    fn tag(&self) -> &'static str {
        "sim"
    }

    fn run(&self, algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord {
        run_on_dataset(self.dev, algo, data)
    }
}

/// The native host backend: rayon kernels, no device model.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuBackend;

impl Backend for CpuBackend {
    fn tag(&self) -> &'static str {
        "cpu"
    }

    fn run(&self, algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord {
        run_on_dataset_cpu(algo, data)
    }
}

/// Run one algorithm's host kernel on one prepared dataset (the
/// algorithm's preferred orientation) and verify the count.
///
/// Fault-isolation parity with the sim path: the kernel runs under
/// [`catch_unwind`], so an index-out-of-bounds or explicit panic in one
/// cell surfaces as [`RunOutcome::Failed`] with the panic message, and
/// the caller's sweep continues.
pub fn run_on_dataset_cpu(algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord {
    let started = Instant::now();
    let dag = data.dag(algo.preferred_orientation());
    let outcome = match catch_unwind(AssertUnwindSafe(|| algo.count_cpu(&dag))) {
        Ok(triangles) => RunOutcome::Ok {
            triangles,
            // The CPU path models nothing: no cycles, no counters.
            kernel_cycles: 0,
            counters: Default::default(),
            verified: triangles == data.ground_truth,
        },
        Err(payload) => RunOutcome::Failed(SimError::KernelFault(format!(
            "cpu kernel panicked: {}",
            panic_message(payload.as_ref())
        ))),
    };
    RunRecord {
        algorithm: algo.name().to_string(),
        dataset: data.spec.name,
        backend: "cpu",
        outcome,
        partition: None,
        wall: started.elapsed(),
    }
}

/// The multi-backend evaluation sweep, serial: dataset-major, then
/// backend, then algorithm — so one prepared dataset serves every
/// backend before it is dropped.
pub fn run_matrix_backends(
    backends: &[&dyn Backend],
    algos: &[Box<dyn TcAlgorithm>],
    datasets: &[graph_data::DatasetSpec],
) -> Vec<RunRecord> {
    let mut records = Vec::with_capacity(backends.len() * algos.len() * datasets.len());
    for spec in datasets {
        let data = PreparedDataset::prepare(spec);
        for backend in backends {
            for algo in algos {
                records.push(backend.run(algo.as_ref(), &data));
            }
        }
    }
    records
}

/// The multi-backend sweep, parallel and fault-isolated: every
/// (dataset × backend × algorithm) cell fans over the thread pool;
/// records come back in exactly [`run_matrix_backends`]' order.
pub fn run_matrix_backends_parallel(
    backends: &[&dyn Backend],
    algos: &[Box<dyn TcAlgorithm>],
    datasets: &[graph_data::DatasetSpec],
) -> Vec<RunRecord> {
    let prepared: Vec<PreparedDataset> =
        datasets.par_iter().map(PreparedDataset::prepare).collect();
    let cells: Vec<(usize, usize, usize)> = (0..datasets.len())
        .flat_map(|d| {
            (0..backends.len()).flat_map(move |b| (0..algos.len()).map(move |a| (d, b, a)))
        })
        .collect();
    cells
        .into_par_iter()
        .map(|(d, b, a)| backends[b].run(algos[a].as_ref(), &prepared[d]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::registry::all_algorithms;
    use gpu_sim::DeviceMem;
    use graph_data::datasets::{DatasetSpec, GenSpec, SizeClass};
    use tc_algos::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcOutput};
    use tc_algos::device_graph::DeviceGraph;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            name: "tiny-rmat",
            paper_vertices: 0,
            paper_edges: 0,
            paper_avg_degree: 0.0,
            size_class: SizeClass::Small,
            gen: GenSpec::Rmat {
                scale: 10,
                raw_edges: 8000,
            },
            seed: 7,
        }
    }

    #[test]
    fn cpu_backend_verifies_every_registered_algorithm() {
        let data = PreparedDataset::prepare(&tiny_spec());
        assert!(data.ground_truth > 0);
        for algo in all_algorithms() {
            let rec = CpuBackend.run(algo.as_ref(), &data);
            assert_eq!(rec.backend, "cpu");
            assert!(
                rec.is_verified(),
                "{}: cpu outcome {:?}",
                rec.algorithm,
                rec.outcome
            );
            assert_eq!(rec.kernel_cycles(), Some(0), "cpu cells model no cycles");
        }
    }

    #[test]
    fn sim_backend_is_the_existing_runner_path() {
        let dev = Device::v100();
        let data = PreparedDataset::prepare(&tiny_spec());
        let algos = all_algorithms();
        let via_backend = SimBackend { dev: &dev }.run(algos[0].as_ref(), &data);
        let direct = run_on_dataset(&dev, algos[0].as_ref(), &data);
        assert_eq!(via_backend.backend, "sim");
        assert_eq!(via_backend.algorithm, direct.algorithm);
        assert_eq!(via_backend.kernel_cycles(), direct.kernel_cycles());
    }

    /// A CPU kernel that panics: the probe for fault-isolation parity.
    struct PanickyAlgo;

    impl TcAlgorithm for PanickyAlgo {
        fn meta(&self) -> AlgoMeta {
            AlgoMeta {
                name: "panic-probe",
                reference: "synthetic cpu fault probe",
                year: 2024,
                iterator: IteratorKind::Edge,
                intersection: Intersection::Merge,
                granularity: Granularity::Coarse,
            }
        }

        fn count(
            &self,
            dev: &Device,
            mem: &mut DeviceMem,
            _g: &DeviceGraph,
        ) -> Result<TcOutput, SimError> {
            let stats = dev.launch(mem, gpu_sim::KernelConfig::new(1, 32), |blk| {
                blk.phase(|lane| lane.compute(1));
            })?;
            Ok(TcOutput {
                triangles: 0,
                stats,
            })
        }

        fn count_cpu(&self, _dag: &graph_data::DagGraph) -> u64 {
            panic!("deliberate host-kernel bug");
        }
    }

    #[test]
    fn panicking_cpu_kernel_is_isolated_as_failed() {
        let mut algos = all_algorithms();
        algos.push(Box::new(PanickyAlgo));
        let backends: [&dyn Backend; 1] = [&CpuBackend];
        let specs = [tiny_spec()];
        // The panic must not tear down the parallel sweep.
        let records = run_matrix_backends_parallel(&backends, &algos, &specs);
        assert_eq!(records.len(), algos.len());
        let failed = records.last().unwrap();
        assert_eq!(failed.algorithm, "panic-probe");
        match &failed.outcome {
            RunOutcome::Failed(SimError::KernelFault(msg)) => {
                assert!(
                    msg.contains("cpu kernel panicked: deliberate host-kernel bug"),
                    "msg: {msg}"
                );
            }
            other => panic!("expected Failed(KernelFault), got {other:?}"),
        }
        assert!(
            records[..records.len() - 1].iter().all(|r| r.is_verified()),
            "healthy cpu cells still verify"
        );
    }

    /// A device kernel whose closure panics in every block: the probe
    /// for panic isolation on the simulator backends.
    struct PanickySimAlgo;

    impl TcAlgorithm for PanickySimAlgo {
        fn meta(&self) -> AlgoMeta {
            AlgoMeta {
                name: "sim-panic-probe",
                reference: "synthetic device fault probe",
                year: 2024,
                iterator: IteratorKind::Edge,
                intersection: Intersection::Merge,
                granularity: Granularity::Coarse,
            }
        }

        fn count(
            &self,
            dev: &Device,
            mem: &mut DeviceMem,
            _g: &DeviceGraph,
        ) -> Result<TcOutput, SimError> {
            let stats = dev.launch(mem, gpu_sim::KernelConfig::new(8, 32), |blk| {
                blk.phase(|_lane| panic!("deliberate device-kernel bug"));
            })?;
            Ok(TcOutput {
                triangles: 0,
                stats,
            })
        }

        fn count_cpu(&self, dag: &graph_data::DagGraph) -> u64 {
            graph_data::cpu_ref::forward_merge(dag)
        }
    }

    #[test]
    fn panicking_sim_kernel_is_isolated_as_failed() {
        use crate::framework::partitioned::PartitionedSimBackend;
        let dev = Device::v100();
        let mut algos = all_algorithms();
        algos.push(Box::new(PanickySimAlgo));
        let single = SimBackend { dev: &dev };
        let split = PartitionedSimBackend {
            dev: &dev,
            num_devices: 2,
        };
        let backends: [&dyn Backend; 2] = [&single, &split];
        let mut second = tiny_spec();
        second.name = "tiny-rmat-2";
        second.seed = 8;
        let specs = [tiny_spec(), second];
        // The panics must not tear down the parallel sweep.
        let records = run_matrix_backends_parallel(&backends, &algos, &specs);
        assert_eq!(records.len(), specs.len() * backends.len() * algos.len());
        for r in &records {
            if r.algorithm == "sim-panic-probe" {
                // A panic inside a parallel launch is re-raised by the
                // worker scope with its own payload, so only the prefix
                // is stable.
                match &r.outcome {
                    RunOutcome::Failed(SimError::KernelFault(msg)) => {
                        assert!(msg.starts_with("sim kernel panicked"), "msg: {msg}")
                    }
                    other => panic!("expected Failed(KernelFault), got {other:?}"),
                }
            } else {
                assert!(
                    r.is_verified(),
                    "{} on {}: {:?}",
                    r.algorithm,
                    r.dataset,
                    r.outcome
                );
            }
        }
        let probes = records
            .iter()
            .filter(|r| r.algorithm == "sim-panic-probe")
            .count();
        assert_eq!(probes, specs.len() * backends.len());
    }

    #[test]
    fn multi_backend_sweep_order_and_parity() {
        let dev = Device::v100();
        let backends: [&dyn Backend; 2] = [&SimBackend { dev: &dev }, &CpuBackend];
        let algos = all_algorithms();
        let specs = [tiny_spec()];
        let serial = run_matrix_backends(&backends, &algos, &specs);
        let parallel = run_matrix_backends_parallel(&backends, &algos, &specs);
        assert_eq!(serial.len(), 2 * algos.len());
        assert_eq!(serial.len(), parallel.len());
        // Backend-major within a dataset: sim block, then cpu block.
        for (i, r) in serial.iter().enumerate() {
            let expect = if i < algos.len() { "sim" } else { "cpu" };
            assert_eq!(r.backend, expect, "record {i}");
            assert_eq!(r.algorithm, algos[i % algos.len()].name());
            assert!(r.is_verified(), "{} on {}", r.algorithm, r.backend);
        }
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.algorithm, p.algorithm);
            assert_eq!(s.backend, p.backend);
            assert_eq!(s.is_verified(), p.is_verified());
        }
        // Sim and cpu agree on every triangle count.
        for (s, c) in serial[..algos.len()].iter().zip(&serial[algos.len()..]) {
            match (&s.outcome, &c.outcome) {
                (RunOutcome::Ok { triangles: st, .. }, RunOutcome::Ok { triangles: ct, .. }) => {
                    assert_eq!(st, ct, "{}", s.algorithm)
                }
                (a, b) => panic!("outcome mismatch for {}: {a:?} vs {b:?}", s.algorithm),
            }
        }
    }
}
