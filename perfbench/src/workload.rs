//! The benchmark's workloads: a Table II generator recipe, re-seeded by
//! the benchmark's `--seed`, and the backend that runs it.

use gpu_sim::Device;
use graph_data::DatasetSpec;

/// Which execution backend a workload's cells run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The cycle-modelled simulator on the V100 model. With `analyses`
    /// the race detector, SimSan and SimLint observe every access.
    Sim { analyses: bool },
    /// The native host kernels (`count_cpu`); gpu-sim does no work.
    Cpu,
}

impl BackendKind {
    /// The simulated device, or `None` for the CPU backend.
    pub fn device(self) -> Option<Device> {
        match self {
            BackendKind::Sim { analyses: false } => Some(Device::v100()),
            BackendKind::Sim { analyses: true } => Some(
                Device::v100()
                    .with_race_detection()
                    .with_sanitizer()
                    .with_lints(),
            ),
            BackendKind::Cpu => None,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// The Table II dataset whose generator recipe the workload uses.
    pub recipe: &'static str,
    pub backend: BackendKind,
}

/// Why each workload exists is recorded in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sim-skewed",
        recipe: "Email-EuAll",
        backend: BackendKind::Sim { analyses: false },
    },
    Workload {
        name: "sim-checked",
        recipe: "P2p-Gnutella31",
        backend: BackendKind::Sim { analyses: true },
    },
    Workload {
        name: "cpu-large",
        recipe: "Wiki-Talk",
        backend: BackendKind::Cpu,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The recipe with its seed replaced by the benchmark's seed.
    pub fn spec(&self, seed: u64) -> DatasetSpec {
        let mut spec = *DatasetSpec::by_name(self.recipe).expect("workload recipe is in Table II");
        spec.seed = seed;
        spec
    }
}
