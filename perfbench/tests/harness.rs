//! The benchmark's own tests: on a tiny recipe every metric
//! `BENCHMARK.json` names is produced, with a unit and a valid name, and
//! a faulty algorithm fails its own cell only.

use gpu_sim::{Device, DeviceMem, SimError};
use graph_data::datasets::{DatasetSpec, GenSpec, SizeClass};
use perfbench::workload::{BackendKind, WORKLOADS};
use perfbench::{Metric, Opts, Report};
use tc_algos::api::{AlgoMeta, Granularity, Intersection, IteratorKind, TcAlgorithm, TcOutput};
use tc_algos::device_graph::DeviceGraph;
use tc_core::all_algorithms;

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

fn run_tiny(kind: BackendKind, algos: &[Box<dyn TcAlgorithm>], tag: &str) -> Report {
    let opts = Opts {
        seconds: 0.0,
        trace: Some(
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{tag}.json")),
        ),
        run_id: format!("test-{tag}"),
    };
    perfbench::run(&tiny_spec(), kind, algos, &opts).expect("tiny run is deterministic")
}

/// The `name` fields of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed name")].to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn tiny_recipe_reports_every_declared_metric() {
    for (kind, tag) in [
        (BackendKind::Sim { analyses: false }, "sim"),
        (BackendKind::Sim { analyses: true }, "checked"),
        (BackendKind::Cpu, "cpu"),
    ] {
        let report = run_tiny(kind, &all_algorithms(), tag);
        assert!(report.correct, "{tag}: {:?}", report.notes);
        assert_eq!(report.failed, 0, "{tag}");
        assert_eq!(names(&report.end_to_end), declared("end_to_end"), "{tag}");
        assert_eq!(names(&report.per_layer), declared("per_layer"), "{tag}");
        for m in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(valid_name(&m.name), "{tag}: bad name {:?}", m.name);
            assert!(valid_unit(m.unit), "{tag}: bad unit {:?}", m.unit);
            assert!(m.value.is_finite(), "{tag}: {} = {}", m.name, m.value);
        }
        for m in &report.end_to_end {
            assert!(m.value > 0.0, "{tag}: end-to-end {} is {}", m.name, m.value);
        }
        let line = report.json_line(&report.end_to_end);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"sweep_s\": {\"value\": "), "{line}");

        let get = |name: &str| {
            report
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap()
        };
        let checks = get("gpu-sim.analysis_checks");
        assert_eq!(
            checks > 0.0,
            tag == "checked",
            "{tag}: {checks} analysis checks"
        );
        assert_eq!(get("model_cycles") > 0.0, tag != "cpu", "{tag}");
        assert!(get("graph-data.triangles") > 0.0, "{tag}");
        assert!(
            get("bench.unattributed_s") <= 0.05 * get("tc-core.cell_s"),
            "{tag}: more than 5% of the traced sweep is unattributed"
        );

        let trace = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{tag}.json")),
        )
        .expect("traced run writes its trace");
        assert!(trace.contains("\"traceEvents\""), "{tag}");
        assert!(
            trace.contains(&format!("\"run_id\":\"test-{tag}\"")),
            "{tag}"
        );
        assert!(trace.contains("\"name\":\"tc-core.cell\""), "{tag}");
    }
}

#[test]
fn benchmark_json_declares_the_harness_workloads() {
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared("workloads"), ours);
    for name in declared("end_to_end").iter().chain(&declared("per_layer")) {
        assert!(valid_name(name), "{name}");
    }
}

/// A registry-shaped algorithm that is wrong on purpose.
struct Faulty {
    panics: bool,
}

impl TcAlgorithm for Faulty {
    fn meta(&self) -> AlgoMeta {
        AlgoMeta {
            name: if self.panics {
                "panic-stub"
            } else {
                "miscount-stub"
            },
            reference: "benchmark fault probe",
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
        assert!(!self.panics, "deliberate host-side bug");
        let stats = dev.launch(mem, gpu_sim::KernelConfig::new(1, 32), |blk| {
            blk.phase(|lane| lane.compute(1));
        })?;
        Ok(TcOutput {
            triangles: 1,
            stats,
        })
    }

    fn count_cpu(&self, _dag: &graph_data::DagGraph) -> u64 {
        assert!(!self.panics, "deliberate host-kernel bug");
        1
    }
}

#[test]
fn faulty_algorithm_fails_one_cell_in_eleven() {
    for panics in [true, false] {
        for kind in [BackendKind::Sim { analyses: false }, BackendKind::Cpu] {
            let mut algos = all_algorithms();
            algos.push(Box::new(Faulty { panics }));
            assert_eq!(algos.len(), 11);
            let tag = format!("faulty-{panics}-{}", kind == BackendKind::Cpu);
            let report = run_tiny(kind, &algos, &tag);
            assert!(!report.correct, "{tag}");
            assert_eq!(report.failed * 11, report.attempted, "{tag}");
            let frac = report
                .per_layer
                .iter()
                .find(|m| m.name == "failed_frac")
                .unwrap()
                .value;
            assert!(
                (frac - 1.0 / 11.0).abs() < 1e-12,
                "{tag}: failed_frac {frac}"
            );
        }
    }
}
