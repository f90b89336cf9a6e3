//! End-to-end framework tests: dataset pipeline -> runner -> report /
//! CSV / claims, exercised over a small real sweep.

use tc_compare::core::framework::claims::{check_claims, render_claims};
use tc_compare::core::framework::csv::{write_records, CSV_HEADER};
use tc_compare::core::framework::registry::{algorithm_by_name, all_algorithms};
use tc_compare::core::framework::report::{extract, MatrixView};
use tc_compare::core::{run_matrix_backends, PreparedDataset, SimBackend};
use tc_compare::graph::datasets::GenSpec;
use tc_compare::graph::{DatasetSpec, SizeClass};
use tc_compare::sim::Device;

fn specs() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "pipe-small",
            paper_vertices: 0,
            paper_edges: 0,
            paper_avg_degree: 0.0,
            size_class: SizeClass::Small,
            gen: GenSpec::Rmat {
                scale: 11,
                raw_edges: 12_000,
            },
            seed: 41,
        },
        DatasetSpec {
            name: "pipe-grid",
            paper_vertices: 0,
            paper_edges: 0,
            paper_avg_degree: 0.0,
            size_class: SizeClass::Small,
            gen: GenSpec::Grid {
                rows: 40,
                cols: 40,
                keep: 0.8,
                diag: 0.1,
            },
            seed: 42,
        },
    ]
}

#[test]
fn sweep_report_csv_and_claims_end_to_end() {
    let dev = Device::v100();
    let algos = all_algorithms();
    let specs = specs();
    let records = run_matrix_backends(&[&SimBackend { dev: &dev }], &algos, &specs);
    assert_eq!(records.len(), algos.len() * specs.len());
    assert!(records.iter().all(|r| r.is_verified()), "all cells verify");

    // Figure rendering includes every algorithm and dataset.
    let view = MatrixView::new(&records);
    let fig = view.render_figure("t", extract::time_ms);
    for a in &algos {
        assert!(fig.contains(a.name()), "{} missing from figure", a.name());
    }
    for s in &specs {
        assert!(fig.contains(s.name));
    }

    // Every extractor yields sane values for every cell.
    for a in &view.algorithms {
        for d in &view.datasets {
            let t = view.value(a, d, extract::time_ms).unwrap();
            assert!(t > 0.0);
            let eff = view.value(a, d, extract::warp_efficiency).unwrap();
            assert!(eff > 0.0 && eff <= 100.0);
            assert!(view.value(a, d, extract::load_requests).unwrap() > 0.0);
            assert!(view.value(a, d, extract::tpr).unwrap() >= 0.0);
        }
    }

    // CSV: header + one line per cell, parseable shape.
    let mut csv = Vec::new();
    write_records(&mut csv, &records).unwrap();
    let text = String::from_utf8(csv).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + records.len());
    let cols = CSV_HEADER.split(',').count();
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), cols, "bad row: {l}");
    }

    // Claims evaluate without panicking and produce one verdict each.
    let claims = check_claims(&view, &specs);
    assert!(claims.len() >= 5);
    let rendered = render_claims(&claims);
    assert!(rendered.contains("PAPER-CLAIM"));
}

#[test]
fn registry_lookup_is_total_over_figure_names() {
    for name in [
        "Green", "Polak", "Bisson", "TriCore", "Fox", "Hu", "H-INDEX", "TRUST", "GroupTC",
    ] {
        assert!(algorithm_by_name(name).is_some(), "{name} missing");
    }
}

#[test]
fn prepared_dataset_reuses_orientations_across_algorithms() {
    let dev = Device::v100();
    let spec = specs().remove(0);
    let data = PreparedDataset::prepare(&spec);
    let t0 = data.ground_truth;
    // Running twice must not change ground truth or graph.
    for algo in all_algorithms() {
        let _ = tc_compare::core::run_on_dataset(&dev, algo.as_ref(), &data);
    }
    assert_eq!(data.ground_truth, t0);
}
