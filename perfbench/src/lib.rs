//! End-to-end and per-layer benchmark of the triangle-counting workspace.
//!
//! Load shape: a batch system driven in a closed loop by one process. It
//! prepares one dataset (`DatasetSpec::build` plus
//! `PreparedDataset::from_graph`), then runs every registry algorithm on
//! it through `Backend::run`, fanned over the rayon pool with at most
//! `nproc` workers, and starts the next sweep only when the last cell of
//! the previous one has been verified. Every count is checked against the
//! prepared ground truth, which is itself checked once per run against a
//! second, sequential oracle.
//!
//! The cycle model is unvalidated: the repository holds no hardware
//! measurements, so no error figure is given. Modelled caches start cold
//! in every cell, because each cell runs on fresh `DeviceMem`.
//!
//! End-to-end figures come from untraced sweeps. With tracing on, one
//! more setup and one serial sweep run under [`trace::Tracer`], which
//! times the calls into each layer's public functions from outside and
//! writes them as a Chrome trace-event file.

pub mod probe;
pub mod trace;
pub mod workload;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpu_sim::{Device, DeviceMem, ProfileCounters, SimError};
use graph_data::{cpu_ref, orient, DagGraph, DatasetSpec, GraphStats, Orientation};
use rayon::prelude::*;
use tc_algos::api::{AlgoMeta, TcAlgorithm, TcOutput};
use tc_algos::device_graph::DeviceGraph;
use tc_core::{Backend, CpuBackend, PreparedDataset, RunOutcome, RunRecord, SimBackend};

use crate::trace::Tracer;
use crate::workload::BackendKind;

/// Preparations per run: at least [`SETUP_MIN_REPS`], and more until
/// [`SETUP_SECONDS`] have passed; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_SECONDS: f64 = 2.0;
/// Timed sweeps per run at least. With the warm-up sweep this gives the
/// determinism check a repeat to compare.
const MIN_SWEEPS: usize = 1;

pub struct Opts {
    /// How long the timed sweeps run, at least [`MIN_SWEEPS`] of them.
    pub seconds: f64,
    /// With tracing on: where the traced pass writes its Chrome
    /// trace-event file.
    pub trace: Option<PathBuf>,
    /// Tags every span of this run.
    pub run_id: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

pub struct Report {
    /// The gated end-to-end metrics (`BENCHMARK.json` `end_to_end`).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (`BENCHMARK.json` `per_layer`): first the
    /// untraced whole-run figures (model totals, failure share,
    /// calibration probe), then, with tracing on, the traced ones.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Human-readable lines: sample counts, notes, failed cells.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with the given metrics.
    pub fn json_line(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    trace::json_str(&m.name),
                    m.value,
                    trace::json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sample count, minimum, median and maximum.
fn summary(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "n={} min {min:.4} median {:.4} max {max:.4}",
        values.len(),
        median(values)
    )
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// One cell through `Backend::run`. The sim backend does not isolate
/// host-side panics, so the harness does: a panicking cell becomes a
/// failed record and the sweep goes on.
fn run_cell(backend: &dyn Backend, algo: &dyn TcAlgorithm, data: &PreparedDataset) -> RunRecord {
    catch_unwind(AssertUnwindSafe(|| backend.run(algo, data))).unwrap_or_else(|payload| RunRecord {
        algorithm: algo.name().to_string(),
        dataset: data.spec.name,
        backend: backend.tag(),
        outcome: RunOutcome::Failed(SimError::KernelFault(format!(
            "{} cell panicked: {}",
            backend.tag(),
            panic_message(payload)
        ))),
        partition: None,
        wall: Duration::ZERO,
    })
}

/// The parallel sweep: every algorithm on one prepared dataset, cells
/// fanned over the pool, records in registry order.
fn sweep(
    backend: &dyn Backend,
    algos: &[Box<dyn TcAlgorithm>],
    data: &PreparedDataset,
) -> Vec<RunRecord> {
    (0..algos.len())
        .into_par_iter()
        .map(|a| run_cell(backend, algos[a].as_ref(), data))
        .collect()
}

/// What must repeat exactly for one seed: per cell, the triangle count,
/// modelled cycles and issued warp slots.
type Fingerprint = Vec<Option<(u64, u64, u64)>>;

fn fingerprint(records: &[RunRecord]) -> Fingerprint {
    records
        .iter()
        .map(|r| match &r.outcome {
            RunOutcome::Ok {
                triangles,
                kernel_cycles,
                counters,
                ..
            } => Some((*triangles, *kernel_cycles, counters.issued_slots)),
            RunOutcome::Failed(_) => None,
        })
        .collect()
}

fn failed_cells(records: &[RunRecord]) -> u64 {
    records.iter().filter(|r| !r.is_verified()).count() as u64
}

/// Prepare the dataset untraced, as users pay for it.
fn setup(spec: &DatasetSpec) -> PreparedDataset {
    PreparedDataset::from_graph(*spec, spec.build())
}

/// Run one workload: timed setups, timed parallel sweeps, and with
/// `opts.trace` the traced pass. Errors when a repeated run of the same
/// seed gives a different result, or when the trace cannot be written.
pub fn run(
    spec: &DatasetSpec,
    kind: BackendKind,
    algos: &[Box<dyn TcAlgorithm>],
    opts: &Opts,
) -> Result<Report, String> {
    let dev = kind.device();
    let sim;
    let backend: &dyn Backend = match &dev {
        Some(dev) => {
            sim = SimBackend { dev };
            &sim
        }
        None => &CpuBackend,
    };
    let mut notes = Vec::new();
    let mut correct = true;

    // Set-up, several times; each must prepare the same dataset. The
    // previous preparation is dropped first, as a user holds only one.
    let mut setup_s = Vec::new();
    let mut data: Option<PreparedDataset> = None;
    let mut first = None;
    let setup_started = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS || setup_started.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(data.take());
        let started = Instant::now();
        let prepared = black_box(setup(spec));
        setup_s.push(started.elapsed().as_secs_f64());
        let key = (prepared.ground_truth, prepared.stats.edges);
        if *first.get_or_insert(key) != key {
            return Err("two preparations of one seed differ".to_string());
        }
        data = Some(prepared);
    }
    let data = data.expect("at least one preparation ran");
    let oracle = cpu_ref::forward_merge(&data.dag(Orientation::ById));
    if oracle != data.ground_truth {
        correct = false;
        notes.push(format!(
            "ground truth {} disagrees with the sequential oracle {oracle}",
            data.ground_truth
        ));
    }

    // One untimed warm-up sweep, then timed sweeps until `seconds` have
    // passed since the warm-up began.
    let started = Instant::now();
    let warm = sweep(backend, algos, &data);
    let reference = fingerprint(&warm);
    let mut attempted = warm.len() as u64;
    let mut failed = failed_cells(&warm);
    let mut sweep_s = Vec::new();
    while sweep_s.len() < MIN_SWEEPS || started.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let records = sweep(backend, algos, &data);
        sweep_s.push(t.elapsed().as_secs_f64());
        attempted += records.len() as u64;
        failed += failed_cells(&records);
        if fingerprint(&records) != reference {
            return Err(
                "a repeated sweep of one seed gave different counts, cycles or slots".to_string(),
            );
        }
    }
    for r in warm.iter().filter(|r| !r.is_verified()) {
        notes.push(format!("failed cell {}: {:?}", r.algorithm, r.outcome));
    }

    let sweep_med = median(&sweep_s);
    let slots: u64 = warm
        .iter()
        .filter_map(|r| r.counters())
        .map(|c| c.issued_slots)
        .sum();
    let cycles: u64 = warm.iter().filter_map(|r| r.kernel_cycles()).sum();
    notes.push(format!(
        "{} cells per sweep on {} worker(s); setup_s {}; sweep_s {} after one warm-up",
        algos.len(),
        rayon::current_num_threads(),
        summary(&setup_s),
        summary(&sweep_s),
    ));
    let end_to_end = vec![
        metric("sweep_s", "s", sweep_med),
        metric("setup_s", "s", median(&setup_s)),
        // Read before the traced pass and the probe, which are not part
        // of the workload.
        metric("peak_rss_mib", "MiB", peak_rss_mib()?),
    ];

    let mut traced = Vec::new();
    if let Some(path) = &opts.trace {
        let t = Instant::now();
        let serial: Vec<RunRecord> = algos
            .iter()
            .map(|a| run_cell(backend, a.as_ref(), &data))
            .collect();
        let serial_s = t.elapsed().as_secs_f64();
        attempted += serial.len() as u64;
        failed += failed_cells(&serial);
        drop(data);
        let pass = traced_pass(spec, backend, algos, &opts.run_id);
        attempted += pass.records.len() as u64;
        failed += failed_cells(&pass.records);
        if fingerprint(&serial) != reference || fingerprint(&pass.records) != reference {
            return Err(
                "the traced or serial sweep of one seed gave different counts, \
                        cycles or slots"
                    .to_string(),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let json = trace::chrome_trace_json(&pass.tracer, &pass.spans);
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("trace written to {}", path.display()));
        traced = per_layer_metrics(&pass, algos, serial_s, sweep_med);
    }

    let calib = probe::calibrate();
    let mut per_layer = vec![
        metric("model_cycles", "cycles", cycles as f64),
        metric(
            "sim_mslots_per_s",
            "Mslots/s",
            slots as f64 / 1e6 / sweep_med,
        ),
        metric("cells", "count", algos.len() as f64),
        metric("failed_frac", "ratio", failed as f64 / attempted as f64),
        metric("calib.pointer_chase_ns", "ns", calib.pointer_chase_ns),
        metric("calib.dep_add_gops", "Gop/s", calib.dep_add_gops),
    ];
    per_layer.extend(traced);
    Ok(Report {
        end_to_end,
        per_layer,
        attempted,
        failed,
        correct: correct && failed == 0,
        notes,
    })
}

/// Wraps a registry algorithm to time its entry points from outside.
struct TracedAlgo<'a> {
    inner: &'a dyn TcAlgorithm,
    tracer: &'a Tracer,
    cell: usize,
    cell_start: f64,
    blocks: Mutex<u64>,
}

impl TcAlgorithm for TracedAlgo<'_> {
    fn meta(&self) -> AlgoMeta {
        self.inner.meta()
    }

    fn preferred_orientation(&self) -> Orientation {
        self.inner.preferred_orientation()
    }

    fn count(
        &self,
        dev: &Device,
        mem: &mut DeviceMem,
        g: &DeviceGraph,
    ) -> Result<TcOutput, SimError> {
        // `SimBackend::run` does nothing between its entry and this call
        // but create `DeviceMem` and `DeviceGraph::upload` the DAG.
        let name = Some(self.inner.name());
        let upload_end = self.tracer.now();
        self.tracer.record(
            "tc-algos.upload",
            Some(self.cell),
            name,
            self.cell_start,
            upload_end,
        );
        let out = self
            .tracer
            .span("tc-algos.count", Some(self.cell), name, |_| {
                self.inner.count(dev, mem, g)
            });
        if let Ok(o) = &out {
            *self.blocks.lock().expect("blocks lock poisoned") = o.stats.blocks;
        }
        out
    }

    fn count_cpu(&self, dag: &DagGraph) -> u64 {
        self.tracer.span(
            "tc-algos.count_cpu",
            Some(self.cell),
            Some(self.inner.name()),
            |_| self.inner.count_cpu(dag),
        )
    }
}

struct TracedPass {
    tracer: Tracer,
    spans: Vec<trace::Span>,
    records: Vec<RunRecord>,
    /// Launched blocks per cell, in registry order.
    blocks: Vec<u64>,
    stats: GraphStats,
    triangles: u64,
}

/// One traced setup and one serial sweep, one cell at a time so each
/// span measures its own layer.
fn traced_pass(
    spec: &DatasetSpec,
    backend: &dyn Backend,
    algos: &[Box<dyn TcAlgorithm>],
    run_id: &str,
) -> TracedPass {
    let tracer = Tracer::new(run_id.to_string());
    let t = &tracer;
    let data = t.span("bench.setup", None, None, |setup| {
        let graph = t.span("graph-data.build", Some(setup), None, |_| spec.build());
        // `from_graph` is opaque from outside, so its graph-data calls
        // are also run standalone on the same graph to give their share.
        black_box(t.span("graph-data.stats", Some(setup), None, |_| {
            GraphStats::compute(&graph)
        }));
        for o in [
            Orientation::ById,
            Orientation::DegreeAsc,
            Orientation::DegreeDesc,
        ] {
            let dag = t.span("graph-data.orient", Some(setup), None, |_| {
                orient(&graph, o)
            });
            if o == Orientation::DegreeAsc {
                black_box(t.span("graph-data.ground_truth", Some(setup), None, |_| {
                    cpu_ref::forward_merge_parallel(&dag)
                }));
            }
        }
        t.span("tc-core.prepare", Some(setup), None, |_| {
            PreparedDataset::from_graph(*spec, graph)
        })
    });
    let mut blocks = Vec::with_capacity(algos.len());
    let records = t.span("bench.sweep", None, None, |sweep| {
        algos
            .iter()
            .map(|a| {
                t.span("tc-core.cell", Some(sweep), Some(a.name()), |cell| {
                    let algo = TracedAlgo {
                        inner: a.as_ref(),
                        tracer: t,
                        cell,
                        cell_start: t.now(),
                        blocks: Mutex::new(0),
                    };
                    let rec = run_cell(backend, &algo, &data);
                    blocks.push(*algo.blocks.lock().expect("blocks lock poisoned"));
                    rec
                })
            })
            .collect::<Vec<_>>()
    });
    let spans = tracer.spans();
    TracedPass {
        spans,
        records,
        blocks,
        stats: data.stats.clone(),
        triangles: data.ground_truth,
        tracer,
    }
}

/// The traced per-layer metrics. `serial_s` is the untraced serial sweep
/// and `sweep_s` the untraced parallel one.
fn per_layer_metrics(
    pass: &TracedPass,
    algos: &[Box<dyn TcAlgorithm>],
    serial_s: f64,
    sweep_s: f64,
) -> Vec<Metric> {
    let spans = &pass.spans;
    let total = |name: &str| trace::total(spans, name, None);
    let by_algo = |name: &str, algo: &str| trace::total(spans, name, Some(algo));
    let layer_self = trace::layer_self_times(spans);
    let cell_s = total("tc-core.cell");
    let upload_s = total("tc-algos.upload");
    let count_s = total("tc-algos.count") + total("tc-algos.count_cpu");
    let traced_sweep = total("bench.sweep");
    let critical = spans
        .iter()
        .filter(|s| s.name == "tc-core.cell")
        .map(trace::Span::dur)
        .fold(0.0, f64::max);

    let mut m = vec![
        metric("graph-data.build_s", "s", total("graph-data.build")),
        metric("graph-data.stats_s", "s", total("graph-data.stats")),
        metric("graph-data.orient_s", "s", total("graph-data.orient")),
        metric(
            "graph-data.ground_truth_s",
            "s",
            total("graph-data.ground_truth"),
        ),
        metric("graph-data.vertices", "count", pass.stats.vertices as f64),
        metric("graph-data.edges", "count", pass.stats.edges as f64),
        metric("graph-data.triangles", "count", pass.triangles as f64),
        metric(
            "graph-data.max_degree",
            "count",
            pass.stats.max_degree as f64,
        ),
        metric("tc-core.prepare_s", "s", total("tc-core.prepare")),
        metric("tc-core.cell_s", "s", cell_s),
        metric("tc-core.critical_cell_s", "s", critical),
        metric("tc-core.overhead_s", "s", cell_s - upload_s - count_s),
        metric("tc-core.fanout_speedup", "ratio", cell_s / sweep_s),
        metric("tc-algos.upload_s", "s", upload_s),
    ];
    for layer in ["graph-data", "tc-core", "tc-algos"] {
        let v = layer_self.get(layer).copied().unwrap_or(0.0);
        m.push(metric(format!("{layer}.self_s"), "s", v));
    }
    let mut totals = ProfileCounters::default();
    for (a, rec) in algos.iter().zip(&pass.records) {
        let name = a.name();
        let counters = rec.counters().copied().unwrap_or_default();
        totals += counters;
        let count_s = by_algo("tc-algos.count", name);
        let slots = counters.issued_slots;
        let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        m.push(metric(format!("tc-algos.count_s.{name}"), "s", count_s));
        m.push(metric(
            format!("tc-algos.count_cpu_s.{name}"),
            "s",
            by_algo("tc-algos.count_cpu", name),
        ));
        m.push(metric(
            format!("gpu-sim.ns_per_slot.{name}"),
            "ns",
            ratio(count_s * 1e9, slots),
        ));
        m.push(metric(
            format!("gpu-sim.kernel_cycles.{name}"),
            "cycles",
            rec.kernel_cycles().unwrap_or(0) as f64,
        ));
        m.push(metric(
            format!("gpu-sim.global_load_requests.{name}"),
            "count",
            counters.global_load_requests as f64,
        ));
        m.push(metric(
            format!("gpu-sim.warp_efficiency.{name}"),
            "ratio",
            ratio(
                counters.active_thread_slots as f64 / gpu_sim::WARP_SIZE as f64,
                slots,
            ),
        ));
        m.push(metric(
            format!("gpu-sim.gld_tx_per_request.{name}"),
            "ratio",
            counters.gld_transactions_per_request(),
        ));
    }
    m.extend([
        metric("gpu-sim.issued_slots", "count", totals.issued_slots as f64),
        metric(
            "gpu-sim.blocks",
            "count",
            pass.blocks.iter().sum::<u64>() as f64,
        ),
        metric(
            "gpu-sim.dram_sectors",
            "count",
            (totals.dram_load_sectors + totals.gst_transactions + totals.dram_atomic_sectors)
                as f64,
        ),
        metric(
            "gpu-sim.analysis_checks",
            "count",
            (totals.race_checks + totals.sanitizer_checks + totals.lint_checks) as f64,
        ),
        metric(
            "bench.trace_overhead_frac",
            "ratio",
            traced_sweep / serial_s - 1.0,
        ),
        metric(
            "bench.unattributed_s",
            "s",
            layer_self.get("bench").copied().unwrap_or(0.0),
        ),
    ]);
    m
}
