//! Runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-skewed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every metric is printed as a `name = value unit` line; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the JSON holds the gated
//! end-to-end metrics; with `--trace 1` the per-layer ones, and the
//! traced spans are written as a Chrome trace-event file under
//! `perfbench/out/`. Exits nonzero, printing no result line, on bad
//! arguments (2), or (3) when a repeated run of one seed disagrees with
//! itself or the run cannot read its peak RSS or write its trace.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::{Workload, WORKLOADS};
use perfbench::Opts;
use tc_core::all_algorithms;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or(format!("unknown workload `{value}`; one of {names:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let spec = w.spec(args.seed);
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let run_id = format!("{}-seed{}-{unix_ms}", w.name, args.seed);
    let opts = Opts {
        seconds: args.seconds,
        trace: args.trace.then(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{run_id}.json"))
        }),
        run_id,
    };
    println!(
        "workload {}: {} recipe, seed {}, {:?} backend",
        w.name, w.recipe, args.seed, w.backend
    );
    println!("note: the cycle model is unvalidated against hardware; no error figure is given");
    println!("note: modelled caches start cold in every cell (fresh DeviceMem per cell)");
    let algos = all_algorithms();
    let report = match perfbench::run(&spec, w.backend, &algos, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    for n in &report.notes {
        println!("note: {n}");
    }
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let result = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!("{}", report.json_line(result));
    ExitCode::SUCCESS
}
