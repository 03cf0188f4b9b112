//! End-to-end and per-layer benchmark of the shipped 2QAN configs through
//! the compile service.  See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cold-sweep|zipf-hot|drift-recompile> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).  A traced run also
//! writes its spans and every metric it measured to
//! `.bench_out/<workload>-seed<N>.trace.jsonl`.

mod check;
mod cold_sweep;
mod drift;
mod host;
mod probe;
mod run;
mod stats;
mod trace;
mod zipf_hot;

use std::io::Write;
use std::process::ExitCode;

use run::{Options, Run};
use stats::{json_number, json_string, Metrics};

pub const WORKLOADS: [&str; 3] = ["cold-sweep", "zipf-hot", "drift-recompile"];

/// The end-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [&str; 13] = [
    "setup_s",
    "throughput_rps",
    "latency_p50_ms",
    "latency_tail_ms",
    "latency_geomean_ms",
    "hit_p50_ms",
    "miss_p50_ms",
    "swaps_total",
    "hw_2q_gates_total",
    "hw_2q_depth_total",
    "neg_log10_esp_mean",
    "success_rate",
    "peak_rss_mb",
];

/// The per-layer metrics every workload reports (`--trace 1`).
/// Workload-specific layer numbers (control arms, per-input medians, the
/// invalidation time) are printed and written with the trace instead.
pub const PER_LAYER: [&str; 29] = [
    "service.hash_ms",
    "service.stable_hash_ms",
    "service.self_ms.hit",
    "service.self_ms.miss",
    "service.queue_wait_ms",
    "service.hit_rate",
    "service.insertions",
    "service.evictions",
    "service.warm_share",
    "service.invalidated_entries",
    "service.self_share",
    "core.unify_ms",
    "core.qap-mapping_ms",
    "core.permutation-routing_ms",
    "core.alap-schedule_ms",
    "core.decompose_ms",
    "core.other_ms",
    "core.other_share",
    "core.pipeline_runs",
    "core.full_rung_share",
    "solver.tabu_ms",
    "solver.tabu_iterations",
    "solver.warm_tabu_ms",
    "solver.warm_tabu_iterations",
    "solver.qap_cases",
    "pool.threads_spawned",
    "unattributed_share",
    "trace.overhead_ratio",
    "trace.spans",
];

struct Args {
    workload: String,
    opts: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a non-negative number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        opts: Options {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            setup_repeats: 3,
        },
    })
}

pub fn run_workload(workload: &str, opts: &Options) -> Run {
    match workload {
        "cold-sweep" => cold_sweep::run(opts),
        "zipf-hot" => zipf_hot::run(opts),
        "drift-recompile" => drift::run(opts),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Every metric the run measured, in both modes.
fn all_metrics(run: &Run, trace: bool) -> Metrics {
    let mut all = run.end_to_end();
    all.extend(run.end_to_end_notes());
    all.extend(run.extra.clone());
    if trace {
        all.extend(run.per_layer());
        all.set(
            "trace.spans",
            Some(run.tracer.spans().len() as f64),
            "count",
        );
    }
    all
}

/// The result line: the listed metrics only.  A metric the run could not
/// measure makes the result incorrect.
fn result_line(run: &Run, all: &Metrics, names: &[&str]) -> String {
    let mut correct = run.failures.is_empty();
    let fields: Vec<String> = names
        .iter()
        .map(|name| {
            let metric = all.get(name);
            let (value, unit) = match metric {
                Some(m) if m.value.is_finite() => (m.value, m.unit),
                _ => {
                    correct = false;
                    (0.0, metric.map_or("count", |m| m.unit))
                }
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed(),
        fields.join(", ")
    )
}

fn write_trace(path: &str, host: &str, run: &Run, all: &Metrics) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{host}")?;
    run.tracer.write_jsonl(&mut out)?;
    for (name, m) in all.iter() {
        writeln!(
            out,
            "{{\"metric\": {}, \"value\": {}, \"unit\": {}}}",
            json_string(name),
            if m.value.is_finite() {
                json_number(m.value)
            } else {
                "null".into()
            },
            json_string(m.unit)
        )?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::measure().json();
    let run = run_workload(&args.workload, &args.opts);
    let all = all_metrics(&run, args.opts.trace);

    println!("{host}");
    for failure in &run.failures {
        eprintln!("FAILED: {failure}");
    }
    for (name, m) in all.iter() {
        println!("metric {name} {} {}", json_number(m.value), m.unit);
    }
    if args.opts.trace {
        let path = format!(
            ".bench_out/{}-seed{}.trace.jsonl",
            args.workload, args.opts.seed
        );
        match write_trace(&path, &host, &run, &all) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("error: writing {path}: {e}"),
        }
    }
    let names: &[&str] = if args.opts.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!("{}", result_line(&run, &all, names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_service::cache_key;

    fn quick(seed: u64) -> Options {
        Options {
            seed,
            seconds: 0.0,
            trace: false,
            setup_repeats: 1,
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name ends")].to_string())
                .collect()
        };
        assert_eq!(section("workloads"), WORKLOADS);
        assert_eq!(section("end_to_end"), END_TO_END);
        assert_eq!(section("per_layer"), PER_LAYER);
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn one_seed_gives_identical_quality_and_error_rate() {
        for workload in WORKLOADS {
            let a = run_workload(workload, &quick(3));
            let b = run_workload(workload, &quick(3));
            assert!(a.failures.is_empty(), "{workload}: {:?}", a.failures);
            assert_eq!(a.quality, b.quality, "{workload}");
            assert!(a.quality.artifacts > 0, "{workload}");
            let (ea, eb) = (a.end_to_end_notes(), b.end_to_end_notes());
            assert_eq!(ea.get("error_rate"), eb.get("error_rate"), "{workload}");
            for name in END_TO_END {
                let v = a.end_to_end().get(name).expect(name).value;
                assert!(v.is_finite() && v != 0.0, "{workload}: {name} = {v}");
            }
        }
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric() {
        for workload in WORKLOADS {
            let opts = Options {
                trace: true,
                ..quick(5)
            };
            let run = run_workload(workload, &opts);
            assert!(run.failures.is_empty(), "{workload}: {:?}", run.failures);
            let all = all_metrics(&run, true);
            for name in PER_LAYER {
                let m = all
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name}"));
                assert!(m.value.is_finite(), "{workload}: {name}");
            }
            assert!(result_line(&run, &all, &PER_LAYER).starts_with("{\"correct\": true"));
        }
    }

    #[test]
    fn a_different_seed_changes_the_inputs() {
        let keys = |seed: u64| -> Vec<u128> {
            let compilers = check::Compilers::new(&zipf_hot::compiler_names());
            let mut keys = Vec::new();
            let c = cold_sweep::inputs(seed);
            for r in &c.requests {
                for circuit in &c.circuits[r.slot] {
                    keys.push(cache_key(
                        compilers.get(r.compiler),
                        circuit,
                        &c.devices[r.device],
                    ));
                }
            }
            let d = drift::inputs(seed);
            for c in &d.circuits {
                keys.push(cache_key(compilers.get(drift::COMPILER), c, &d.device));
            }
            keys
        };
        let (one, again, other) = (keys(1), keys(1), keys(2));
        assert_eq!(one, again);
        assert!(one.iter().zip(&other).all(|(a, b)| a != b));
        // The zipf-hot population is fixed; its request stream is seeded.
        let (mut z1, mut z2) = (zipf_hot::inputs(1), zipf_hot::inputs(2));
        let s1: Vec<usize> = (0..50).map(|_| z1.draw()).collect();
        let s2: Vec<usize> = (0..50).map(|_| z2.draw()).collect();
        assert_ne!(s1, s2);
    }
}
