//! Plumbing shared by the `bench_*` binaries: argument parsing, sample
//! statistics, the committed-baseline scraper, the `--check` regression gate
//! and the JSON emitter.
//!
//! Exit codes follow one convention across the binaries: 0 on success, 1 on
//! a failed gate (a perf regression or a violated contract), 2 on a bad
//! argument or an unreadable baseline.

use std::str::FromStr;
use std::time::Instant;

/// Command-line options, consumed by name.
///
/// Every query takes its option out of the argument list; whatever is left
/// afterwards is rejected, so a misspelled option is an error rather than
/// silently ignored.  An option's value is the argument right after it;
/// when an option repeats, the last occurrence wins.
pub struct Args {
    rest: Vec<String>,
    known: Vec<&'static str>,
}

impl Args {
    /// Runs `options` over `args`, then rejects any argument it did not
    /// consume.
    fn parse<T>(
        args: impl IntoIterator<Item = String>,
        options: impl FnOnce(&mut Args) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut args = Args {
            rest: args.into_iter().collect(),
            known: Vec::new(),
        };
        let parsed = options(&mut args)?;
        match args.rest.first() {
            None => Ok(parsed),
            Some(other) => Err(format!(
                "unknown argument {other}; supported: {}",
                args.known.join(", ")
            )),
        }
    }

    /// Runs `options` over the process arguments and rejects any argument
    /// it did not consume; prints the error and exits 2 on any failure.
    pub fn from_env<T>(options: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
        Self::parse(std::env::args().skip(1), options).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Whether the switch `name` was given.
    pub fn flag(&mut self, name: &'static str) -> bool {
        self.known.push(name);
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() < before
    }

    /// The value of option `name`, if given.  It is an error if the value is
    /// missing, does not parse as `T` or fails `valid`; the message says
    /// that `name` needs `what`.
    pub fn value<T: FromStr>(
        &mut self,
        name: &'static str,
        what: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.known.push(name);
        let mut value = None;
        while let Some(i) = self.rest.iter().position(|a| a == name) {
            self.rest.remove(i);
            let parsed = (i < self.rest.len())
                .then(|| self.rest.remove(i))
                .and_then(|raw| raw.parse().ok())
                .filter(|v| valid(v));
            value = Some(parsed.ok_or_else(|| format!("{name} needs {what}"))?);
        }
        Ok(value)
    }
}

/// The validity predicate that accepts every value.
pub fn any<T>(_: &T) -> bool {
    true
}

/// Nearest-rank percentile `p` (in percent) of a sample set, sorted in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// The median `sorted[n / 2]` of a sample set, sorted in place.  For an even
/// count this is the upper middle sample, where [`percentile`] at 50 gives
/// the lower one.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Median wall-clock milliseconds of `samples` runs of `f`, after one
/// warm-up run.
pub fn median_ms(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut times)
}

/// Arithmetic mean of a sample set.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The least-squares slope of `ln y` against `ln x`: the exponent `k` of the
/// power law `y ∝ x^k` that best fits the points.  Needs at least two
/// distinct `x`; every coordinate must be positive.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let (mx, my) = (
        mean(&logs.iter().map(|p| p.0).collect::<Vec<_>>()),
        mean(&logs.iter().map(|p| p.1).collect::<Vec<_>>()),
    );
    let sxy: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// A committed `BENCH_*.json` baseline, read as text.  The binaries write
/// one object per line, so `--check` scrapes lines instead of parsing JSON.
pub struct Baseline {
    path: String,
    text: String,
}

impl Baseline {
    /// Reads the baseline at `path`; exits 2 if it cannot be read.
    pub fn read(path: &str) -> Baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("--check: cannot read {path}: {e}");
            std::process::exit(2);
        });
        Baseline {
            path: path.to_string(),
            text,
        }
    }

    /// The first `"key": number` at or after the first line that contains
    /// `line_marker`.
    pub fn field(&self, line_marker: &str, key: &str) -> Option<f64> {
        let key = format!("\"{key}\": ");
        let tail = self
            .text
            .lines()
            .skip_while(|l| !l.contains(line_marker))
            .find_map(|l| l.split_once(&key))?
            .1;
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(tail.len());
        tail[..end].parse().ok()
    }

    /// [`Baseline::field`], exiting 2 if the baseline lacks it.
    pub fn require(&self, line_marker: &str, key: &str) -> f64 {
        self.field(line_marker, key).unwrap_or_else(|| {
            eprintln!("--check: no {key} after {line_marker} in {}", self.path);
            std::process::exit(2);
        })
    }
}

/// The `--check` verdict: prints `label`, both values and their ratio, and
/// exits 1 if `measured` exceeds `committed` by more than `tolerance_pct`.
///
/// Every gate passes a best-of-N floor as `measured`: co-tenant load only
/// ever adds time, so a genuine regression raises the floor and transient
/// load does not.
pub fn gate(label: &str, measured: f64, committed: f64, tolerance_pct: f64) {
    let ratio = measured / committed;
    println!(
        "{label}: {measured:.3} ms vs committed {committed:.3} ms \
         (x{ratio:.3}, tolerance +{tolerance_pct:.0}%)"
    );
    if ratio > 1.0 + tolerance_pct / 100.0 {
        eprintln!("PERF REGRESSION: {label} exceeds the committed baseline");
        std::process::exit(1);
    }
}

/// The host block, `{"host": {"cores": N, "cpu_model": "..."}}`, so a
/// printed number records the machine that produced it.
pub fn host_json() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{{\"host\": {{\"cores\": {cores}, \"cpu_model\": \"{cpu_model}\"}}}}")
}

/// Writes `json` to `out`, prints it, then prints `wrote {out}`.
pub fn emit(out: &str, json: &str) {
    std::fs::write(out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{json}");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(file: &str) -> Baseline {
        Baseline::read(&format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")))
    }

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn baseline_reads_what_the_ci_gates_read() {
        let compiler = committed("BENCH_compiler.json");
        assert_eq!(compiler.field("\"n\": 80", "end_to_end_ms"), Some(3.955));
        let service = committed("BENCH_service.json");
        assert_eq!(service.field("\"miss\"", "p50_ms"), Some(0.1126));
        assert_eq!(service.field("\"contended\"", "p99_ms"), Some(5.2740));
        assert_eq!(service.field("\"clients\"", "count"), Some(4.0));
        let drift = committed("BENCH_drift.json");
        assert_eq!(drift.field("\"warm\"", "p50_ms"), Some(3.069));
        assert_eq!(drift.field("\"qubits\"", "qubits"), Some(80.0));
        assert_eq!(drift.field("\"absent\"", "p50_ms"), None);
        assert_eq!(drift.field("\"warm\"", "absent"), None);
    }

    #[test]
    fn median_takes_the_upper_middle_and_percentile_the_nearest_rank() {
        assert_eq!(median(&mut [4.0, 2.0, 3.0, 1.0]), 3.0);
        assert_eq!(percentile(&mut [4.0, 2.0, 3.0, 1.0], 50.0), 2.0);
        assert_eq!(percentile(&mut [4.0, 2.0, 3.0, 1.0], 99.0), 4.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn loglog_slope_recovers_a_power_law_exponent() {
        let cubic: Vec<(f64, f64)> = [80.0, 200.0, 500.0]
            .iter()
            .map(|&n: &f64| (n, 0.5 * n.powi(3)))
            .collect();
        assert!((loglog_slope(&cubic) - 3.0).abs() < 1e-9);
        assert!(loglog_slope(&[(10.0, 4.0), (20.0, 4.0)]).abs() < 1e-12);
    }

    #[test]
    fn args_take_flags_and_values_and_reject_the_rest() {
        let parsed = Args::parse(args(&["--smoke", "--samples", "3", "--out", "x"]), |a| {
            let samples = a.value("--samples", "a positive integer", |&n: &usize| n > 0)?;
            let out = a.value::<String>("--out", "a path", any)?;
            Ok((a.flag("--smoke"), a.flag("--kernels"), samples, out))
        });
        assert_eq!(parsed, Ok((true, false, Some(3), Some("x".to_string()))));

        let samples = |list: &[&str]| {
            Args::parse(args(list), |a| {
                a.value("--samples", "a positive integer", |&n: &usize| n > 0)
            })
        };
        assert_eq!(samples(&["--samples", "2", "--samples", "5"]), Ok(Some(5)));
        assert_eq!(
            samples(&["--sample", "2"]),
            Err("unknown argument --sample; supported: --samples".to_string())
        );
        let needs = Err("--samples needs a positive integer".to_string());
        assert_eq!(samples(&["--samples"]), needs);
        assert_eq!(samples(&["--samples", "many"]), needs);
        assert_eq!(samples(&["--samples", "0"]), needs);
    }
}
