//! `perfbench` — the repository benchmark.
//!
//! Runs one workload for a fixed wall-clock budget and prints, as the
//! last line of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//! ```
//!
//! Workloads (`perfbench/predictions.json` says why each exists):
//!
//! * `vivaldi-king-attack`, `nps-planetlab-attack`, `vivaldi-streamed-chaos`
//!   — full secured-simulator cells over three scenarios derived from
//!   the seed, repeated until the budget is spent (`sims.rs`);
//! * `svc-loopback` — an in-process daemon driven over loopback UDP by
//!   a closed-loop generator (`svc.rs`).
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! no tracing. With `--trace 1` the run records spans around every
//! public call of one cell, times each layer from outside on inputs
//! taken from the workload (`layers.rs`), and reports the per-layer
//! metrics instead. The program under test is driven only through its
//! public APIs; nothing in it is instrumented.

mod affinity;
mod layers;
mod sims;
mod svc;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for files the workload writes (the chaos journal).
    pub scratch: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = ".bench_build/perfbench-scratch".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--scratch" => scratch = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch,
    })
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }
}

/// What one run reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations started (simulator steps or request round trips).
    pub attempted: u64,
    /// Operations that failed or belong to a run that failed a check.
    pub failed: u64,
    pub metrics: Metrics,
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ratio that reads 0 instead of NaN when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "svc-loopback" => svc::run(&args),
        name => match sims::spec(name) {
            Some(spec) => sims::run(&spec, &args),
            None => {
                eprintln!("perfbench: unknown workload {name}");
                return ExitCode::from(2);
            }
        },
    };
    // A value JSON cannot carry is a failed check, not a number.
    if outcome.metrics.0.values().any(|(v, _)| !v.is_finite()) {
        eprintln!("perfbench: CHECK FAILED: a metric is not finite");
        outcome.correct = false;
        outcome.failed = outcome.attempted;
        for (v, _) in outcome.metrics.0.values_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }
    // A run that fails a check reports its operations as failed, not
    // as numbers.
    if !outcome.correct {
        outcome.metrics = Metrics::default();
    }
    let mode = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "{} seed={} {mode}: correct={} attempted={} failed={}",
        args.workload, args.seed, outcome.correct, outcome.attempted, outcome.failed
    );
    for (name, (value, unit)) in &outcome.metrics.0 {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    println!("{}", render(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
