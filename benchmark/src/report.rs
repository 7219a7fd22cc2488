//! What one benchmark run reports: named metric values, the failure count,
//! human-readable notes, and the provenance that makes a number comparable.

use crate::spec::MetricDef;
use crate::sut;
use std::fmt::Write as _;

/// Result of one `--workload` run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value)` for every metric of the run's list, in list order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Optimizer steps attempted over every run this process made.
    pub attempted: u64,
    /// Steps that did not complete or produced a non-finite loss — or every
    /// attempted step when a correctness check failed.
    pub failed: u64,
    /// Correctness checks that failed (empty = outputs are correct).
    pub violations: Vec<String>,
    /// Informational lines: sample counts, percentiles, convergence.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a correctness check; a failed one fails every step.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Counts a finished run's steps: the ones it did not complete or whose
    /// loss is not finite are failures.
    pub fn count_run(&mut self, run: &sut::RunResult) {
        self.attempted += run.attempted as u64;
        let finite = run.rows.iter().filter(|r| r.loss.is_finite()).count();
        self.failed += (run.attempted - finite.min(run.attempted)) as u64;
        if let Some(e) = &run.error {
            self.violations.push(format!("run stopped early: {e}"));
        }
    }
}

/// The run's last line of standard output: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`. Fails if the outcome does
/// not hold exactly the metrics of `defs`, each finite — a result that does
/// not match the schema must not be printed as one.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    if names != expected {
        return Err(format!(
            "emitted metrics {names:?} differ from the declared {expected:?}"
        ));
    }
    let failed = if outcome.correct() {
        outcome.failed
    } else {
        outcome.attempted
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        outcome.correct() && outcome.failed == 0,
        outcome.attempted.max(1),
    );
    for (i, ((name, value), def)) in outcome.metrics.iter().zip(defs).enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest decimal that round-trips: every digit
        // measured, and never an exponent, so the line is valid JSON.
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.unit
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    Ok(line)
}

/// Human-readable table of a run's metrics, one `name value unit` per line.
pub fn table(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut out = String::new();
    for ((name, value), def) in outcome.metrics.iter().zip(defs) {
        writeln!(out, "  {name:<36} {value:>16.6} {}", def.unit).expect("writing to a String");
    }
    out
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Cores the scheduler will give this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One-line provenance record: what a reader needs before comparing this
/// run's numbers with another's. `run.sh` passes the toolchain and commit in
/// through the environment; a checkout that is not a git repository reads
/// `unknown`.
pub fn provenance(workload: &str, seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let (simd, lanes) = sut::dispatch_provenance();
    format!(
        "provenance: workload={workload} seed={seed} host_cores={} cpu=\"{cpu}\" simd={simd} \
         pool_lanes={lanes} stage_threads={} rustc=\"{}\" git_commit={}",
        host_cores(),
        sut::N_STAGES,
        env("PF_BENCH_RUSTC"),
        env("PF_BENCH_COMMIT"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn full_outcome() -> Outcome {
        let mut o = Outcome {
            attempted: 40,
            ..Outcome::default()
        };
        for (i, d) in END_TO_END.iter().enumerate() {
            o.metric(d.name, 1.5 + i as f64);
        }
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&full_outcome(), &END_TO_END).unwrap();
        let json = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|v| v.as_i64()), Some(40));
        let metrics = json.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), def) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(def.unit));
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
        }
    }

    #[test]
    fn a_failed_check_fails_every_step() {
        let mut o = full_outcome();
        o.check(false, || "losses differ from the serial oracle".into());
        let line = result_line(&o, &END_TO_END).unwrap();
        let json = serde_json::from_str(&line).unwrap();
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(json.get("failed").and_then(|v| v.as_i64()), Some(40));
    }

    #[test]
    fn missing_extra_or_non_finite_metrics_are_refused() {
        let mut o = full_outcome();
        o.metrics.pop();
        assert!(result_line(&o, &END_TO_END).is_err());
        let mut o = full_outcome();
        o.metric("surprise", 1.0);
        assert!(result_line(&o, &END_TO_END).is_err());
        let mut o = full_outcome();
        o.metrics[0].1 = f64::NAN;
        assert!(result_line(&o, &END_TO_END).is_err());
    }

    #[test]
    fn values_print_without_exponents() {
        let mut o = full_outcome();
        o.metrics[0].1 = 1.25e-7;
        o.metrics[1].1 = 3.0e12;
        let line = result_line(&o, &END_TO_END).unwrap();
        assert!(line.contains("0.000000125") && line.contains("3000000000000"));
        serde_json::from_str(&line).expect("valid JSON");
    }
}
