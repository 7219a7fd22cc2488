//! Soak runner: executes a block of seeded scenarios and writes a
//! `SOAK.json` report in the same artifact style as the `BENCH_*.json`
//! files (a `host_cores` count and a `note` caveat are always present).

use crate::scenario::{run_scenario, OracleCache, Scenario, ScenarioOutcome};
use serde_json::{json, Value};

/// Soak parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Scenario count; scenario `i` uses seed `base_seed + i`.
    pub scenarios: usize,
    /// First seed of the block.
    pub base_seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            scenarios: 32,
            base_seed: 0,
        }
    }
}

/// Aggregate result of a soak run.
#[derive(Debug, Default)]
pub struct SoakSummary {
    /// Scenarios executed.
    pub total: usize,
    /// Fault-free scenarios that passed conformance + bitwise parity.
    pub clean: usize,
    /// Scenarios whose injected fault surfaced correctly.
    pub faulted: usize,
    /// Kill-and-resume scenarios that resumed bitwise-identical to the
    /// serial oracle.
    pub resumed: usize,
    /// Total events the conformance checker validated.
    pub events_checked: usize,
    /// Serial oracles trained (cache size).
    pub oracles: usize,
    /// Contract violations; each message embeds the reproducing seed.
    pub failures: Vec<String>,
}

impl SoakSummary {
    /// Whether every scenario honored its contract.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `cfg.scenarios` consecutive seeds and aggregates the outcomes.
/// Progress goes to stderr (one line per scenario); failures are collected,
/// not fatal, so one bad seed does not hide the rest of the block.
pub fn run_soak(cfg: &SoakConfig) -> SoakSummary {
    let mut cache = OracleCache::default();
    let mut summary = SoakSummary::default();
    for i in 0..cfg.scenarios {
        let seed = cfg.base_seed.wrapping_add(i as u64);
        let sc = Scenario::from_seed(seed);
        summary.total += 1;
        match run_scenario(&sc, &mut cache) {
            Ok(ScenarioOutcome::Clean { events_checked }) => {
                summary.clean += 1;
                summary.events_checked += events_checked;
                eprintln!(
                    "soak seed {seed}: clean, {events_checked} events conform [{}]",
                    sc.describe()
                );
            }
            Ok(ScenarioOutcome::Faulted { error }) => {
                summary.faulted += 1;
                eprintln!("soak seed {seed}: fault surfaced correctly ({error})");
            }
            Ok(ScenarioOutcome::Resumed { resumed_at }) => {
                summary.resumed += 1;
                eprintln!(
                    "soak seed {seed}: killed at step {resumed_at}, resumed bitwise-identical \
                     [{}]",
                    sc.describe()
                );
            }
            Err(failure) => {
                eprintln!("soak FAILURE: {failure}");
                summary.failures.push(failure.to_string());
            }
        }
    }
    summary.oracles = cache.len();
    summary
}

/// Serializes a soak run in the repo's bench-artifact style.
pub fn soak_report_json(cfg: &SoakConfig, summary: &SoakSummary) -> Value {
    json!({
        "bench": "soak",
        "workload": format!(
            "{} seeded chaos scenarios (seeds {}..{}) over scheme x stages x micro-batches \
             x optimizer x fault plan; fault-free runs checked for plan conformance and \
             bitwise parity with the serial trainer",
            cfg.scenarios,
            cfg.base_seed,
            cfg.base_seed + cfg.scenarios as u64,
        ),
        "host_cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "note": "any failure message embeds the reproducing u64 seed; replay with \
                 Scenario::from_seed(seed).",
        "base_seed": cfg.base_seed,
        "scenarios": summary.total,
        "clean": summary.clean,
        "faulted": summary.faulted,
        "resumed": summary.resumed,
        "events_checked": summary.events_checked,
        "oracles_trained": summary.oracles,
        "failures": summary.failures.clone(),
        "passed": summary.passed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_has_artifact_caveat_fields() {
        let cfg = SoakConfig {
            scenarios: 2,
            base_seed: 9,
        };
        let summary = SoakSummary {
            total: 2,
            clean: 1,
            faulted: 1,
            resumed: 0,
            events_checked: 120,
            oracles: 1,
            failures: vec![],
        };
        let v = soak_report_json(&cfg, &summary);
        assert!(v.get("host_cores").and_then(Value::as_i64).unwrap_or(0) >= 1);
        assert!(v
            .get("note")
            .and_then(Value::as_str)
            .is_some_and(|s| s.contains("seed")));
        assert_eq!(v.get("passed").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("scenarios").and_then(Value::as_i64), Some(2));
    }
}
