//! Property tests over the seeded scenario space: any drawn seed must
//! honor the harness contract — fault-free runs conform to their plan and
//! match the serial oracle bitwise, injected faults surface as the right
//! `ExecError` — and faulty scenarios must replay identically from their
//! seed.

use pipefisher_harness::{
    run_scenario, FaultPlan, OptimizerKind, OracleCache, Scenario, ScenarioOutcome,
};
use pipefisher_lm::StepFault;
use pipefisher_pipeline::PipelineScheme;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

/// One oracle cache across all cases, so repeated (shape, optimizer) draws
/// re-train nothing.
fn cache() -> &'static Mutex<OracleCache> {
    static CACHE: OnceLock<Mutex<OracleCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(OracleCache::default()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]
    #[test]
    fn any_seeded_scenario_honors_its_contract(seed in 0u64..u64::MAX) {
        let sc = Scenario::from_seed(seed);
        let mut cache = cache().lock().unwrap_or_else(|e| e.into_inner());
        let outcome = run_scenario(&sc, &mut cache);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        if let Ok(ScenarioOutcome::Clean { events_checked }) = outcome {
            // A conforming clean run checked at least its pipeline ops.
            prop_assert!(
                events_checked >= 2 * sc.n_stages * sc.n_micro * sc.steps,
                "only {events_checked} events checked for {}",
                sc.describe()
            );
        }
    }
}

/// Pure timing chaos — injected delays, no liveness fault — must preserve
/// bitwise parity and the plan's op order: the paper's "same work,
/// reordered" claim under adversarial timing.
#[test]
fn timing_chaos_preserves_bitwise_parity() {
    let mut cache = cache().lock().unwrap_or_else(|e| e.into_inner());
    for seed in [11u64, 12, 13] {
        let sc = Scenario {
            seed,
            scheme: PipelineScheme::OneFOneB,
            n_stages: 2,
            n_micro: 4,
            steps: 3,
            optimizer: OptimizerKind::Kfac {
                curvature_interval: 1,
                inversion_interval: 2,
            },
            fill_bubbles: true,
            data_seed: 7,
            fault: FaultPlan::timing_only(seed),
        };
        let outcome = run_scenario(&sc, &mut cache).unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(outcome, ScenarioOutcome::Clean { .. }));
    }
}

/// A faulty scenario replays the same outcome from the same seed.
#[test]
fn faulty_scenarios_replay_deterministically() {
    let seed = (0..)
        .find(|&s| {
            matches!(
                Scenario::from_seed(s).fault.fault,
                Some((StepFault::Panic, _, _))
            )
        })
        .expect("some seed draws a panic fault");
    let sc = Scenario::from_seed(seed);
    let mut cache = cache().lock().unwrap_or_else(|e| e.into_inner());
    let a = run_scenario(&sc, &mut cache).unwrap_or_else(|e| panic!("{e}"));
    let b = run_scenario(&sc, &mut cache).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(a, b, "seed {seed} did not replay identically");
    assert!(matches!(a, ScenarioOutcome::Faulted { .. }));
}

/// Failure messages must carry the reproducing seed (the harness's one
/// non-negotiable reporting rule).
#[test]
fn failure_messages_embed_the_seed() {
    let failure = pipefisher_harness::ScenarioFailure {
        seed: 123_456_789,
        message: "synthetic".to_string(),
    };
    let text = failure.to_string();
    assert!(text.contains("123456789"), "{text}");
    assert!(text.contains("Scenario::from_seed"), "{text}");
}
