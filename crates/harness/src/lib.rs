//! Deterministic conformance & chaos-testing harness for the pipeline
//! executor (DESIGN.md §3.14).
//!
//! PipeFisher's correctness claim is that K-FAC work scheduled into
//! pipeline bubbles is *exactly* the serial work, just reordered. This
//! crate proves that mechanically, three layers deep:
//!
//! 1. **Chaos fabric** ([`FaultPlan`]) — every injected stall, panic,
//!    slow-stage delay, and out-of-order aux pickup derives from one `u64`
//!    seed via keyed hashing on logical coordinates, so a fault schedule
//!    replays byte-for-byte from the seed.
//! 2. **Conformance checker** ([`check_conformance`]) — drains the run's
//!    trace spans and validates them against the lowered `ExecutablePlan`:
//!    per-device program order, exactly-once coverage of every
//!    forward/backward and K-FAC unit, fold/invert dependency order, and
//!    no overlapping slices on a device track.
//! 3. **Scenario runner** ([`Scenario`], [`run_scenario`], [`run_soak`]) —
//!    seeded generation over (scheme × stages × micro-batches × optimizer
//!    × fault plan); fault-free runs must additionally match the serial
//!    `Trainer` oracle (itself thread-count invariant) bitwise, injected
//!    faults must surface as the matching `ExecError`. Failure messages
//!    always embed the seed.
//!
//! The checker itself is validated by mutation (`tests/
//! conformance_mutations.rs`): dropped, duplicated, reordered, and
//! device-moved events must each make it fail.

mod conformance;
mod fault;
mod report;
mod scenario;

pub use conformance::{
    check_conformance, extract_events, ConformanceError, EventKind, ExecEvent, StepSpec,
};
pub use fault::{splitmix64, CheckpointFault, FaultPlan};
pub use report::{run_soak, soak_report_json, SoakConfig, SoakSummary};
pub use scenario::{
    execute, run_scenario, Execution, OptimizerKind, OracleCache, Scenario, ScenarioFailure,
    ScenarioOutcome,
};
