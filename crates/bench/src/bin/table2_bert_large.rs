//! Table 2: BERT-Large Phase-1 pretraining time, NVLAMB vs K-FAC.
//!
//! The paper takes the step counts from Pauloski et al. (2022) — NVLAMB
//! needs 7,038 steps, K-FAC 5,000 — and *simulates* the wall-clock by
//! multiplying with the per-step times measured on 8 P100 GPUs with Chimera
//! (the Figure 4 setting): 2,345.6 ms baseline, 2,499.5 ms PipeFisher
//! (+6.5 %), giving 275.1 min vs 208.3 min (75.7 %).
//!
//! This binary reproduces the table with our simulated per-step times.

use pipefisher_bench::{fmt_minutes, fmt_ms, pct};
use pipefisher_core::{assign, AssignOptions};
use pipefisher_perfmodel::Setting;

/// Step counts from Pauloski et al. (2022), as used by the paper.
const NVLAMB_STEPS: usize = 7_038;
const KFAC_STEPS: usize = 5_000;
const PHASE2_STEPS: usize = 1_563;

fn main() {
    println!("=== Table 2: BERT-Large Phase 1 (mini-batch 64K), simulated wall-clock ===\n");
    let setting = Setting::fig4();
    let opts = AssignOptions::for_setting(&setting);
    let schedule = assign(&setting.graph(), &setting.costs(), &opts).expect("assignment fits");

    let t_nvlamb = schedule.t_step_baseline;
    let t_kfac = schedule.t_step;
    let total_nvlamb = t_nvlamb * NVLAMB_STEPS as f64;
    let total_kfac = t_kfac * KFAC_STEPS as f64;

    println!(
        "{:<10} {:<22} {:>7} {:>12} {:>11} {:>9} {:>7}",
        "Optimizer", "Pipeline scheme", "Steps", "Time/step", "Time", "Ph2 steps", "F1"
    );
    println!(
        "{:<10} {:<22} {:>7} {:>12} {:>11} {:>9} {:>7}",
        "NVLAMB",
        "Chimera",
        NVLAMB_STEPS,
        fmt_ms(t_nvlamb),
        fmt_minutes(total_nvlamb),
        PHASE2_STEPS,
        "90.1%",
    );
    println!(
        "{:<10} {:<22} {:>7} {:>12} {:>11} {:>9} {:>7}",
        "K-FAC",
        "Chimera w/ PipeFisher",
        KFAC_STEPS,
        fmt_ms(t_kfac),
        fmt_minutes(total_kfac),
        PHASE2_STEPS,
        "90.15%",
    );
    println!(
        "\ntime ratio K-FAC/NVLAMB: {} (paper: 75.7% — 208.3 / 275.1 min)",
        pct(total_kfac / total_nvlamb)
    );
    println!(
        "per-step overhead: {} (paper: ~6.5% — 2499.5 / 2345.6 ms)",
        pct(t_kfac / t_nvlamb - 1.0)
    );
    println!(
        "GPU utilization: {} -> {} (paper: 59.8% -> 97.6%)",
        pct(schedule.utilization_baseline),
        pct(schedule.steady_utilization)
    );
    println!("\n(F1 after fine-tuning and the step counts are quoted from Pauloski et al. 2022,");
    println!(" exactly as the paper does; only the per-step times are simulated here.)");
}
