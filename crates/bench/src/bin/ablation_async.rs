//! Ablation (paper Appendix C.1): synchronous + PipeFisher vs asynchronous
//! pipelines.
//!
//! Two ways to fill bubbles:
//!
//! * **PipeFisher** keeps the synchronous flush and fills the bubbles with
//!   K-FAC work — fresh gradients, stale curvature
//!   (`θ_{t+1} = θ_t − η·F̂⁻¹_{t−n}·g_t`);
//! * **asynchronous pipelines** (PipeDream-style) remove the flush and fill
//!   the bubbles with *stale gradient* work
//!   (`θ_{t+1} = θ_t − η·g_{t−m}`, m up to D).
//!
//! This binary compares (a) the schedule side — utilization of sync vs
//! async 1F1B as the horizon grows — and (b) the optimization side —
//! convergence of fresh vs delayed gradients on the synthetic LM task.

use pipefisher_bench::pct;
use pipefisher_core::{assign, AssignOptions};
use pipefisher_lm::{BatchSampler, OptimizerChoice, SyntheticLanguage, TrainOptions, Trainer};
use pipefisher_nn::{BertConfig, BertForPreTraining};
use pipefisher_optim::LrSchedule;
use pipefisher_perfmodel::Setting;
use pipefisher_pipeline::{async_staleness, build_async_1f1b, PipelineScheme};
use pipefisher_sim::simulate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("=== Ablation: PipeFisher (sync + K-FAC bubbles) vs asynchronous pipelines ===\n");

    // (a) Schedule side.
    let setting = Setting::fig3(PipelineScheme::OneFOneB, 1);
    let costs = setting.costs();
    println!("schedule utilization (BERT-Base costs, D=4, N_micro=4/step):");
    let sync = simulate(&PipelineScheme::OneFOneB.build(4, 4), &costs).unwrap();
    println!(
        "  sync 1F1B (flush every step):        {}",
        pct(sync.utilization())
    );
    for horizon in [1usize, 4, 16] {
        let g = build_async_1f1b(4, 4, horizon);
        let tl = simulate(&g, &costs).unwrap();
        println!(
            "  async 1F1B over {horizon:>2} steps (no flush): {}",
            pct(tl.utilization())
        );
    }
    let opts = AssignOptions::for_setting(&setting);
    let pf = assign(&setting.graph(), &costs, &opts).unwrap();
    println!(
        "  sync 1F1B + PipeFisher:              {} (and curvature refreshed every {:.1} steps)",
        pct(pf.steady_utilization),
        pf.steady_refresh_steps
    );
    println!(
        "\nasync gradient staleness by stage (D=4): {:?} steps",
        (0..4).map(|s| async_staleness(4, s)).collect::<Vec<_>>()
    );

    // (b) Optimization side: fresh vs stale gradients.
    println!("\nconvergence on the synthetic LM (tiny BERT, NVLAMB, 80 steps):");
    let run = |delay: usize| {
        let lang = SyntheticLanguage::new(52, 2, 4, 5);
        let sampler = BatchSampler::new(lang, 16);
        let schedule = LrSchedule::PolyWithWarmup {
            base_lr: 1e-2,
            warmup_steps: 20,
            total_steps: 80,
            power: 0.5,
        };
        let mut trainer = Trainer::new(sampler, 16, schedule, 11);
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = BertForPreTraining::new(BertConfig::tiny(52, 16), 0.0, &mut rng);
        trainer.run_with_options(
            &mut model,
            &OptimizerChoice::Lamb { weight_decay: 0.01 },
            80,
            &TrainOptions {
                accumulation_steps: 1,
                grad_delay: delay,
            },
        )
    };
    println!("{:>18} {:>12}", "gradient delay", "final loss");
    for delay in [0usize, 2, 4, 8] {
        let r = run(delay);
        println!("{:>18} {:>12.4}", delay, r.final_loss(11));
    }
    println!("\ntakeaway (App. C.1): async buys utilization with gradient staleness that can");
    println!("slow convergence; PipeFisher buys utilization with curvature staleness, which");
    println!("K-FAC tolerates (see `stale_curvature_still_converges` in tests).");
}
