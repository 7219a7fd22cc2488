//! Figure 6 (left): pretraining convergence, NVLAMB vs K-FAC.
//!
//! The paper pretrains BERT-Base on Wikipedia (mini-batch 8,192); K-FAC —
//! with a shorter warmup enabled by its better conditioning — reaches
//! NVLAMB's final loss in 42 % of the steps. That scale is far beyond CPU,
//! so this reproduction runs the same *comparison* scaled down: a tiny BERT
//! on the synthetic masked-LM + NSP language (see `pipefisher-lm`), with
//! both optimizers sharing the base learning rate and K-FAC using the
//! shorter warmup, exactly as in Appendix B.2.
//!
//! The shape target is the step *ratio*: K-FAC reaches the baseline's final
//! loss in well under 100 % of the baseline's steps. Wall-clock mapping to
//! the 256-GPU cluster is done by `fig6_time_mapping`.

use pipefisher_bench::{fmt_minutes, pct};
use pipefisher_core::{assign, AssignOptions};
use pipefisher_lm::{BatchSampler, OptimizerChoice, SyntheticLanguage, Trainer};
use pipefisher_nn::{BertConfig, BertForPreTraining};
use pipefisher_optim::{KfacConfig, LrSchedule};
use pipefisher_perfmodel::Setting;
use rand::rngs::StdRng;
use rand::SeedableRng;

const STEPS: usize = 900;
const WARMUP_LAMB: usize = 250;
const WARMUP_KFAC: usize = 75; // same 600/2000 ratio as the paper
const BASE_LR: f64 = 1.2e-2;
const VOCAB: usize = 68;
const SEQ: usize = 32;
const BATCH: usize = 32;
const SMOOTH: usize = 21;

fn make(seed: u64) -> (Trainer, BertForPreTraining, LrSchedule, LrSchedule) {
    let lang = SyntheticLanguage::new(VOCAB, 2, 4, 2024);
    let sampler = BatchSampler::new(lang, SEQ);
    let lamb_sched = LrSchedule::PolyWithWarmup {
        base_lr: BASE_LR,
        warmup_steps: WARMUP_LAMB,
        total_steps: STEPS,
        power: 0.5,
    };
    let kfac_sched = LrSchedule::PolyWithWarmup {
        base_lr: BASE_LR,
        warmup_steps: WARMUP_KFAC,
        total_steps: STEPS,
        power: 0.5,
    };
    let trainer = Trainer::new(sampler, BATCH, lamb_sched.clone(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let model = BertForPreTraining::new(BertConfig::tiny(VOCAB, SEQ), 0.0, &mut rng);
    (trainer, model, lamb_sched, kfac_sched)
}

fn main() {
    println!("=== Figure 6 (left, scaled down): tiny-BERT pretraining on the synthetic LM ===");
    println!(
        "    ({STEPS} steps, batch {BATCH}, seq {SEQ}, vocab {VOCAB}; warmup {WARMUP_LAMB} vs {WARMUP_KFAC} steps)\n"
    );

    // NVLAMB baseline.
    let (mut trainer, mut model, _lamb_sched, kfac_sched) = make(42);
    let lamb_run = trainer.run(
        &mut model,
        &OptimizerChoice::Lamb { weight_decay: 0.01 },
        STEPS,
    );

    // K-FAC with the PipeFisher-achievable refresh interval.
    let fig6 = Setting::fig6();
    let opts = AssignOptions::for_setting(&fig6);
    let schedule = assign(&fig6.graph(), &fig6.costs(), &opts).expect("fig6 assignment fits");
    let refresh = schedule.steady_refresh_steps.ceil().max(1.0) as usize;
    let (mut trainer, mut model, _, _) = make(42);
    let mut trainer2 = Trainer::new(trainer_sampler_clone(&mut trainer), BATCH, kfac_sched, 42);
    let kfac_run = trainer2.run(
        &mut model,
        &OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 3e-2,
                ema_decay: 0.5,
                curvature_interval: refresh,
                inversion_interval: refresh,
                kl_clip: Some(1e-2),
                factor_block_size: None,
            },
        },
        STEPS,
    );

    // Report curves every 20 steps.
    let ls = lamb_run.smoothed(SMOOTH);
    let ks = kfac_run.smoothed(SMOOTH);
    println!("{:>6} {:>10} {:>10}", "step", "NVLAMB", "K-FAC");
    for i in (0..STEPS).step_by(20) {
        println!("{:>6} {:>10.4} {:>10.4}", i, ls[i], ks[i]);
    }

    let target = lamb_run.final_loss(SMOOTH);
    let kfac_steps = kfac_run.steps_to_reach(target, SMOOTH);
    println!("\nNVLAMB final (smoothed) loss: {target:.4} at step {STEPS}");
    match kfac_steps {
        Some(s) => {
            let ratio = s as f64 / STEPS as f64;
            println!("K-FAC reaches it at step {s} ({})", pct(ratio));
            println!("paper: 2,961 / 7,038 steps (42.0%)");
            // Wall-clock mapping with the simulated 256-GPU step times.
            let t_lamb = schedule.t_step_baseline * STEPS as f64;
            let t_kfac = schedule.t_step * s as f64;
            println!(
                "\nwall-clock mapping (time/step from the 256-GPU Chimera simulation):\n  NVLAMB {} vs K-FAC {} -> {} (paper: 48.7%)",
                fmt_minutes(t_lamb),
                fmt_minutes(t_kfac),
                pct(t_kfac / t_lamb)
            );
        }
        None => println!("K-FAC did not reach the target within {STEPS} steps"),
    }
    println!("\n(K-FAC curvature refreshed every {refresh} steps — the interval the PipeFisher");
    println!(" bubble schedule achieves for this pipeline, vs ~100 in prior distributed K-FAC.)");
}

/// The `Trainer` owns its sampler; rebuild an identical one so both runs see
/// the same data distribution (deterministic construction).
fn trainer_sampler_clone(_t: &mut Trainer) -> BatchSampler {
    BatchSampler::new(SyntheticLanguage::new(VOCAB, 2, 4, 2024), SEQ)
}
