//! Quickstart: the three layers of the PipeFisher reproduction in one file.
//!
//! 1. Train a tiny BERT with the K-FAC optimizer for a few steps (the
//!    *optimizer* layer — real math, real backprop).
//! 2. Build a Chimera pipeline schedule and fill its bubbles with the K-FAC
//!    work (the *scheduling* layer — the paper's contribution).
//! 3. Evaluate the §3.3 performance model for the same setting (the
//!    *modeling* layer).
//!
//! Run with: `cargo run --release --example quickstart`

use pipefisher::core::{assign, AssignOptions};
use pipefisher::lm::{BatchSampler, SyntheticLanguage};
use pipefisher::nn::{BertConfig, BertForPreTraining, ForwardCtx};
use pipefisher::optim::{Kfac, KfacConfig, Lamb};
use pipefisher::perfmodel::Setting;
use pipefisher::pipeline::PipelineScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- 1. Optimizer layer: a few K-FAC steps on a tiny BERT. ---
    println!("== 1. K-FAC pretraining steps on a tiny BERT ==");
    let language = SyntheticLanguage::new(68, 4, 4, 7);
    let sampler = BatchSampler::new(language, 16);
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = BertForPreTraining::new(BertConfig::tiny(68, 16), 0.0, &mut rng);
    let mut opt = Kfac::new(
        KfacConfig {
            curvature_interval: 2,
            inversion_interval: 2,
            ..Default::default()
        },
        Lamb::new(0.01),
    );
    let mut data_rng = StdRng::seed_from_u64(1);
    for step in 0..10 {
        let batch = sampler.sample(16, &mut data_rng);
        model.zero_grad();
        let out = model.train_step(&batch, &ForwardCtx::train_with_capture());
        opt.step(&mut model, 5e-3);
        println!(
            "  step {step}: loss {:.4} (mlm {:.4}, nsp {:.4})",
            out.total_loss, out.mlm_loss, out.nsp_loss
        );
    }

    // --- 2. Scheduling layer: fill Chimera bubbles with the K-FAC work. ---
    println!("\n== 2. PipeFisher bubble assignment (BERT-Base, Chimera D=4) ==");
    // The paper's Figure 3 shape (3 blocks/stage, N_micro = 4, B_micro = 32,
    // P100) on Chimera.
    let setting = Setting::fig3(PipelineScheme::Chimera, 1);
    let opts = AssignOptions::for_setting(&setting);
    let schedule =
        assign(&setting.graph(), &setting.costs(), &opts).expect("assignment fits the bubbles");
    println!(
        "  utilization {:.1}% -> {:.1}%, curvature refreshed every {:.1} steps",
        schedule.utilization_baseline * 100.0,
        schedule.steady_utilization * 100.0,
        schedule.steady_refresh_steps
    );
    print!("{}", schedule.augmented_timeline.render_ascii(100));

    // --- 3. Modeling layer: the closed-form §3.3 step model. ---
    println!("\n== 3. Performance model (same setting) ==");
    let m = setting.step_model();
    println!(
        "  T_pipe {:.1} ms, T_bubble {:.1} ms, (curv+inv)/bubble ratio {:.2}, memory {:.1} GB",
        m.t_pipe * 1e3,
        m.t_bubble * 1e3,
        m.ratio,
        (m.m_pipe + m.m_kfac_extra) / 1e9
    );
}
