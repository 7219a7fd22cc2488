//! `pipefisher train` — pretrain a tiny BERT on the synthetic language.

use crate::args;
use pipefisher_lm::{
    BatchSampler, OptimizerChoice, PipelineOptions, SyntheticLanguage, TrainOptions, Trainer,
};
use pipefisher_nn::{BertConfig, BertForPreTraining};
use pipefisher_optim::{KfacConfig, LrSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(args: &[String]) -> Result<(), String> {
    args::check_flags(
        "train",
        args,
        &[
            "--seed N",
            "--trace-out FILE",
            "--metrics-out FILE",
            "--pipeline-stages D",
            "--scheme S",
            "--micro-batches N",
            "--no-fill",
            "--checkpoint-dir DIR",
            "--checkpoint-every N",
            "--checkpoint-retain R",
            "--resume latest|PATH",
        ],
    )?;
    let choice = match args.first().map(String::as_str) {
        Some("lamb") => OptimizerChoice::Lamb { weight_decay: 0.01 },
        Some("kfac") => OptimizerChoice::Kfac {
            weight_decay: 0.01,
            kfac: KfacConfig {
                damping: 3e-2,
                ema_decay: 0.5,
                curvature_interval: 3,
                inversion_interval: 3,
                kl_clip: Some(1e-2),
                factor_block_size: None,
            },
        },
        other => return Err(format!("unknown optimizer {other:?} (lamb | kfac)")),
    };
    let steps = args::positive(args::int(args, 1, "steps")?, "<steps>")?;
    let seed: u64 = args::flag_or(args, "--seed", 42)?;
    let trace_out = args::flag_value(args, "--trace-out");
    let metrics_out = args::flag_value(args, "--metrics-out");
    if trace_out.is_some() {
        pipefisher_trace::set_enabled(true);
    }

    let lang = SyntheticLanguage::new(68, 4, 4, 7);
    let sampler = BatchSampler::new(lang, 16);
    let warmup = if matches!(choice, OptimizerChoice::Kfac { .. }) {
        steps / 12 // the paper's shortened K-FAC warmup (600 vs 2000)
    } else {
        steps * 3 / 10
    };
    let schedule = LrSchedule::PolyWithWarmup {
        base_lr: 1e-2,
        warmup_steps: warmup.max(1),
        total_steps: steps,
        power: 0.5,
    };
    let pipeline = args::train_pipeline(args)?;
    let ckpt = args::train_checkpoint(args)?;

    let mut trainer = Trainer::new(sampler, 16, schedule, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = BertForPreTraining::new(BertConfig::tiny(68, 16), 0.0, &mut rng);
    let run = if let Some(p) = pipeline {
        let mut opts = PipelineOptions::new(p.scheme, p.stages, p.n_micro);
        opts.fill_bubbles = p.fill_bubbles;
        opts.checkpoint = ckpt.clone();
        let outcome = trainer
            .run_pipelined(model, &choice, steps, &opts)
            .map_err(|e| e.to_string())?;
        let busy = outcome.bubble_aux_ms + outcome.bubble_idle_ms;
        eprintln!(
            "pipeline: {} stages, {} micro-batches, scheme {}, bubbles \
             {:.0} ms ({:.0}% filled with K-FAC work, {:.0} ms tail)",
            p.stages,
            p.n_micro,
            p.scheme.name(),
            busy,
            if busy > 0.0 {
                100.0 * outcome.bubble_aux_ms / busy
            } else {
                0.0
            },
            outcome.tail_aux_ms,
        );
        drop(outcome.model); // trained weights; the CLI only reports losses
        outcome.run
    } else {
        let opts = TrainOptions::default();
        trainer
            .run_checkpointed(&mut model, &choice, steps, &opts, &ckpt)
            .map_err(|e| e.to_string())?
    };
    if let Some(policy) = &ckpt.save {
        eprintln!(
            "checkpoints in {} (every {} step(s), retain {})",
            policy.dir.display(),
            policy.every,
            policy.retain
        );
    }
    if trace_out.is_some() {
        pipefisher_trace::set_enabled(false);
    }
    if let Some(path) = trace_out {
        let events = pipefisher_trace::drain();
        let json = serde_json::to_string_pretty(&pipefisher_trace::chrome_trace_json(&events))
            .expect("json");
        args::write_file(path, &json)?;
        eprintln!(
            "wrote {} wall-clock trace events to {path} (open in ui.perfetto.dev)",
            events.len()
        );
    }
    if let Some(path) = metrics_out {
        args::write_file(path, &pipefisher_lm::to_jsonl(&run.metrics))?;
        eprintln!("wrote {} StepMetrics rows to {path}", run.metrics.len());
    }
    let sm = run.smoothed(9);
    // A resumed run only records losses from its restart step onward.
    let first = steps - sm.len();
    println!("{} — {} steps (warmup {})", run.label, steps, warmup.max(1));
    if sm.is_empty() {
        println!("nothing to run: the resumed checkpoint had already completed");
        return Ok(());
    }
    for i in (0..sm.len()).step_by((sm.len() / 20).max(1)) {
        println!("step {:>5}: loss {:.4}", first + i, sm[i]);
    }
    println!("final smoothed loss: {:.4}", run.final_loss(9));
    Ok(())
}
