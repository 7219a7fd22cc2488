//! The traced run (`--trace 1`): per-layer metrics, separate from the timed
//! run so that the end-to-end numbers are taken with all tracing off.
//!
//! The ledger is built from outside. A serial **replica step** re-runs the
//! workload's step one public call at a time under the benchmark's own span
//! recorder; its losses must equal `Trainer::run_with_options`' to the bit,
//! which is what makes it a ledger of the same program. Around it sit
//! probes of the layers a step does not expose (kernels, stage costs,
//! schedule, plan, simulator, checkpoint, the in-program trace sink) and,
//! for pipelined workloads, short runs of the executor itself.
//!
//! A layer that is not on the workload's path reads 0: the K-FAC spans of
//! `lamb_serial_small`, the executor metrics of the serial workloads.

use crate::report::Outcome;
use crate::spans::{self, Recorder};
use crate::spec::{Config, Mode, Opt, Scale, Workload};
use crate::stats::{hidden_aux_share, high_percentile, median, outside_steps_s, same_bits};
use crate::sut;
use std::path::Path;

/// How much work one traced run does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Steps at the start of every run excluded from step statistics.
    pub warmup: usize,
    /// Steps of the replica ledger and of its `Trainer` twin.
    pub ledger_steps: usize,
    /// Steps of each executor run (own, opposite fill, LAMB) and of the
    /// run with the in-program trace sink on.
    pub exec_steps: usize,
    /// Steps of the checkpoint-every-step probe.
    pub ckpt_steps: usize,
    /// Steps' worth of micro-batches the stage-cost probe times.
    pub stage_reps: usize,
}

impl Budget {
    /// The full traced run: ≈20 s at either scale on the reference host.
    pub fn full(scale: Scale) -> Budget {
        match scale {
            Scale::Small => Budget {
                warmup: 4,
                ledger_steps: 40,
                exec_steps: 40,
                ckpt_steps: 8,
                stage_reps: 6,
            },
            Scale::Mid => Budget {
                warmup: 4,
                ledger_steps: 14,
                exec_steps: 16,
                ckpt_steps: 4,
                stage_reps: 3,
            },
        }
    }

    /// The step at which `lm.loss_at_k` reads the smoothed loss curve.
    fn loss_k(&self) -> usize {
        self.ledger_steps * 3 / 4
    }
}

/// Element-wise sum of per-step series of equal length.
fn add(series: &[&[f64]]) -> Vec<f64> {
    (0..series[0].len())
        .map(|i| series.iter().map(|s| s[i]).sum())
        .collect()
}

/// Executor metrics of a pipelined workload; zeros on a serial one.
#[derive(Default)]
struct ExecLedger {
    phase_ms: f64,
    coord_ms: f64,
    idle_ms: f64,
    tail_aux_ms: f64,
    hidden_aux_share: f64,
    overhead_ratio: f64,
    spawn_join_ms: f64,
}

/// Runs one workload's traced run, writes its Chrome trace under `out_dir`
/// and returns its per-layer metrics.
pub fn run(
    workload: &Workload,
    seed: u64,
    budget: Budget,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let config = workload.config;
    let serial = config.serial_twin();
    let warm = budget.warmup;
    let mut out = Outcome::default();
    let mut rec = Recorder::new();

    // Kernels and the flop count, in the same process as the ledger.
    let kernels = sut::kernel_probe(config.scale, seed);
    let fb_flops = sut::fb_flops_per_token(config.scale);

    // The ledger: replica step vs. the trainer it replicates.
    let replica_losses = sut::replica(serial, seed, budget.ledger_steps, &mut rec);
    let ledger: Vec<spans::Span> = rec.spans().to_vec();
    let twin = sut::run(serial, seed, budget.ledger_steps);
    out.count_run(&twin);
    out.attempted += budget.ledger_steps as u64;
    out.failed += replica_losses.iter().filter(|l| !l.is_finite()).count() as u64;
    out.check(same_bits(&replica_losses, &twin.losses()), || {
        "replica-step losses differ from Trainer::run_with_options' (the ledger is of another program)".into()
    });
    if twin.rows.len() <= warm {
        return Err(format!(
            "the serial twin completed too few steps: {:?}",
            out.violations
        ));
    }

    let per_step = |name| spans::per_step_ms(&ledger, name, warm);
    let step = per_step("lm.step");
    let sample = per_step("lm.sample");
    let train = per_step("nn.train_step");
    let scale_grads = per_step("lm.scale_grads");
    let fold = per_step("optim.fold");
    let invert = per_step("optim.invert");
    let precond = per_step("optim.precond_update");
    let lamb = per_step("optim.lamb_update");
    let kfac = add(&[&fold, &invert, &precond]);
    let layers = add(&[&sample, &train, &kfac, &lamb]);
    let loop_self: Vec<f64> = step.iter().zip(&layers).map(|(s, l)| s - l).collect();
    let step_self = spans::per_step_self_ms(&ledger, "lm.step", warm);
    let coverage = 1.0 - step_self.iter().sum::<f64>() / step.iter().sum::<f64>();
    // What the trainer's rows time: sampling, forward/backward with the
    // gradient scaling, and the optimizer — not zero_grad or the norm.
    let replica_rows = add(&[&sample, &train, &scale_grads, &kfac, &lamb]);
    let twin_ms = twin.step_ms();
    let replica_ratio = median(&replica_rows) / median(&twin_ms[warm..]);
    let kfac_share: Vec<f64> = kfac.iter().zip(&step).map(|(k, s)| k / s).collect();
    let train_step_ms = median(&spans::durations_ms(&ledger, "nn.train_step", warm));
    let train_gflops = fb_flops * (sut::BATCH * sut::SEQ) as f64 / train_step_ms / 1e6;
    out.check(coverage >= 0.95, || {
        format!("lm.ledger_coverage {coverage:.4} < 0.95: the spans miss part of the step")
    });
    // Bit-equal losses already prove the replica is the trainer's step; the
    // time ratio compares two short runs and is too noisy to fail a run on.
    if !(0.95..=1.05).contains(&replica_ratio) {
        out.note(format!(
            "WARNING: lm.replica_ratio {replica_ratio:.4} is outside 0.95–1.05; read the ledger's times with care"
        ));
    }

    // Stage costs and what pipeline / sim / core make of them.
    let stages = sut::stage_probe(config.scale, seed, budget.stage_reps, &mut rec);
    let schedule = sut::schedule_probe(&stages);
    let stage_total: Vec<f64> = (0..sut::N_STAGES)
        .map(|s| stages.fwd_ms[s] + stages.bwd_ms[s])
        .collect();
    let slowest = (0..sut::N_STAGES)
        .max_by(|&a, &b| stage_total[a].total_cmp(&stage_total[b]))
        .expect("at least one stage");
    let stage_mean = stage_total.iter().sum::<f64>() / sut::N_STAGES as f64;

    // The executor itself, for workloads that use it.
    let mut exec = ExecLedger::default();
    // The run whose rows describe the workload: its own executor run, or
    // the serial twin.
    let mut own = twin.clone();
    if let Mode::Pipe { fill } = config.mode {
        let pipe = |opt, fill| Config {
            opt,
            mode: Mode::Pipe { fill },
            ..config
        };
        own = sut::run(config, seed, budget.exec_steps);
        let other = sut::run(pipe(config.opt, !fill), seed, budget.exec_steps);
        let lamb_pipe = sut::run(pipe(Opt::Lamb, true), seed, budget.exec_steps);
        for r in [&own, &other, &lamb_pipe] {
            out.count_run(r);
        }
        let (Some(own_exec), Some(other_exec)) = (own.exec, other.exec) else {
            return Err(format!("a pipelined run failed: {:?}", out.violations));
        };
        if own.rows.len() <= warm || lamb_pipe.rows.len() <= warm {
            return Err(format!(
                "a pipelined run completed too few steps: {:?}",
                out.violations
            ));
        }
        for (what, run) in [("own", &own), ("opposite-fill", &other)] {
            let n = run.rows.len().min(twin.rows.len());
            out.check(same_bits(&run.losses()[..n], &twin.losses()[..n]), || {
                format!("{what} pipelined losses differ from the serial twin's within {n} steps")
            });
        }
        let per_device_step = (budget.exec_steps * sut::N_STAGES) as f64;
        let (tail_fill, tail_nofill) = if fill {
            (own_exec.tail_aux_ms, other_exec.tail_aux_ms)
        } else {
            (other_exec.tail_aux_ms, own_exec.tail_aux_ms)
        };
        let phase = |r: &sut::RunResult| {
            median(
                &r.rows[warm..]
                    .iter()
                    .map(|row| row.phase_ms)
                    .collect::<Vec<_>>(),
            )
        };
        exec = ExecLedger {
            phase_ms: phase(&own),
            coord_ms: median(
                &own.rows[warm..]
                    .iter()
                    .map(|r| r.optimizer_ms)
                    .collect::<Vec<_>>(),
            ),
            idle_ms: own_exec.bubble_idle_ms / per_device_step,
            tail_aux_ms: own_exec.tail_aux_ms / per_device_step,
            hidden_aux_share: hidden_aux_share(tail_fill, tail_nofill),
            overhead_ratio: phase(&lamb_pipe) / schedule.pred_phase_ms,
            spawn_join_ms: outside_steps_s(own.run_s, &own.step_ms()) * 1e3,
        };
    }
    let own_ms = own.step_ms();
    let (hi_pct, hi_ms) = high_percentile(&own_ms[warm..]);
    let last = own.rows.last().expect("own run has rows");

    // Checkpoint probe, in a directory of its own that is removed again.
    let ckpt_dir = out_dir.join(format!(
        "ckpt-{}-{seed}-{}",
        workload.name,
        std::process::id()
    ));
    let ckpt = sut::ckpt_probe(serial, seed, budget.ckpt_steps, &ckpt_dir);
    // The probe's result is reported below; a directory that cannot be
    // removed must not hide it.
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let ckpt = ckpt?;
    out.attempted += budget.ckpt_steps as u64;

    // The in-program trace sink: the same run with it on.
    sut::set_program_trace(true);
    let traced = sut::run(config, seed, budget.exec_steps);
    sut::set_program_trace(false);
    let events = sut::drain_program_trace();
    out.count_run(&traced);
    if traced.rows.len() <= warm {
        return Err(format!(
            "the run with tracing on completed too few steps: {:?}",
            out.violations
        ));
    }
    let n = traced.rows.len().min(twin.rows.len());
    out.check(
        same_bits(&traced.losses()[..n], &twin.losses()[..n]),
        || format!("losses with the trace sink on differ from the serial twin's within {n} steps"),
    );
    let trace_overhead = median(&traced.step_ms()[warm..]) / median(&own_ms[warm..]);

    let k = budget.loss_k().min(twin.smoothed.len() - 1);
    let rows = own.rows.len() as f64;
    for (name, value) in [
        ("lm.sample_ms", median(&sample)),
        ("lm.loop_self_ms", median(&loop_self)),
        ("lm.ledger_coverage", coverage),
        ("lm.replica_ratio", replica_ratio),
        ("lm.step_ms_hi", hi_ms),
        ("lm.step_ms_hi_pct", hi_pct),
        ("lm.loss_at_k", twin.smoothed[k]),
        (
            "lm.final_loss",
            *twin.smoothed.last().expect("twin has rows"),
        ),
        ("lm.exec_phase_ms", exec.phase_ms),
        ("lm.exec_coord_ms", exec.coord_ms),
        ("lm.exec_idle_ms", exec.idle_ms),
        ("lm.exec_tail_aux_ms", exec.tail_aux_ms),
        ("lm.exec_hidden_aux_share", exec.hidden_aux_share),
        ("lm.exec_overhead_ratio", exec.overhead_ratio),
        ("lm.exec_spawn_join_ms", exec.spawn_join_ms),
        ("nn.train_step_ms", train_step_ms),
        ("nn.stage_fwd_ms", stages.fwd_ms[slowest]),
        ("nn.stage_bwd_ms", stages.bwd_ms[slowest]),
        ("nn.stage_imbalance", stage_total[slowest] / stage_mean),
        ("nn.train_step_gflops", train_gflops),
        (
            "nn.frac_of_gemm_peak",
            train_gflops / kernels.gemm_peak_gflops,
        ),
        ("tensor.gemm_peak_gflops", kernels.gemm_peak_gflops),
        ("tensor.gemm_ffn_gflops", kernels.gemm_ffn_gflops),
        ("tensor.gram_gflops", kernels.gram_gflops),
        ("tensor.chol_inv_ms", kernels.chol_inv_ms),
        ("tensor.chol_inv_gflops", kernels.chol_inv_gflops),
        ("tensor.chol_inv_small_ms", kernels.chol_inv_small_ms),
        ("optim.fold_ms", median(&fold)),
        ("optim.invert_ms", median(&invert)),
        ("optim.precond_update_ms", median(&precond)),
        ("optim.lamb_update_ms", median(&lamb)),
        ("optim.kfac_share", median(&kfac_share)),
        ("optim.inversions_per_step", last.inversions as f64 / rows),
        (
            "optim.curvature_refreshes_per_step",
            last.curvature_refreshes as f64 / rows,
        ),
        ("pipeline.build_ms", schedule.build_ms),
        (
            "pipeline.nominal_bubble_share",
            schedule.nominal_bubble_share,
        ),
        ("core.plan_ms", schedule.plan_ms),
        ("core.aux_units", schedule.aux_units as f64),
        ("sim.pred_phase_ms", schedule.pred_phase_ms),
        ("sim.simulate_ms", schedule.simulate_ms),
        ("perfmodel.fb_flops_per_token", fb_flops),
        ("ckpt.write_ms", ckpt.write_ms),
        ("ckpt.bytes", ckpt.bytes as f64),
        ("ckpt.load_ms", ckpt.load_ms),
        ("trace.overhead_ratio", trace_overhead),
        (
            "trace.events_per_step",
            events as f64 / traced.rows.len() as f64,
        ),
    ] {
        out.metric(name, value);
    }

    out.note(format!(
        "ledger: {} replica steps ({} after warm-up), loss_at_k reads step {k}; executor runs: {} steps; \
         step_ms_hi is p{hi_pct:.1} of {} samples",
        budget.ledger_steps,
        step.len(),
        if matches!(config.mode, Mode::Serial) { 0 } else { budget.exec_steps },
        own_ms.len() - warm,
    ));
    out.note(format!(
        "stage costs (ms, fwd/bwd): s0 {:.3}/{:.3}, s1 {:.3}/{:.3}; counts: {:?}",
        stages.fwd_ms[0],
        stages.bwd_ms[0],
        stages.fwd_ms[1],
        stages.bwd_ms[1],
        rec.counts(),
    ));

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace-{}-seed{seed}.json", workload.name));
    std::fs::write(&trace_path, spans::chrome_json(rec.spans(), rec.counts()))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    out.note(format!(
        "wrote {} ({} spans)",
        trace_path.display(),
        rec.spans().len()
    ));
    Ok(out)
}
