//! The timed run (`--trace 0`): end-to-end metrics with all tracing off.
//!
//! Closed loop, one client: each optimizer step starts when the previous
//! one ends. One process measures, in order,
//!
//! 1. **set-up**, several times: build language, sampler, trainer and model
//!    from the seed and run the warm-up steps through the workload's entry
//!    point (plan lowering, thread spawn/join, arena fill and first factor
//!    allocation are all in there); `setup_s` is the median;
//! 2. for pipelined workloads, the **serial oracle**: the same seed on
//!    `Trainer::run_with_options`, whose losses the pipelined run must
//!    reproduce bit for bit;
//! 3. the **measured run**: warm-up steps plus as many steps as fill
//!    `--seconds` at the step time seen during set-up.

use crate::report::{peak_rss_mb, Outcome};
use crate::spec::{Mode, Workload};
use crate::stats::{high_percentile, median, outside_steps_s, same_bits};
use crate::sut;

/// How much work one timed run does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Steps at the start of every run excluded from step statistics (arena
    /// fill, first factor allocation). Also the length of a set-up run.
    pub warmup: usize,
    /// How many times set-up is repeated.
    pub setup_reps: usize,
    /// Steps of the serial oracle a pipelined run is compared with.
    pub oracle_steps: usize,
    /// Timed steps of the measured run, beyond the warm-up.
    pub steps: Steps,
}

/// How the measured run's length is chosen.
#[derive(Debug, Clone, Copy)]
pub enum Steps {
    /// As many steps as fit this many seconds (at least `MIN_TIMED_STEPS`).
    Seconds(f64),
    /// Exactly this many.
    Exactly(usize),
}

/// Fewest timed steps a time-bounded run makes, so that the median has
/// samples even when a step is slow.
const MIN_TIMED_STEPS: usize = 12;
/// Fewest timed steps for which "the loss falls" and "the rows cover the
/// wall" are checked; shorter (smoke) runs are too noisy for either.
const MIN_STEPS_FOR_TREND: usize = 24;

/// Runs one workload's timed run and returns its end-to-end metrics.
pub fn run(workload: &Workload, seed: u64, budget: Budget) -> Result<Outcome, String> {
    let config = workload.config;
    let mut out = Outcome::default();

    // 1. Set-up, repeated. Every repetition is also a determinism probe:
    // its losses must be the measured run's first losses.
    let setups: Vec<sut::RunResult> = (0..budget.setup_reps)
        .map(|_| sut::run(config, seed, budget.warmup))
        .collect();
    for s in &setups {
        out.count_run(s);
    }
    let setup_s: Vec<f64> = setups.iter().map(|s| s.build_s + s.run_s).collect();
    let timed_steps = match budget.steps {
        Steps::Exactly(n) => n,
        Steps::Seconds(s) => {
            // The last step of each set-up is the closest to steady state.
            let seen_ms: Vec<f64> = setups
                .iter()
                .filter_map(|s| s.step_ms().last().copied())
                .collect();
            if seen_ms.is_empty() {
                return Err(format!(
                    "set-up runs completed no steps: {:?}",
                    out.violations
                ));
            }
            ((s * 1e3 / median(&seen_ms)).ceil() as usize).max(MIN_TIMED_STEPS)
        }
    };
    let steps = budget.warmup + timed_steps;

    // 2. Serial oracle (pipelined workloads only).
    let oracle = matches!(config.mode, Mode::Pipe { .. })
        .then(|| sut::run(config.serial_twin(), seed, budget.oracle_steps.min(steps)));
    if let Some(o) = &oracle {
        out.count_run(o);
    }

    // 3. The measured run.
    let measured = sut::run(config, seed, steps);
    out.count_run(&measured);
    let losses = measured.losses();
    if losses.len() <= budget.warmup {
        return Err(format!(
            "measured run completed too few steps: {:?}",
            out.violations
        ));
    }

    // Correctness of the outputs.
    for (i, s) in setups.iter().enumerate() {
        let n = s.rows.len().min(losses.len());
        out.check(same_bits(&s.losses()[..n], &losses[..n]), || {
            format!("set-up run {i} and the measured run disagree on the first {n} losses")
        });
    }
    if let Some(o) = &oracle {
        let n = o.rows.len().min(losses.len());
        out.check(n > 0 && same_bits(&o.losses()[..n], &losses[..n]), || {
            format!("pipelined losses differ from the serial oracle's within the first {n} steps")
        });
    }
    let step_ms = measured.step_ms();
    let last = measured.smoothed.len() - 1;
    let row_share = 1.0 - outside_steps_s(measured.run_s, &step_ms) / measured.run_s;
    if timed_steps >= MIN_STEPS_FOR_TREND {
        let (early, late) = (measured.smoothed[budget.warmup], measured.smoothed[last]);
        out.check(late < early, || {
            format!(
                "smoothed loss did not fall: {early} at step {} → {late}",
                budget.warmup
            )
        });
        out.check(row_share >= 0.97, || {
            format!("step rows cover only {row_share:.4} of the run's wall-clock")
        });
    }

    // End-to-end metrics.
    let timed = &step_ms[budget.warmup..];
    out.metric("step_ms_p50", median(timed));
    out.metric(
        "tokens_per_s",
        (steps * sut::TOKENS_PER_STEP) as f64 / measured.run_s,
    );
    out.metric("setup_s", median(&setup_s));
    out.metric("peak_rss_mb", peak_rss_mb()?);

    // Informational: sample counts, the tail, convergence.
    let (pct, hi) = high_percentile(timed);
    out.note(format!(
        "steps: {} warm-up + {timed_steps} timed ({} samples); step_ms p{pct:.1} = {hi:.3} ms; \
         step rows cover {row_share:.4} of the {:.3} s run; set-up repeated {}×",
        budget.warmup,
        timed.len(),
        measured.run_s,
        budget.setup_reps,
    ));
    let final_loss = measured.smoothed[last];
    out.note(format!(
        "final_loss = {final_loss:.17} nats (bits {:#018x}) after {steps} steps",
        final_loss.to_bits()
    ));
    out.note(match measured.steps_to_target {
        Some(k) => format!(
            "steps_to_target = {k} steps, time_to_target_s = {:.3} s (smoothed loss ≤ {})",
            step_ms[..=k].iter().sum::<f64>() / 1e3,
            sut::TARGET_LOSS
        ),
        None => format!(
            "steps_to_target: smoothed loss {} not reached in {steps} steps (use --steps 240 on a *_small workload)",
            sut::TARGET_LOSS
        ),
    });
    Ok(out)
}
