//! `pipefisher` — command-line interface to the PipeFisher reproduction.
//!
//! The subcommands, their arguments and flags are listed once, in
//! [`USAGE`] (what `pipefisher --help` prints).
//!
//! Each subcommand names the flags it reads (`args::check_flags`): any
//! other `--flag`, or a value flag without its value, is an error.

mod args;
mod cmd_assign;
mod cmd_ckpt;
mod cmd_model;
mod cmd_schedule;
mod cmd_soak;
mod cmd_sweep;
mod cmd_train;

use std::process::ExitCode;

const USAGE: &str = "\
pipefisher — fill pipeline bubbles with second-order optimizer work

USAGE:
    pipefisher schedule <gpipe|1f1b|chimera|interleaved|async> <D> <N_micro>
                        [--recompute] [--csv] [--virtual V] [--steps K]
                        [--trace-out FILE]
        Render a pipeline schedule as an ASCII timeline (or CSV); with
        --trace-out also write a Chrome/Perfetto trace of the timeline.

    pipefisher assign <gpipe|1f1b|chimera> <arch> <hw> <D> <B_micro> [blocks] [W]
                      [--recompute] [--json] [--trace-out FILE]
        Run PipeFisher's bubble assignment for a paper-style setting and
        report utilization, refresh interval, and the filled timeline.

    pipefisher model <arch> <hw> <D> <B_micro> [--json]
        Evaluate the closed-form §3.3 step model for all three schemes.

    pipefisher train <lamb|kfac> <steps> [--seed N] [--trace-out FILE]
                     [--metrics-out FILE]
                     [--pipeline-stages D] [--scheme gpipe|1f1b|chimera]
                     [--micro-batches N] [--no-fill]
                     [--checkpoint-dir DIR] [--checkpoint-every N]
                     [--checkpoint-retain R] [--resume latest|PATH]
        Pretrain a tiny BERT on the synthetic language and print the loss
        curve; optionally record wall-clock trace spans and per-step
        metrics (JSONL). --pipeline-stages runs the step on D stage worker
        threads (scheme default gpipe, 4 micro-batches), filling pipeline
        bubbles with K-FAC work; --no-fill serializes that work after the
        stage's pipeline work instead.
        Losses are bitwise identical to the serial loop either way.
        --checkpoint-dir writes crash-safe checkpoints every N steps
        (default: final step only; retain R newest, default 3); --resume
        restores one (latest = newest in --checkpoint-dir) and continues —
        the resumed run is bitwise identical to an uninterrupted one.

    pipefisher ckpt inspect <PATH>
        Validate a checkpoint file (magic, version, CRCs) and print its
        section table and training metadata; PATH may be a checkpoint
        directory (inspects the newest generation).

    pipefisher soak [N] [--seed S] [--out FILE]
        Run N seeded chaos scenarios (default 32, seeds S..S+N) against the
        pipeline executor: fault-free runs are checked for plan conformance
        and bitwise parity with the serial trainer, injected faults must
        surface as the right error. Writes a SOAK.json report (default
        results/SOAK.json); any failure embeds its reproducing seed.

    pipefisher sweep <arch> [--json]
        (curvature+inversion)/bubble ratio across D, B_micro, and hardware.

ARCHITECTURES: bert-base bert-large t5-base t5-large opt-125m opt-350m
HARDWARE:      p100 v100 rtx3090";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("schedule") => cmd_schedule::run(&argv[1..]),
        Some("assign") => cmd_assign::run(&argv[1..]),
        Some("model") => cmd_model::run(&argv[1..]),
        Some("train") => cmd_train::run(&argv[1..]),
        Some("ckpt") => cmd_ckpt::run(&argv[1..]),
        Some("soak") => cmd_soak::run(&argv[1..]),
        Some("sweep") => cmd_sweep::run(&argv[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
