//! The repo's benchmark: end-to-end training runs (serial vs pipelined,
//! LAMB vs K-FAC, bubble filling on vs off) with an outside-in per-layer
//! ledger. See `README.md` next to this crate and `BENCHMARK.json` at the
//! repo root; start it through `run.sh`.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1 [--steps N] [--smoke]
//! run.sh [--seed N] [--smoke]        # every workload, timed then traced
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Without it, every
//! workload runs in a child process of its own (so `peak_rss_mb` is the
//! workload's), the declaration in `BENCHMARK.json` is checked, and the
//! cross-workload ratios are printed.

mod report;
mod spans;
mod spec;
mod stats;
mod sut;
mod timed;
mod traced;

use report::Outcome;
use spec::{MetricDef, Mode, Scale, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Where the traced run writes its Chrome traces and scratch checkpoints;
/// `run.sh` makes the repo root the working directory.
const OUT_DIR: &str = "benchmark/out";
/// Steps excluded from step statistics at the start of every run.
const WARMUP: usize = 4;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    steps: Option<usize>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        steps: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--steps" => {
                let n: usize = value("a step count")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?;
                if !(1..=100_000).contains(&n) {
                    return Err(format!("--steps {n} is outside 1..=100000"));
                }
                args.steps = Some(n);
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Smoke budgets: the same code paths with as few steps as still leave
/// every statistic a sample — for CI, not for numbers.
const SMOKE_WARMUP: usize = 1;
const SMOKE_TIMED_STEPS: usize = 4;

fn timed_budget(args: &Args) -> Result<timed::Budget, String> {
    if args.smoke {
        return Ok(timed::Budget {
            warmup: SMOKE_WARMUP,
            setup_reps: 1,
            oracle_steps: 2,
            steps: timed::Steps::Exactly(args.steps.unwrap_or(SMOKE_TIMED_STEPS)),
        });
    }
    let steps = match (args.steps, args.seconds) {
        (Some(n), _) => timed::Steps::Exactly(n),
        (None, Some(s)) => timed::Steps::Seconds(s),
        (None, None) => return Err("give --seconds or --steps".into()),
    };
    Ok(timed::Budget {
        warmup: WARMUP,
        setup_reps: 5,
        oracle_steps: 6,
        steps,
    })
}

fn traced_budget(args: &Args, scale: Scale) -> traced::Budget {
    if args.smoke {
        return traced::Budget {
            warmup: SMOKE_WARMUP,
            ledger_steps: 3,
            exec_steps: 3,
            ckpt_steps: 1,
            stage_reps: 1,
        };
    }
    traced::Budget::full(scale)
}

/// One workload, one run: prints notes, the metric table and, last, the
/// result line — which is where a failed correctness check is reported
/// (`correct: false`, every step failed), so the process still exits 0.
fn run_one(workload: &Workload, args: &Args) -> Result<(), String> {
    sut::pin_single_lane();
    println!("{}", report::provenance(workload.name, args.seed));
    println!("why: {}", workload.why);
    let pipelined = matches!(workload.config.mode, Mode::Pipe { .. });
    if pipelined && report::host_cores() < sut::N_STAGES {
        println!(
            "note: host_cores < {}: the stage threads time-share a core, so this workload's \
             timings are unresolved as a measure of pipelining",
            sut::N_STAGES
        );
    }
    let (outcome, defs): (Outcome, &[MetricDef]) = if args.trace {
        let budget = traced_budget(args, workload.config.scale);
        (
            traced::run(workload, args.seed, budget, Path::new(OUT_DIR))?,
            &PER_LAYER,
        )
    } else {
        (
            timed::run(workload, args.seed, timed_budget(args)?)?,
            &END_TO_END,
        )
    };
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    println!(
        "{} ({}), seed {}:",
        workload.name,
        if args.trace {
            "traced run, per-layer"
        } else {
            "timed run, end-to-end"
        },
        args.seed
    );
    print!("{}", report::table(&outcome, defs));
    println!("{}", report::result_line(&outcome, defs)?);
    Ok(())
}

/// Runs this program again as a child for one workload and returns the
/// metrics of its result line, or why there are none.
fn run_child(
    workload: &str,
    trace: bool,
    args: &Args,
    seconds: u64,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr goes straight through.
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, output.status
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let json = serde_json::from_str(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    if json.get("correct").and_then(|c| c.as_bool()) != Some(true) {
        return Err(format!(
            "{workload} (trace {}) failed its correctness checks",
            trace as u8
        ));
    }
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// Every workload, timed then traced, each in its own child process, then
/// the ratios that compare workloads. Informational, not gated; every ratio
/// is printed with its base.
fn run_all(args: &Args) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repo root, via run.sh): {e}"))?;
    let seconds = spec::check_declaration(&text)?;
    println!("BENCHMARK.json declares exactly the workloads and metrics this program emits");

    let mut ok = true;
    let mut step_ms = Vec::new();
    let mut tail_aux = Vec::new();
    for w in &WORKLOADS {
        let mut value_of = |trace: bool, name: &str| match run_child(w.name, trace, args, seconds) {
            Ok(metrics) => metrics.into_iter().find(|(k, _)| k == name).map(|(_, v)| v),
            Err(e) => {
                println!("FAILED: {e}");
                ok = false;
                None
            }
        };
        step_ms.push(value_of(false, "step_ms_p50"));
        tail_aux.push(value_of(true, "lm.exec_tail_aux_ms"));
    }

    println!("\ncross-workload ratios (informational; base in brackets):");
    let resolved = report::host_cores() >= sut::N_STAGES;
    let index = |name: &str| {
        WORKLOADS
            .iter()
            .position(|w| w.name == name)
            .expect("known workload")
    };
    let ratio = |label: &str, over: &str, base: &str, needs_cores: bool| {
        let (a, b) = (step_ms[index(over)], step_ms[index(base)]);
        match (a, b) {
            (Some(a), Some(b)) if resolved || !needs_cores => println!(
                "  {label:<28} {:>8.4}  [{over} {a:.3} ms / {base} {b:.3} ms step_ms_p50]",
                a / b
            ),
            _ => println!("  {label:<28} unresolved"),
        }
    };
    ratio(
        "pipe_speedup_small",
        "kfac_serial_small",
        "kfac_pipe2_small",
        true,
    );
    ratio(
        "pipe_speedup_mid",
        "kfac_serial_mid",
        "kfac_pipe2_mid_fill",
        true,
    );
    ratio(
        "fill_speedup",
        "kfac_pipe2_mid_nofill",
        "kfac_pipe2_mid_fill",
        true,
    );
    ratio(
        "kfac_step_overhead",
        "kfac_serial_small",
        "lamb_serial_small",
        false,
    );
    match (
        tail_aux[index("kfac_pipe2_mid_fill")],
        tail_aux[index("kfac_pipe2_mid_nofill")],
    ) {
        (Some(fill), Some(nofill)) if resolved => println!(
            "  {:<28} {:>8.4}  [1 − fill {fill:.3} ms / nofill {nofill:.3} ms lm.exec_tail_aux_ms]",
            "hidden_aux_share_mid",
            stats::hidden_aux_share(fill, nofill)
        ),
        _ => println!("  {:<28} unresolved", "hidden_aux_share_mid"),
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => {
            let workload = spec::workload_named(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; known: {known:?}")
            })?;
            run_one(workload, &args).map(|()| true)
        }
        None => run_all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Every child's output was printed; one of them says what failed.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(2)
        }
    }
}
