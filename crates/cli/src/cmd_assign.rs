//! `pipefisher assign` — run the bubble assignment for a paper-style setting.

use crate::args;
use pipefisher_core::{assign, AssignOptions};
use pipefisher_perfmodel::Setting;
use serde_json::json;

pub fn run(args: &[String]) -> Result<(), String> {
    args::check_flags(
        "assign",
        args,
        &["--recompute", "--json", "--trace-out FILE"],
    )?;
    let scheme = args::scheme(args.first().map(String::as_str).unwrap_or(""))?;
    let arch = args::arch(args.get(1).map(String::as_str).unwrap_or(""))?;
    let hw = args::hardware(args.get(2).map(String::as_str).unwrap_or(""))?;
    let d = args::int(args, 3, "D")?;
    args::validate_scheme_shape(scheme, d, d)?; // N_micro = D
    let b_micro = args::positive(args::int(args, 4, "B_micro")?, "<B_micro>")?;
    // `[blocks] [W]`: the arguments after `<B_micro>` that are neither a
    // flag nor the `--trace-out` value, in order; each must parse.
    let mut counts = [1usize; 2];
    let mut slots = ["[blocks]", "[W]"].into_iter().zip(&mut counts);
    let mut rest = args.iter().skip(5);
    while let Some(arg) = rest.next() {
        if arg == "--trace-out" {
            rest.next();
        } else if !arg.starts_with("--") {
            let (name, count) = slots
                .next()
                .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
            let n = arg
                .parse()
                .map_err(|_| format!("{name} must be a number, got '{arg}'"))?;
            *count = args::positive(n, name)?;
        }
    }
    let [blocks, w] = counts;
    let recompute = args::has_flag(args, "--recompute");
    let json_out = args::has_flag(args, "--json");

    let setting = Setting {
        arch,
        hw,
        scheme,
        d,
        n_micro: d,
        b_micro,
        blocks_per_stage: blocks,
        w,
        recompute,
    };
    let opts = AssignOptions {
        granularity: blocks * 6, // per-layer chunks
        ..AssignOptions::for_setting(&setting)
    };
    let schedule = assign(&setting.graph(), &setting.costs(), &opts).map_err(|e| e.to_string())?;

    if let Some(path) = args::flag_value(args, "--trace-out") {
        // Assignment timelines are in seconds; trace timestamps are µs.
        let json =
            serde_json::to_string_pretty(&schedule.augmented_timeline.chrome_trace_json(1e6))
                .expect("json");
        args::write_file(path, &json)?;
        eprintln!("wrote Chrome trace of the filled timeline to {path}");
    }

    if json_out {
        let out = json!({
            "scheme": scheme.name(),
            "arch": setting.arch.name,
            "hw": setting.hw.name,
            "d": d,
            "b_micro": b_micro,
            "blocks_per_stage": blocks,
            "w": w,
            "recompute": recompute,
            "t_step_baseline_ms": schedule.t_step_baseline * 1e3,
            "t_step_ms": schedule.t_step * 1e3,
            "utilization_baseline": schedule.utilization_baseline,
            "utilization_steady": schedule.steady_utilization,
            "refresh_steps_steady": schedule.steady_refresh_steps,
            "refresh_steps_cold": schedule.refresh_steps,
        });
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
        return Ok(());
    }

    println!(
        "{} / {} on {} — D={d}, B_micro={b_micro}, {blocks} block(s)/stage, W={w}",
        scheme.name(),
        setting.arch.name,
        setting.hw.name
    );
    println!(
        "baseline:   step {:.1} ms, utilization {:.1}%",
        schedule.t_step_baseline * 1e3,
        schedule.utilization_baseline * 100.0
    );
    println!(
        "PipeFisher: step {:.1} ms (+{:.1}%), utilization {:.1}% steady ({:.1}% cold)",
        schedule.t_step * 1e3,
        (schedule.t_step / schedule.t_step_baseline - 1.0) * 100.0,
        schedule.steady_utilization * 100.0,
        schedule.utilization * 100.0
    );
    println!(
        "curvature refresh: every {:.1} steps steady ({} cold-start)",
        schedule.steady_refresh_steps, schedule.refresh_steps
    );
    print!("{}", schedule.augmented_timeline.render_ascii(100));
    Ok(())
}
