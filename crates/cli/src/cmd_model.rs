//! `pipefisher model` — evaluate the §3.3 closed-form step model.

use crate::args;
use pipefisher_perfmodel::Setting;
use pipefisher_pipeline::PipelineScheme;
use serde_json::json;

pub fn run(args: &[String]) -> Result<(), String> {
    args::check_flags("model", args, &["--json"])?;
    let arch = args::arch(args.first().map(String::as_str).unwrap_or(""))?;
    let hw = args::hardware(args.get(1).map(String::as_str).unwrap_or(""))?;
    let d = args::positive(args::int(args, 2, "D")?, "<D>")?;
    let b_micro = args::positive(args::int(args, 3, "B_micro")?, "<B_micro>")?;
    let json_out = args::has_flag(args, "--json");

    // Chimera's row needs an even D, like its schedule.
    let rows: Vec<_> = PipelineScheme::all()
        .into_iter()
        .filter(|&scheme| args::validate_scheme_shape(scheme, d, d).is_ok())
        .map(|scheme| {
            let setting = Setting {
                arch: arch.clone(),
                hw: hw.clone(),
                scheme,
                d,
                n_micro: d,
                b_micro,
                blocks_per_stage: 1,
                w: 1,
                recompute: false,
            };
            (scheme, setting.step_model())
        })
        .collect();

    if json_out {
        let out: Vec<_> = rows
            .iter()
            .map(|(scheme, m)| {
                json!({
                    "scheme": scheme.name(),
                    "t_pipe_ms": m.t_pipe * 1e3,
                    "t_bubble_ms": m.t_bubble * 1e3,
                    "t_prec_ms": m.t_prec * 1e3,
                    "throughput_seq_per_s": m.throughput,
                    "throughput_baseline_seq_per_s": m.throughput_baseline,
                    "ratio": m.ratio,
                    "memory_gb": (m.m_pipe + m.m_kfac_extra) / 1e9,
                })
            })
            .collect();
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
        return Ok(());
    }

    println!(
        "{} on {} — D={d} (1 block/stage), N_micro={d}, B_micro={b_micro}",
        arch.name, hw.name
    );
    println!(
        "{:<10} | {:>10} {:>11} {:>10} {:>8} {:>9}",
        "scheme", "step (ms)", "bubble (ms)", "thru", "ratio", "mem (GB)"
    );
    for (scheme, m) in rows {
        println!(
            "{:<10} | {:>10.1} {:>11.1} {:>10.1} {:>8.2} {:>9.2}",
            scheme.name(),
            m.t_step_pipefisher * 1e3,
            m.t_bubble * 1e3,
            m.throughput,
            m.ratio,
            (m.m_pipe + m.m_kfac_extra) / 1e9
        );
    }
    Ok(())
}
