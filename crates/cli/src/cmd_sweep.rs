//! `pipefisher sweep` — refresh-ratio sweep across D, B_micro, hardware.

use crate::args;
use pipefisher_perfmodel::{HardwareProfile, Setting};
use pipefisher_pipeline::PipelineScheme;
use serde_json::json;

pub fn run(args: &[String]) -> Result<(), String> {
    args::check_flags("sweep", args, &["--json"])?;
    let arch = args::arch(args.first().map(String::as_str).unwrap_or(""))?;
    let json_out = args::has_flag(args, "--json");

    let mut records = Vec::new();
    for hw in HardwareProfile::all() {
        for d in [4usize, 8, 16, 32] {
            for b_micro in [1usize, 4, 16, 32] {
                let setting = Setting {
                    arch: arch.clone(),
                    hw: hw.clone(),
                    scheme: PipelineScheme::Chimera,
                    d,
                    n_micro: d,
                    b_micro,
                    blocks_per_stage: 1,
                    w: 1,
                    recompute: false,
                };
                let m = setting.step_model();
                records.push((hw.name.clone(), d, b_micro, m.throughput, m.ratio));
            }
        }
    }

    if json_out {
        let out: Vec<_> = records
            .iter()
            .map(|(hw, d, b, thru, ratio)| {
                json!({"hw": hw, "d": d, "b_micro": b, "throughput": thru, "ratio": ratio})
            })
            .collect();
        println!("{}", serde_json::to_string_pretty(&out).expect("json"));
        return Ok(());
    }

    println!("{} — Chimera, one block/stage, N_micro=D", arch.name);
    println!(
        "{:>8} {:>4} {:>8} | {:>10} {:>7}",
        "hw", "D", "B_micro", "thru", "ratio"
    );
    for (hw, d, b, thru, ratio) in records {
        println!(
            "{:>8} {:>4} {:>8} | {:>10.1} {:>7.2}",
            hw, d, b, thru, ratio
        );
    }
    Ok(())
}
