//! Figure 4: profiled Chimera steps, Adam vs PipeFisher, BERT-Large.
//!
//! Paper setting: BERT-Large (L=24), Chimera with 8 stages (3 blocks/
//! stage), 8 GPUs, N_micro=8, B_micro=32, S=128, P100s. Each GPU hosts two
//! stages (down + up pipelines); gradient sync runs between the paired
//! hosts of each stage, and PipeFisher splits the inversion work between
//! them (data + inversion parallelism).
//!
//! Paper shape targets: utilization 59.8 % → 97.6 %; refresh in 4 steps for
//! the outermost stages and 2 for the rest; per-step overhead ≈ 6.5 %.

use pipefisher_bench::{fmt_ms, pct};
use pipefisher_core::{assign, AssignOptions};
use pipefisher_perfmodel::Setting;
use pipefisher_pipeline::WorkKind;

fn main() {
    println!(
        "=== Figure 4: BERT-Large, Chimera D=8 (3 blocks/stage), 8 GPUs, B_micro=32, P100 ===\n"
    );
    let setting = Setting::fig4();
    let opts = AssignOptions::for_setting(&setting);
    let schedule = assign(&setting.graph(), &setting.costs(), &opts).expect("assignment fits");

    println!(
        "baseline (Adam):  utilization {:>6}   step {:>9}",
        pct(schedule.utilization_baseline),
        fmt_ms(schedule.t_step_baseline),
    );
    println!(
        "PipeFisher:       utilization {:>6} (steady state; {} over one cold-start window)",
        pct(schedule.steady_utilization),
        pct(schedule.utilization),
    );
    println!(
        "                  step {:>9}   overhead {:+.1}%",
        fmt_ms(schedule.t_step),
        (schedule.t_step / schedule.t_step_baseline - 1.0) * 100.0,
    );
    println!(
        "refresh interval: {:.1} step(s) steady state ({} from cold start)",
        schedule.steady_refresh_steps, schedule.refresh_steps
    );

    // Per-device refresh: last K-FAC placement end per device.
    println!("\nper-device refresh interval (steps to finish curvature+inversion):");
    for dev in 0..8 {
        let last = schedule
            .placements
            .iter()
            .filter(|p| p.device == dev && matches!(p.kind, WorkKind::Inversion(_)))
            .map(|p| p.end)
            .fold(0.0f64, f64::max);
        let steps = (last / schedule.t_step).ceil().max(1.0) as usize;
        println!("  GPU {dev}: {steps} step(s)");
    }

    println!("\ntimeline over the refresh window:");
    print!("{}", schedule.augmented_timeline.render_ascii(110));
    println!("\npaper targets: 59.8% -> 97.6% utilization; refresh 2-4 steps; overhead ~6.5%.");
}
