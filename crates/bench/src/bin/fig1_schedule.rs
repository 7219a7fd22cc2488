//! Figure 1: schematic GPipe schedule with and without PipeFisher.
//!
//! Renders two pipeline steps of GPipe (4 stages, 4 micro-batches, 4
//! devices) as ASCII timelines: the baseline (top, bubbles as `·`) and the
//! PipeFisher-augmented static schedule (bottom, bubbles filled with
//! curvature `C` and inversion `I` work, precondition `P` at step ends).

use pipefisher_bench::pct;
use pipefisher_core::{assign, AssignOptions};
use pipefisher_perfmodel::Setting;
use pipefisher_pipeline::PipelineScheme;
use pipefisher_sim::{simulate, Timeline};

fn main() {
    let setting = Setting {
        blocks_per_stage: 1,
        ..Setting::fig3(PipelineScheme::GPipe, 1)
    };
    let costs = setting.costs();
    println!("=== Figure 1: GPipe w/ 4 stages, 4 micro-batches, 4 devices ===\n");

    // (a) Baseline GPipe, two steps back to back.
    let graph = setting.graph();
    let one_step = simulate(&graph, &costs).expect("gpipe simulates");
    let t_step = one_step.makespan();
    let mut two_steps = Timeline::new(4);
    for step in 0..2 {
        for iv in one_step.intervals() {
            let mut iv = iv.clone();
            iv.start += step as f64 * t_step;
            iv.end += step as f64 * t_step;
            two_steps.push(iv);
        }
    }
    println!("(a) GPipe (two steps, F=forward, B=backward, ·=bubble):");
    print!("{}", two_steps.render_ascii(112));
    println!("    GPU utilization: {}\n", pct(two_steps.utilization()));

    // (b) PipeFisher on the same pipeline.
    let schedule =
        assign(&graph, &costs, &AssignOptions::for_setting(&setting)).expect("assignment fits");
    println!(
        "(b) PipeFisher (C=curvature, I=inversion, P=precondition), refresh every {} step(s):",
        schedule.refresh_steps
    );
    print!("{}", schedule.augmented_timeline.render_ascii(112));
    println!(
        "    GPU utilization: {} (baseline {})",
        pct(schedule.utilization),
        pct(schedule.utilization_baseline)
    );
    println!(
        "    step time: {:.1} ms baseline -> {:.1} ms with precondition (+{:.1}%)",
        schedule.t_step_baseline * 1e3,
        schedule.t_step * 1e3,
        (schedule.t_step / schedule.t_step_baseline - 1.0) * 100.0
    );
}
