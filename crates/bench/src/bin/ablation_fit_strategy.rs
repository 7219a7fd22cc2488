//! Design-choice ablation: first-fit vs best-fit bubble placement.
//!
//! The paper's queue-draining rule places each work chunk into the earliest
//! bubble that holds it (first-fit). Best-fit instead picks the bubble with
//! the least leftover space, potentially packing fragmented bubble patterns
//! tighter at the cost of starting some work later. This ablation compares
//! the two on the paper's settings and on the interleaved schedule (whose
//! bubbles are the most fragmented).

use pipefisher_core::{assign, AssignOptions, FitStrategy};
use pipefisher_perfmodel::Setting;
use pipefisher_pipeline::{build_interleaved_1f1b, PipelineScheme, TaskGraph};

fn main() {
    println!("=== Ablation: bubble fit strategy (first-fit vs best-fit) ===\n");
    println!(
        "{:<28} | {:>18} | {:>18}",
        "schedule", "first-fit refresh", "best-fit refresh"
    );

    // Each row runs one Figure 3 setting's costs on a schedule, in
    // per-layer chunks (6 linears per block).
    let mut rows: Vec<(String, Setting, TaskGraph)> = Vec::new();
    for scheme in PipelineScheme::all() {
        let setting = Setting::fig3(scheme, 1);
        let graph = setting.graph();
        rows.push((
            format!("{} (BERT-Base, D=4)", scheme.name()),
            setting,
            graph,
        ));
    }
    for v in [2usize, 4] {
        rows.push((
            format!("interleaved-1f1b v={v}"),
            Setting::fig3(PipelineScheme::OneFOneB, 1),
            build_interleaved_1f1b(4, 4, v),
        ));
    }

    for (label, setting, graph) in rows {
        let run = |fit: FitStrategy| {
            let opts = AssignOptions {
                fit,
                granularity: setting.blocks_per_stage * 6,
                ..AssignOptions::for_setting(&setting)
            };
            assign(&graph, &setting.costs(), &opts)
        };
        let first = run(FitStrategy::FirstFit);
        let best = run(FitStrategy::BestFit);
        let describe = |r: &Result<pipefisher_core::PipeFisherSchedule, _>| match r {
            Ok(s) => format!(
                "{} cold / {:.1}% util",
                s.refresh_steps,
                s.utilization * 100.0
            ),
            Err(_) => "does not fit".to_string(),
        };
        println!(
            "{:<28} | {:>18} | {:>18}",
            label,
            describe(&first),
            describe(&best)
        );
    }

    println!("\ntakeaway: the steady-state refresh interval is capacity-bound (identical for");
    println!("both strategies); the strategies differ only in cold-start packing, where");
    println!("first-fit's earlier starts usually finish the first refresh no later — which is");
    println!("why the paper's simple queue-draining rule is the right default.");
}
