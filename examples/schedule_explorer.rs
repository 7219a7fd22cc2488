//! Schedule explorer: render any pipeline schedule with and without
//! PipeFisher's bubble filling.
//!
//! Usage: `cargo run --example schedule_explorer -- [scheme] [D] [N_micro]`
//! where `scheme` is `gpipe`, `1f1b`, or `chimera` (default: all three with
//! D = N = 4).

use pipefisher::core::{assign, AssignOptions, FitStrategy};
use pipefisher::pipeline::PipelineScheme;
use pipefisher::sim::{simulate, KindCost};
use std::env;

fn explore(scheme: PipelineScheme, d: usize, n_micro: usize) {
    println!("=== {} (D={d}, N_micro={n_micro}) ===", scheme.name());
    // Unit-ish costs: T_b = 2·T_f, K-FAC work sized like BERT-Base stages.
    let costs = KindCost {
        t_f: 1.0,
        t_b: 2.0,
        t_recompute: 0.0,
        t_curv_a: 0.4,
        t_curv_b: 0.4,
        t_inv_a: 1.0,
        t_inv_b: 1.0,
        t_prec: 0.25,
        t_sync_grad: 0.2,
        t_sync_curv: 0.2,
    };

    let graph = scheme.build(d, n_micro);
    let base = simulate(&graph, &costs).expect("schedule simulates");
    println!(
        "baseline (F/B only), utilization {:.1}%:",
        base.utilization() * 100.0
    );
    print!("{}", base.render_ascii(96));

    let opts = AssignOptions {
        fit: FitStrategy::FirstFit,
        w: 1,
        granularity: 2,
    };
    match assign(&graph, &costs, &opts) {
        Ok(s) => {
            println!(
                "with PipeFisher: utilization {:.1}% steady ({:.1}% cold), refresh {:.1} steps, step +{:.1}%:",
                s.steady_utilization * 100.0,
                s.utilization * 100.0,
                s.steady_refresh_steps,
                (s.t_step / s.t_step_baseline - 1.0) * 100.0
            );
            print!("{}", s.augmented_timeline.render_ascii(96));
        }
        Err(e) => println!("assignment failed: {e}"),
    }
    println!();
}

fn main() {
    let args: Vec<String> = env::args().collect();
    if args.len() >= 4 {
        let scheme = match args[1].as_str() {
            "gpipe" => PipelineScheme::GPipe,
            "1f1b" => PipelineScheme::OneFOneB,
            "chimera" => PipelineScheme::Chimera,
            other => {
                eprintln!("unknown scheme '{other}' (use gpipe | 1f1b | chimera)");
                std::process::exit(1);
            }
        };
        let d: usize = args[2].parse().expect("D must be a number");
        let n: usize = args[3].parse().expect("N_micro must be a number");
        explore(scheme, d, n);
    } else {
        for scheme in PipelineScheme::all() {
            explore(scheme, 4, 4);
        }
    }
}
