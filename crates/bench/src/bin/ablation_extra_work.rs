//! Ablation (paper §5, "Extra work for other types of algorithms"):
//! what else fits into pipeline bubbles besides K-FAC?
//!
//! * **Shampoo** — Kronecker-factored AdaGrad statistics of the same shapes
//!   as K-FAC's factors, but with eigendecomposition roots (≈ 25·n³) in
//!   place of Cholesky inversion (≈ n³). The paper predicts "a method that
//!   divides the work for a single matrix into multiple pieces would be
//!   necessary" — this ablation measures exactly that: at whole-stage
//!   granularity the root work does not fit any bubble; per-layer (and
//!   finer) splitting makes it schedulable at the cost of a longer refresh.
//! * **SAM** — one extra forward+backward per micro-batch per step
//!   ("twice the work of regular SGD"): we report how many steps of bubbles
//!   a full SAM pass needs, i.e. whether bubbles could hide it.

use pipefisher_bench::pct;
use pipefisher_core::{assign, AssignError, AssignOptions};
use pipefisher_perfmodel::Setting;
use pipefisher_pipeline::PipelineScheme;

fn main() {
    println!("=== Ablation: filling bubbles with Shampoo and SAM work (paper §5) ===\n");

    // --- K-FAC reference (Figure 3 setting). ---
    let setting = Setting::fig3(PipelineScheme::GPipe, 1);
    let graph = setting.graph();
    let opts = AssignOptions::for_setting(&setting);
    let kfac = assign(&graph, &setting.costs(), &opts).expect("kfac fits");
    println!(
        "K-FAC   (BERT-Base, GPipe D=4): refresh {:.1} steps steady, utilization {}",
        kfac.steady_refresh_steps,
        pct(kfac.steady_utilization)
    );

    // --- Shampoo with the same pipeline. ---
    let shampoo_costs = setting.shampoo_costs();

    println!("\nShampoo root work (eigendecompositions) vs granularity:");
    println!(
        "{:>24} | {:>12} | {:>22}",
        "granularity", "fits?", "steady refresh (steps)"
    );
    for (label, granularity) in [
        ("whole stage (1)", 1usize),
        ("per block (3)", 3),
        ("per layer (18)", 18),
        ("per layer split 4x (72)", 72),
    ] {
        let opts = AssignOptions {
            granularity,
            ..AssignOptions::for_setting(&setting)
        };
        match assign(&graph, &shampoo_costs, &opts) {
            Ok(s) => println!(
                "{:>24} | {:>12} | {:>22.1}",
                label, "yes", s.steady_refresh_steps
            ),
            Err(AssignError::DoesNotFit {
                duration,
                largest_bubble,
                ..
            }) => println!(
                "{:>24} | {:>12} | chunk {:.0} ms > bubble {:.0} ms",
                label,
                "NO",
                duration * 1e3,
                largest_bubble * 1e3
            ),
            Err(e) => println!("{:>24} | {:>12} | {e}", label, "NO"),
        }
    }

    // --- SAM: extra forward+backward per micro-batch per step. ---
    println!("\nSAM extra work (one more F+B per micro-batch per step):");
    for scheme in PipelineScheme::all() {
        let setting = Setting::fig3(scheme, 1);
        let costs = setting.costs();
        let base = pipefisher_sim::simulate(&setting.graph(), &costs).expect("simulates");
        let t_step = base.makespan();
        let bubble_per_device = t_step - base.device_busy(0);
        let sam_work = setting.n_micro as f64 * (costs.t_f + costs.t_b);
        println!(
            "  {:<8} bubble/device {:>6.0} ms, SAM work {:>6.0} ms -> needs {:.1} steps of bubbles",
            scheme.name(),
            bubble_per_device * 1e3,
            sam_work * 1e3,
            sam_work / bubble_per_device
        );
    }
    println!("\npaper §5: SAM 'contains twice the work of regular SGD and has the potential to");
    println!("double the accelerator utilization' — i.e. bubbles alone cannot hide a full SAM");
    println!("pass each step (ratios above are ≫ 1), but they absorb a sizeable fraction.");
}
