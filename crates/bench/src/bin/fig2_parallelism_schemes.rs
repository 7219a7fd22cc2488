//! Figure 2 (background schematic): a gradient step of SGD vs K-FAC under
//! no parallelism, data parallelism, and pipeline parallelism.
//!
//! Rendered as mini ASCII timelines with unit costs for a two-layer model,
//! mirroring the paper's schematic: K-FAC adds curvature (C), inversion (I),
//! and precondition (P) around the forward/backward work; data-parallel
//! K-FAC adds factor synchronization (S); pipeline-parallel K-FAC —
//! PipeFisher — moves C and I into the bubbles.

use pipefisher_core::{assign, AssignOptions, FitStrategy};
use pipefisher_pipeline::PipelineScheme;
use pipefisher_pipeline::WorkKind;
use pipefisher_sim::{simulate, Interval, KindCost, Timeline};

fn costs() -> KindCost {
    KindCost {
        t_f: 1.0,
        t_b: 2.0,
        t_recompute: 0.0,
        t_curv_a: 0.5,
        t_curv_b: 0.5,
        t_inv_a: 1.0,
        t_inv_b: 1.0,
        t_prec: 0.5,
        t_sync_grad: 0.5,
        t_sync_curv: 0.5,
    }
}

fn seq_timeline(ops: &[(WorkKind, f64)]) -> Timeline {
    let mut tl = Timeline::new(1);
    let mut t = 0.0;
    for &(kind, dur) in ops {
        tl.push(Interval {
            device: 0,
            start: t,
            end: t + dur,
            kind,
            stage: 0,
            micro_batch: None,
        });
        t += dur;
    }
    tl
}

fn main() {
    use WorkKind::*;
    println!("=== Figure 2 (schematic): one optimization step per scheme ===");
    println!("F=forward B=backward C=curvature I=inversion P=precondition S=sync\n");

    println!("(i,a) no parallelism, SGD:");
    print!(
        "{}",
        seq_timeline(&[(Forward, 2.0), (Backward, 4.0)]).render_ascii(80)
    );
    println!("(i,b) no parallelism, K-FAC (curvature+inversion amortized over many steps):");
    print!(
        "{}",
        seq_timeline(&[
            (Forward, 2.0),
            (Curvature(pipefisher_pipeline::Factor::A), 1.0),
            (Backward, 4.0),
            (Curvature(pipefisher_pipeline::Factor::B), 1.0),
            (Inversion(pipefisher_pipeline::Factor::A), 2.0),
            (Precondition, 1.0),
        ])
        .render_ascii(80)
    );

    println!("\n(ii) data parallelism (2 devices, each a micro-batch; allreduce at the end):");
    let mut tl = Timeline::new(2);
    for dev in 0..2 {
        for (kind, s, e) in [
            (Forward, 0.0, 2.0),
            (Curvature(pipefisher_pipeline::Factor::A), 2.0, 3.0),
            (Backward, 3.0, 7.0),
            (SyncGrad, 7.0, 8.0),
            (SyncCurvature, 8.0, 9.0),
            // Inversion parallelism: each device inverts *different layers*.
            (Inversion(pipefisher_pipeline::Factor::A), 9.0, 11.0),
            (Precondition, 11.0, 12.0),
        ] {
            tl.push(Interval {
                device: dev,
                start: s,
                end: e,
                kind,
                stage: 0,
                micro_batch: None,
            });
        }
    }
    print!("{}", tl.render_ascii(80));

    println!("\n(iii,a) pipeline parallelism (2 stages, 2 micro-batches), SGD:");
    let g = PipelineScheme::GPipe.build(2, 2);
    let base = simulate(&g, &KindCost::standard(1.0, 2.0)).unwrap();
    print!("{}", base.render_ascii(80));
    println!(
        "    bubbles: {:.0}% of the step",
        (1.0 - base.utilization()) * 100.0
    );

    println!("\n(iii,b) pipeline-parallel K-FAC — PipeFisher fills the bubbles:");
    let opts = AssignOptions {
        fit: FitStrategy::FirstFit,
        w: 1,
        granularity: 1,
    };
    let s = assign(&g, &costs(), &opts).unwrap();
    print!("{}", s.augmented_timeline.render_ascii(80));
    println!(
        "    utilization {:.0}% -> {:.0}%, curvature+inversion in bubbles, P at step end",
        s.utilization_baseline * 100.0,
        s.steady_utilization * 100.0
    );
}
