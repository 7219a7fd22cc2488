//! PipeFisher on schedules *beyond* the paper's three — exercising the
//! "works with any pipeline scheme" claim: `assign` takes any task graph.

use pipefisher::core::{assign, AssignOptions, FitStrategy};
use pipefisher::pipeline::{build_interleaved_1f1b, PipelineScheme};
use pipefisher::sim::KindCost;

fn kfac_costs() -> KindCost {
    KindCost {
        t_f: 1.0,
        t_b: 2.0,
        t_recompute: 1.0,
        t_curv_a: 0.3,
        t_curv_b: 0.3,
        t_inv_a: 0.5,
        t_inv_b: 0.5,
        t_prec: 0.2,
        t_sync_grad: 0.1,
        t_sync_curv: 0.1,
    }
}

fn options() -> AssignOptions {
    AssignOptions {
        fit: FitStrategy::FirstFit,
        w: 1,
        granularity: 4,
    }
}

#[test]
fn interleaved_1f1b_gets_filled() {
    for v in [2usize, 4] {
        let g = build_interleaved_1f1b(4, 4, v);
        let s = assign(&g, &kfac_costs(), &options()).unwrap_or_else(|e| panic!("v={v}: {e}"));
        let problems = s.check_invariants();
        assert!(problems.is_empty(), "v={v}: {problems:?}");
        assert!(s.steady_utilization > s.utilization_baseline, "v={v}");
        // Interleaving shrinks bubbles, so the refresh takes at least as
        // long as plain 1F1B's (the Chimera trade-off, generalized).
        let plain = assign(
            &PipelineScheme::OneFOneB.build(4, 4),
            &kfac_costs(),
            &options(),
        )
        .unwrap();
        assert!(
            s.steady_refresh_steps >= plain.steady_refresh_steps - 1e-9,
            "v={v}: {} vs plain {}",
            s.steady_refresh_steps,
            plain.steady_refresh_steps
        );
    }
}

#[test]
fn interleaved_per_device_work_scales_with_v() {
    // Each device hosts v virtual stages → v× the curvature/inversion work
    // and v× the precondition tail.
    let opts = options();
    let s1 = assign(&build_interleaved_1f1b(4, 4, 1), &kfac_costs(), &opts).unwrap();
    let s2 = assign(&build_interleaved_1f1b(4, 4, 2), &kfac_costs(), &opts).unwrap();
    let placed = |s: &pipefisher::core::PipeFisherSchedule| -> f64 {
        s.placements.iter().map(|p| p.end - p.start).sum()
    };
    assert!((placed(&s2) - 2.0 * placed(&s1)).abs() < 1e-9);
}
