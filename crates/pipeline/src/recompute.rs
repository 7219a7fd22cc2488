//! Activation recomputation (Griewank & Walther 2000) as schedule tasks.
//!
//! With memory-saving recomputation (`R` in the paper's figures), a stage
//! stores only its input during the forward pass and re-runs the forward
//! right before the backward. On the schedule this inserts one `Recompute`
//! task per (stage, micro-batch) immediately before its backward, which
//! lengthens the step but also *enlarges the bubbles* available to
//! PipeFisher (paper §3.3: "As T_bubble is increased by activation
//! recomputation, curvature information is updated at a higher frequency").

use crate::{TaskGraph, TaskId, WorkKind};

/// Rebuilds `graph` with a `Recompute` task inserted directly before every
/// `Backward` on the same device, carrying the same (stage, micro-batch).
///
/// The recompute task depends on the original same-(stage, micro-batch)
/// forward (whose *input* is what was kept in memory), and the backward
/// additionally depends on the recompute.
///
/// # Panics
///
/// Panics if the graph lacks a forward for some backward (invalid input).
pub fn with_recompute(graph: &TaskGraph) -> TaskGraph {
    let mut out = TaskGraph::new(
        format!("{}+R", graph.scheme_name()),
        graph.n_devices(),
        graph.n_stages(),
        graph.n_micro(),
    );
    // Old-id → new-id map, filled as we copy in device order… but tasks
    // must be pushed per device in order while dependencies may point to
    // tasks on other devices not yet copied. So: first pass pushes tasks
    // (empty deps) in per-device order, second pass wires deps.
    let mut new_id_of = vec![None::<TaskId>; graph.tasks().len()];
    let mut recompute_of = vec![None::<TaskId>; graph.tasks().len()]; // keyed by backward old-id
    for (dev, order) in graph.device_order().iter().enumerate() {
        for &old in order {
            let t = graph.task(old);
            if t.kind == WorkKind::Backward {
                let r = out.push(dev, t.stage, t.micro_batch, WorkKind::Recompute, vec![]);
                recompute_of[old.0] = Some(r);
            }
            let id = out.push(dev, t.stage, t.micro_batch, t.kind, vec![]);
            new_id_of[old.0] = Some(id);
        }
    }
    let mut deps_to_set = Vec::new();
    for t in graph.tasks() {
        let new_id = new_id_of[t.id.0].expect("copied");
        let mut deps: Vec<TaskId> = t
            .deps
            .iter()
            .map(|d| new_id_of[d.0].expect("dep copied"))
            .collect();
        if t.kind == WorkKind::Backward {
            let r = recompute_of[t.id.0].expect("recompute inserted");
            // Recompute inherits the forward dependency (the stored stage
            // input); the backward then waits on the recompute too.
            let fwd = graph
                .find(
                    WorkKind::Forward,
                    t.stage,
                    t.micro_batch.expect("backward has mb"),
                )
                .expect("with_recompute: backward without forward");
            deps_to_set.push((r, vec![new_id_of[fwd.0].expect("fwd copied")]));
            deps.push(r);
        }
        deps_to_set.push((new_id, deps));
    }
    out.set_deps(deps_to_set);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_chimera, build_gpipe, PipelineScheme};

    fn cost(t: &crate::Task) -> f64 {
        match t.kind {
            WorkKind::Forward | WorkKind::Recompute => 1.0,
            WorkKind::Backward => 2.0,
            _ => 0.0,
        }
    }

    #[test]
    fn recompute_graph_validates() {
        for scheme in PipelineScheme::all() {
            let g = with_recompute(&scheme.build(4, 4));
            g.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert!(g.scheme_name().ends_with("+R"));
            // One recompute per backward.
            let n_b = g
                .tasks()
                .iter()
                .filter(|t| t.kind == WorkKind::Backward)
                .count();
            let n_r = g
                .tasks()
                .iter()
                .filter(|t| t.kind == WorkKind::Recompute)
                .count();
            assert_eq!(n_b, n_r);
        }
    }

    #[test]
    fn recompute_precedes_its_backward() {
        let g = with_recompute(&build_gpipe(4, 4));
        let times = g.nominal_times(cost).unwrap();
        for t in g.tasks() {
            if t.kind == WorkKind::Backward {
                let r = g
                    .tasks()
                    .iter()
                    .find(|x| {
                        x.kind == WorkKind::Recompute
                            && x.stage == t.stage
                            && x.micro_batch == t.micro_batch
                    })
                    .unwrap();
                assert!(times[r.id.0].1 <= times[t.id.0].0 + 1e-9);
            }
        }
    }

    #[test]
    fn recompute_lengthens_step_but_overlaps_idle_time() {
        let plain = build_gpipe(4, 4);
        let r = with_recompute(&plain);
        let m_plain = plain.makespan(cost).unwrap();
        let m_r = r.makespan(cost).unwrap();
        assert!(m_r > m_plain, "{m_r} vs {m_plain}");
        // The paper's analytic model charges T_b_eff = T_b + T_recompute on
        // the whole critical path — an upper bound. The simulated schedule
        // does better because a device can run recomputes while *waiting*
        // for the downstream backward (early recomputation), so:
        let upper = (4.0 + 4.0 - 1.0) * 4.0; // (N+D−1)·(T_f+T_b+T_r)
        assert!(m_r <= upper + 1e-9, "{m_r} vs bound {upper}");
    }

    #[test]
    fn chimera_recompute_within_paper_model_bound() {
        let g = with_recompute(&build_chimera(4, 4));
        let m = g.makespan(cost).unwrap();
        let plain = build_chimera(4, 4).makespan(cost).unwrap();
        let upper = 4.0 * 1.0 + 6.0 * 3.0; // C_f·T_f + C_b·(T_b + T_r)
        assert!(m > plain, "{m} vs plain {plain}");
        assert!(m <= upper + 1e-9, "{m} vs bound {upper}");
    }
}
