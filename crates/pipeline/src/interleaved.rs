//! Interleaved 1F1B with virtual pipeline stages (Narayanan et al., 2021b).
//!
//! Each device hosts `v` *virtual* stages (device `d` owns stages
//! `d, d+D, d+2D, …`), shrinking the startup/tear-down bubble by ≈ `1/v` at
//! the cost of more P2P communication. This scheme is **not** in the
//! PipeFisher paper — it is included to exercise the paper's claim that the
//! automatic work assignment applies to *any* pipeline schedule (see
//! `pipefisher-core`'s `assign`, which takes any task graph).

use crate::builders::{merge_streams, one_f_one_b_order, Stream};
use crate::TaskGraph;

/// Builds an interleaved 1F1B schedule: `n_stages_total = v · n_devices`
/// virtual stages round-robined over the devices. Each virtual stage
/// contributes its 1F1B stream over the full `v · n_devices`-deep pipeline;
/// a device's `v` streams are merged deepest-ready-op-first, the same
/// construction as the Chimera builder.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn build_interleaved_1f1b(n_devices: usize, n_micro: usize, v: usize) -> TaskGraph {
    assert!(
        n_devices > 0 && n_micro > 0 && v > 0,
        "build_interleaved_1f1b: empty pipeline"
    );
    let total = v * n_devices;
    let streams = (0..n_devices)
        .map(|dev| {
            (0..v)
                .map(|k| {
                    let stage = dev + k * n_devices;
                    Stream {
                        stage,
                        ops: one_f_one_b_order(total, stage, 0..n_micro),
                    }
                })
                .collect()
        })
        .collect();
    merge_streams(format!("1f1b-interleaved-v{v}"), total, n_micro, streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_1f1b, WorkKind};

    fn cost(t: &crate::Task) -> f64 {
        match t.kind {
            WorkKind::Forward => 1.0,
            WorkKind::Backward => 2.0,
            _ => 0.0,
        }
    }

    #[test]
    fn validates_across_sizes() {
        for d in [2usize, 4, 8] {
            for v in [1usize, 2, 4] {
                for n in [d, 2 * d] {
                    let g = build_interleaved_1f1b(d, n, v);
                    g.validate()
                        .unwrap_or_else(|e| panic!("d={d} v={v} n={n}: {e}"));
                    assert_eq!(g.tasks().len(), 2 * v * d * n);
                    assert_eq!(g.n_stages(), v * d);
                }
            }
        }
    }

    #[test]
    fn v1_matches_plain_1f1b_makespan() {
        for d in [2usize, 4, 8] {
            let plain = build_1f1b(d, d).makespan(cost).unwrap();
            let inter = build_interleaved_1f1b(d, d, 1).makespan(cost).unwrap();
            assert!((plain - inter).abs() < 1e-9, "d={d}: {inter} vs {plain}");
        }
    }

    #[test]
    fn v1_is_plain_1f1b_task_for_task() {
        // One virtual stage per device is one stream per device: the same
        // graph as `build_1f1b` in everything but the name.
        for d in [1usize, 2, 4] {
            for n in [1usize, 4, 8] {
                let plain = build_1f1b(d, n);
                let inter = build_interleaved_1f1b(d, n, 1);
                assert_eq!(inter.tasks(), plain.tasks(), "d={d} n={n}");
                assert_eq!(inter.device_order(), plain.device_order(), "d={d} n={n}");
                assert_eq!(
                    (inter.n_devices(), inter.n_stages(), inter.n_micro()),
                    (plain.n_devices(), plain.n_stages(), plain.n_micro())
                );
                assert_eq!(inter.scheme_name(), "1f1b-interleaved-v1");
            }
        }
    }

    #[test]
    fn more_virtual_stages_reduce_bubble_fraction() {
        // With v virtual chunks the per-chunk pipeline fill shrinks; each
        // device's busy time is constant (v chunks of 1/v the work would
        // need scaled costs — here chunk cost is constant so busy grows,
        // making the utilization comparison direct: same per-op costs, more
        // ops per device, same fill latency → higher utilization).
        let d = 4;
        let util = |v: usize| {
            let g = build_interleaved_1f1b(d, d, v);
            let times = g.nominal_times(cost).unwrap();
            let span = times.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
            let busy: f64 = times.iter().map(|&(s, e)| e - s).sum();
            busy / (span * d as f64)
        };
        let u1 = util(1);
        let u2 = util(2);
        let u4 = util(4);
        assert!(u2 > u1, "{u2} vs {u1}");
        assert!(u4 > u2, "{u4} vs {u2}");
    }

    #[test]
    fn devices_host_v_stages_round_robin() {
        let g = build_interleaved_1f1b(4, 4, 2);
        for dev in 0..4 {
            let stages: std::collections::BTreeSet<usize> = g
                .tasks()
                .iter()
                .filter(|t| t.device == dev)
                .map(|t| t.stage)
                .collect();
            assert_eq!(stages.len(), 2);
            assert!(stages.contains(&dev));
            assert!(stages.contains(&(dev + 4)));
        }
    }
}
