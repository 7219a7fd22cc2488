//! Property-based tests over schedules, simulation, and bubble assignment.

use pipefisher::core::{assign, AssignOptions, FitStrategy};
use pipefisher::pipeline::{PipelineScheme, WorkKind};
use pipefisher::sim::{simulate, KindCost};
use proptest::prelude::*;

fn scheme_strategy() -> impl Strategy<Value = PipelineScheme> {
    prop_oneof![
        Just(PipelineScheme::GPipe),
        Just(PipelineScheme::OneFOneB),
        Just(PipelineScheme::Chimera),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_always_validate(
        scheme in scheme_strategy(),
        d_half in 1usize..6,
        n_mult in 1usize..4,
    ) {
        let d = 2 * d_half; // even for Chimera
        let n = d * n_mult;
        let g = scheme.build(d, n);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.tasks().len(), 2 * d * n);
    }

    #[test]
    fn simulation_conserves_time(
        scheme in scheme_strategy(),
        d_half in 1usize..5,
        t_f in 0.5f64..3.0,
        b_ratio in 1.0f64..3.0,
    ) {
        let d = 2 * d_half;
        let g = scheme.build(d, d);
        let tl = simulate(&g, &KindCost::standard(t_f, t_f * b_ratio)).unwrap();
        let span = tl.makespan();
        prop_assert!(tl.is_overlap_free(1e-9));
        // Busy + bubbles == span per device.
        for dev in 0..g.n_devices() {
            let busy = tl.device_busy(dev);
            let bub: f64 = tl.bubbles(dev, span).iter().map(|(s, e)| e - s).sum();
            prop_assert!((busy + bub - span).abs() < 1e-6);
        }
        // Every device does n_micro forwards + backwards worth of work.
        let per_dev = d as f64 * (t_f + t_f * b_ratio);
        for dev in 0..g.n_devices() {
            prop_assert!((tl.device_busy(dev) - per_dev).abs() < 1e-6);
        }
    }

    #[test]
    fn assignment_invariants(
        scheme in scheme_strategy(),
        d_half in 1usize..4,
        curv in 0.05f64..0.6,
        inv in 0.05f64..0.8,
        prec in 0.01f64..0.3,
    ) {
        let d = 2 * d_half;
        let costs = KindCost {
            t_f: 1.0,
            t_b: 2.0,
            t_recompute: 0.0,
            t_curv_a: curv,
            t_curv_b: curv,
            t_inv_a: inv,
            t_inv_b: inv,
            t_prec: prec,
            t_sync_grad: 0.05,
            t_sync_curv: 0.05,
        };
        let opts = AssignOptions {
            fit: FitStrategy::FirstFit,
            w: 1,
            granularity: 4,
        };
        let Ok(s) = assign(&scheme.build(d, d), &costs, &opts) else {
            // Oversized chunks are a legitimate outcome for extreme draws.
            return Ok(());
        };
        // 1. The schedule's own invariant checker finds nothing.
        let problems = s.check_invariants();
        prop_assert!(problems.is_empty(), "invariants: {problems:?}");
        prop_assert!(s.augmented_timeline.is_overlap_free(1e-9));
        // 2. Work conservation: placed K-FAC time equals the queue total.
        let placed: f64 = s.placements.iter().map(|p| p.end - p.start).sum();
        let stages_per_dev = if scheme == PipelineScheme::Chimera { 2 } else { 1 };
        let pair = if scheme == PipelineScheme::Chimera { 2.0 } else { 1.0 };
        let sync = if scheme == PipelineScheme::Chimera { 0.05 } else { 0.0 };
        let expect = d as f64
            * (d as f64 * (curv + curv)          // curvature: n_micro per device
                + stages_per_dev as f64 * (inv + inv) / pair // split inversion
                + stages_per_dev as f64 * sync);  // sync-curvature
        prop_assert!((placed - expect).abs() < 1e-6, "placed {placed} expect {expect}");
        // 3. Placements only on valid devices and non-negative.
        for p in &s.placements {
            prop_assert!(p.device < d);
            prop_assert!(p.end >= p.start);
            prop_assert!(p.start >= 0.0);
        }
        // 4. Inversion never precedes the last same-factor curvature chunk
        //    on its device (+pair for Chimera).
        for p in &s.placements {
            if let WorkKind::Inversion(f) = p.kind {
                let last_curv = s
                    .placements
                    .iter()
                    .filter(|q| {
                        q.stage == p.stage
                            && q.kind == WorkKind::Curvature(f)
                            && (q.device == p.device
                                || (scheme == PipelineScheme::Chimera
                                    && q.device == d - 1 - p.device))
                    })
                    .map(|q| q.end)
                    .fold(0.0f64, f64::max);
                prop_assert!(p.start >= last_curv - 1e-9);
            }
        }
        // 5. Utilization strictly improves and stays ≤ 1.
        prop_assert!(s.steady_utilization > s.utilization_baseline - 1e-9);
        prop_assert!(s.steady_utilization <= 1.0 + 1e-9);
        prop_assert!(s.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn deeper_pipelines_have_more_bubble_fraction(
        d_half in 2usize..6,
    ) {
        // GPipe bubble fraction (D−1)/(N+D−1) grows with D at N = D.
        let d = 2 * d_half;
        let small = simulate(&PipelineScheme::GPipe.build(d - 2, d - 2), &KindCost::standard(1.0, 2.0)).unwrap();
        let large = simulate(&PipelineScheme::GPipe.build(d, d), &KindCost::standard(1.0, 2.0)).unwrap();
        prop_assert!(large.utilization() < small.utilization() + 1e-9);
    }
}

/// Golden-schedule snapshots: the Chrome-trace export of each canonical
/// schedule is pinned byte-for-byte against a checked-in fixture. Any change
/// to scheduling, simulation, or the export format shows up as a readable
/// JSON diff. Regenerate intentionally with `PIPEFISHER_BLESS=1 cargo test`.
mod golden {
    use super::*;
    use pipefisher::core::PipeFisherSchedule;
    use pipefisher::perfmodel::Setting;
    use std::path::PathBuf;

    fn golden_path(file: &str) -> PathBuf {
        let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("tests");
        p.push("golden");
        p.push(file);
        p
    }

    fn fixture_path(scheme: PipelineScheme, d: usize) -> PathBuf {
        golden_path(&format!("{}_d{d}.trace.json", scheme.name()))
    }

    /// Writes `rendered` to `path` under `PIPEFISHER_BLESS` (returning
    /// `None`); otherwise asserts it equals the fixture and returns it.
    fn compare(path: &PathBuf, rendered: &str) -> Option<String> {
        if std::env::var("PIPEFISHER_BLESS").is_ok() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, rendered).unwrap();
            return None;
        }
        let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run with PIPEFISHER_BLESS=1 to regenerate",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            golden,
            "drifted from {} (PIPEFISHER_BLESS=1 to re-bless)",
            path.display()
        );
        Some(golden)
    }

    fn check(scheme: PipelineScheme, d: usize) {
        // N_micro = D with the canonical T_f=1, T_b=2 costs used throughout
        // the repo's schedule renderings.
        let graph = scheme.build(d, d);
        let tl = simulate(&graph, &KindCost::standard(1.0, 2.0)).unwrap();
        let json = tl.chrome_trace_json(1000.0);
        let rendered = format!("{}\n", serde_json::to_string_pretty(&json).unwrap());

        let Some(golden) = compare(&fixture_path(scheme, d), &rendered) else {
            return;
        };

        // The fixture must itself be valid Chrome trace JSON: it round-trips
        // through the parser and covers every simulated interval with a
        // complete ("X") slice.
        let parsed = serde_json::from_str(&golden).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let slices = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect::<Vec<_>>();
        let work = slices
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) != Some("bubble"))
            .count();
        assert_eq!(work, tl.intervals().len(), "one slice per interval");
        for e in &slices {
            assert!(e.get("ts").and_then(|v| v.as_f64()).unwrap() >= 0.0);
            assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        }
    }

    #[test]
    fn gpipe_d4_matches_golden() {
        check(PipelineScheme::GPipe, 4);
    }

    #[test]
    fn gpipe_d8_matches_golden() {
        check(PipelineScheme::GPipe, 8);
    }

    #[test]
    fn one_f_one_b_d4_matches_golden() {
        check(PipelineScheme::OneFOneB, 4);
    }

    #[test]
    fn one_f_one_b_d8_matches_golden() {
        check(PipelineScheme::OneFOneB, 8);
    }

    #[test]
    fn chimera_d4_matches_golden() {
        check(PipelineScheme::Chimera, 4);
    }

    #[test]
    fn chimera_d8_matches_golden() {
        check(PipelineScheme::Chimera, 8);
    }

    /// The paper's first-fit assignment of `setting` (one chunk per block),
    /// costed by `Setting::costs`.
    fn assignment(setting: &Setting) -> PipeFisherSchedule {
        let opts = AssignOptions::for_setting(setting);
        assign(&setting.graph(), &setting.costs(), &opts).unwrap()
    }

    /// Pins every placement bit for bit (floats in `{:?}`) and the
    /// schedule's step and utilization figures against
    /// `tests/golden/assign_<name>.txt`.
    fn check_assignment(name: &str, s: &PipeFisherSchedule) {
        let mut rendered = String::new();
        for p in &s.placements {
            rendered += &format!(
                "dev {} stage {} mb {:?} {} {:?}..{:?}\n",
                p.device, p.stage, p.micro_batch, p.kind, p.start, p.end
            );
        }
        rendered += &format!(
            "t_step {:?}\nrefresh_steps {}\nsteady_refresh_steps {:?}\n\
             utilization {:?}\nsteady_utilization {:?}\n",
            s.t_step, s.refresh_steps, s.steady_refresh_steps, s.utilization, s.steady_utilization
        );
        compare(&golden_path(&format!("assign_{name}.txt")), &rendered);
    }

    #[test]
    fn bert_base_assignments_match_golden() {
        for (scheme, name) in [
            (PipelineScheme::GPipe, "gpipe"),
            (PipelineScheme::OneFOneB, "1f1b"),
            (PipelineScheme::Chimera, "chimera"),
        ] {
            let s = assignment(&Setting::fig3(scheme, 1));
            check_assignment(&format!("{name}_bert_base_d4"), &s);
        }
    }

    #[test]
    fn recompute_assignment_matches_golden() {
        let s = assignment(&Setting {
            recompute: true,
            ..Setting::fig3(PipelineScheme::GPipe, 1)
        });
        check_assignment("gpipe_recompute_bert_base_d4", &s);
    }

    #[test]
    fn data_parallel_assignment_matches_golden() {
        let s = assignment(&Setting::fig3(PipelineScheme::OneFOneB, 2));
        check_assignment("1f1b_w2_bert_base_d4", &s);
    }

    #[test]
    fn fig4_assignment_matches_golden() {
        let s = assignment(&Setting::fig4());
        check_assignment("chimera_bert_large_d8", &s);
    }
}
