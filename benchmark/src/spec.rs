//! What the benchmark measures: the six workloads and every metric name,
//! unit and direction. `../BENCHMARK.json` states the same tables for the
//! driver; a unit test keeps the two in step.

/// Model scale. Small ops take ~1–3 ms, so loop, executor and wake-up
/// overhead dominate; at mid scale GEMM and the 385×385 factor inversions
/// dominate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `BertConfig::mini`: d_model 64, d_ff 128, 4 heads, 4 blocks.
    Small,
    /// d_model 96, d_ff 384, 4 heads, 4 blocks.
    Mid,
}

/// Optimizer under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opt {
    /// NVLAMB, the first-order baseline.
    Lamb,
    /// K-FAC over NVLAMB, refreshing curvature and inverses every step.
    Kfac,
}

/// How a step is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Trainer::run_with_options`, one thread.
    Serial,
    /// `Trainer::run_pipelined`, 1F1B over two stage threads.
    Pipe {
        /// K-FAC work fills bubbles (PipeFisher) or runs after the
        /// pipeline work of each device.
        fill: bool,
    },
}

/// One training configuration; everything else is fixed (see `sut.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Model scale.
    pub scale: Scale,
    /// Optimizer.
    pub opt: Opt,
    /// Executor.
    pub mode: Mode,
}

impl Config {
    /// The same scale and optimizer on the serial trainer — the oracle a
    /// pipelined run must equal bit for bit.
    pub fn serial_twin(self) -> Config {
        Config {
            mode: Mode::Serial,
            ..self
        }
    }
}

/// A named workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub config: Config,
    /// Why it was chosen (one line; the README says more).
    pub why: &'static str,
}

const fn workload(
    name: &'static str,
    scale: Scale,
    opt: Opt,
    mode: Mode,
    why: &'static str,
) -> Workload {
    Workload {
        name,
        config: Config { scale, opt, mode },
        why,
    }
}

/// The six workloads, in the order they are run and reported.
pub const WORKLOADS: [Workload; 6] = [
    workload(
        "lamb_serial_small",
        Scale::Small,
        Opt::Lamb,
        Mode::Serial,
        "first-order single-worker baseline; bypasses K-FAC, executor, core and sim, so work there must not move it",
    ),
    workload(
        "kfac_serial_small",
        Scale::Small,
        Opt::Kfac,
        Mode::Serial,
        "serial oracle of kfac_pipe2_small and K-FAC twin of lamb_serial_small (step overhead of second-order work)",
    ),
    workload(
        "kfac_pipe2_small",
        Scale::Small,
        Opt::Kfac,
        Mode::Pipe { fill: true },
        "1F1B on 2 stage threads with ~1 ms ops: channels, polling waits and coordinator merge dominate, kernels barely matter",
    ),
    workload(
        "kfac_serial_mid",
        Scale::Mid,
        Opt::Kfac,
        Mode::Serial,
        "optimizer and factor kernels are ~45% of the step and the executor is bypassed: kernel gains show undiluted",
    ),
    workload(
        "kfac_pipe2_mid_fill",
        Scale::Mid,
        Opt::Kfac,
        Mode::Pipe { fill: true },
        "the paper's mechanism at kernel-dominated op sizes: K-FAC work placed in 1F1B bubbles on 2 stage threads",
    ),
    workload(
        "kfac_pipe2_mid_nofill",
        Scale::Mid,
        Opt::Kfac,
        Mode::Pipe { fill: false },
        "same executor with all K-FAC work as tail: a gain for filling that costs the plain pipeline shows here",
    ),
];

/// Looks a workload up by name.
pub fn workload_named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name; per-layer names start with the crate they measure.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, measured with all tracing off (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    lower("step_ms_p50", "ms"),
    higher("tokens_per_s", "tok/s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run (`--trace 1`). A layer that is
/// not on a workload's path reads 0 there.
pub const PER_LAYER: [MetricDef; 46] = [
    lower("lm.sample_ms", "ms"),
    lower("lm.loop_self_ms", "ms"),
    higher("lm.ledger_coverage", "ratio"),
    lower("lm.replica_ratio", "ratio"),
    lower("lm.step_ms_hi", "ms"),
    higher("lm.step_ms_hi_pct", "%"),
    lower("lm.loss_at_k", "nats"),
    lower("lm.final_loss", "nats"),
    lower("lm.exec_phase_ms", "ms"),
    lower("lm.exec_coord_ms", "ms"),
    lower("lm.exec_idle_ms", "ms"),
    lower("lm.exec_tail_aux_ms", "ms"),
    higher("lm.exec_hidden_aux_share", "ratio"),
    lower("lm.exec_overhead_ratio", "ratio"),
    lower("lm.exec_spawn_join_ms", "ms"),
    lower("nn.train_step_ms", "ms"),
    lower("nn.stage_fwd_ms", "ms"),
    lower("nn.stage_bwd_ms", "ms"),
    lower("nn.stage_imbalance", "ratio"),
    higher("nn.train_step_gflops", "GFLOP/s"),
    higher("nn.frac_of_gemm_peak", "ratio"),
    higher("tensor.gemm_peak_gflops", "GFLOP/s"),
    higher("tensor.gemm_ffn_gflops", "GFLOP/s"),
    higher("tensor.gram_gflops", "GFLOP/s"),
    lower("tensor.chol_inv_ms", "ms"),
    higher("tensor.chol_inv_gflops", "GFLOP/s"),
    lower("tensor.chol_inv_small_ms", "ms"),
    lower("optim.fold_ms", "ms"),
    lower("optim.invert_ms", "ms"),
    lower("optim.precond_update_ms", "ms"),
    lower("optim.lamb_update_ms", "ms"),
    lower("optim.kfac_share", "ratio"),
    lower("optim.inversions_per_step", "1/step"),
    lower("optim.curvature_refreshes_per_step", "1/step"),
    lower("pipeline.build_ms", "ms"),
    lower("pipeline.nominal_bubble_share", "ratio"),
    lower("core.plan_ms", "ms"),
    higher("core.aux_units", "count"),
    lower("sim.pred_phase_ms", "ms"),
    lower("sim.simulate_ms", "ms"),
    lower("perfmodel.fb_flops_per_token", "flop/tok"),
    lower("ckpt.write_ms", "ms"),
    lower("ckpt.bytes", "bytes"),
    lower("ckpt.load_ms", "ms"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.events_per_step", "count"),
];

/// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
fn declared(json: &serde_json::Value, key: &str) -> Result<Vec<[String; 3]>, String> {
    let field = |e: &serde_json::Value, k: &str| {
        e.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    Ok(json
        .get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|e| [field(e, "name"), field(e, "unit"), field(e, "better")])
        .collect())
}

/// Checks that `BENCHMARK.json` (its text) declares exactly the workloads
/// and metrics this file defines — names, units, directions, a `setup_s`
/// in seconds, every bound in (0, 0.25] — and returns its `run_seconds`.
pub fn check_declaration(benchmark_json: &str) -> Result<u64, String> {
    let json = serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names: Vec<String> = declared(&json, "workloads")?
        .into_iter()
        .map(|[name, _, _]| name)
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if names != ours {
        return Err(format!(
            "workloads {names:?} differ from the benchmark's {ours:?}"
        ));
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let ours: Vec<[String; 3]> = defs
            .iter()
            .map(|m| [m.name.into(), m.unit.into(), m.better.word().into()])
            .collect();
        let theirs = declared(&json, key)?;
        if theirs != ours {
            let diff = theirs.iter().zip(&ours).find(|(a, b)| a != b);
            return Err(format!(
                "{key}: {} declared, {} emitted; first difference: {diff:?}",
                theirs.len(),
                ours.len()
            ));
        }
    }
    let end_to_end = json
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .expect("checked above");
    for e in end_to_end {
        let bound = e.get("bound").and_then(|b| b.as_f64()).unwrap_or(f64::NAN);
        if !(bound > 0.0 && bound <= 0.25) {
            return Err(format!(
                "bound {bound} of {:?} is outside (0, 0.25]",
                e.get("name")
            ));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s")
    {
        return Err("setup_s (in s) is not an end-to-end metric".into());
    }
    json.get("run_seconds")
        .and_then(|v| v.as_i64())
        .and_then(|s| u64::try_from(s).ok())
        .ok_or_else(|| "BENCHMARK.json has no whole-number run_seconds".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_follow_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
    }

    #[test]
    fn per_layer_names_start_with_a_crate_name() {
        let layers = [
            "lm",
            "nn",
            "tensor",
            "optim",
            "pipeline",
            "core",
            "sim",
            "perfmodel",
            "ckpt",
            "trace",
        ];
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(layers.contains(&layer), "{} has no layer prefix", m.name);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let run_seconds = check_declaration(&text).expect("BENCHMARK.json matches spec.rs");
        assert!((1..=60).contains(&run_seconds));
    }

    #[test]
    fn a_declaration_that_drifted_is_reported() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let renamed = text.replace("\"step_ms_p50\"", "\"step_ms_median\"");
        assert!(check_declaration(&renamed)
            .unwrap_err()
            .contains("end_to_end"));
        let unbounded = text.replace("\"bound\": 0.", "\"bound\": 1.");
        assert!(check_declaration(&unbounded).unwrap_err().contains("bound"));
    }
}
