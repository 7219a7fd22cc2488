//! Schema validation for the committed bench artifacts (repo-root
//! `BENCH_*.json` and `SOAK.json`, plus anything generated under
//! `results/`): every artifact must carry the `bench` name, a
//! `host_cores` count, and a `note` caveat (the repo's rule that a number
//! without its measurement context is not a result), and every number in
//! the tree must be finite.

use serde_json::Value;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// All committed bench artifacts: repo-root `BENCH_*.json` plus everything
/// under `results/` ending in `.json`.
fn artifacts() -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in [repo_root(), repo_root().join("results")] {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && (name.starts_with("BENCH_") || name == "SOAK.json") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn load(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {}: {e:?}", path.display()))
}

/// Recursively asserts every number in the tree is finite.
fn assert_finite(v: &Value, path: &str) {
    match v {
        Value::Float(f) => assert!(f.is_finite(), "non-finite number at {path}"),
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                assert_finite(item, &format!("{path}[{i}]"));
            }
        }
        Value::Object(fields) => {
            for (k, item) in fields {
                assert_finite(item, &format!("{path}.{k}"));
            }
        }
        _ => {}
    }
}

#[test]
fn artifacts_exist() {
    let found = artifacts();
    let names: Vec<String> = found
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    for required in [
        "BENCH_alloc.json",
        "BENCH_factor.json",
        "BENCH_gemm.json",
        "BENCH_nn.json",
        "SOAK.json",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "missing committed artifact {required} (found: {names:?})"
        );
    }
}

#[test]
fn every_artifact_has_the_caveat_fields_and_finite_numbers() {
    for path in artifacts() {
        let v = load(&path);
        let name = path.display();
        assert!(
            v.get("bench").and_then(Value::as_str).is_some(),
            "{name}: missing string key 'bench'"
        );
        assert!(
            v.get("host_cores").and_then(Value::as_i64).unwrap_or(0) >= 1,
            "{name}: 'host_cores' must be a positive integer"
        );
        assert!(
            v.get("note")
                .and_then(Value::as_str)
                .is_some_and(|s| !s.trim().is_empty()),
            "{name}: missing non-empty 'note' caveat"
        );
        assert_finite(&v, &format!("{name}$"));
    }
}

#[test]
fn every_bench_artifact_has_its_producer_bin() {
    let bins = repo_root().join("crates/bench/src/bin");
    for path in artifacts() {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some(name) = file
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        assert_eq!(
            load(&path).get("bench").and_then(Value::as_str),
            Some(name),
            "{file}: 'bench' must name the file"
        );
        let bin = bins.join(format!("bench_{name}.rs"));
        let source = std::fs::read_to_string(&bin)
            .unwrap_or_else(|e| panic!("{file} has no producer {}: {e}", bin.display()));
        assert!(
            source.contains(&file),
            "{} does not write {file}",
            bin.display()
        );
    }
}

#[test]
fn gemm_bench_rows_have_required_keys() {
    let v = load(&repo_root().join("BENCH_gemm.json"));
    assert!(
        v.get("simd").and_then(Value::as_str).is_some(),
        "missing string key 'simd' (detected ISA the dispatched column ran on)"
    );
    let rows = v
        .get("results")
        .and_then(Value::as_array)
        .expect("'results' array");
    assert!(!rows.is_empty(), "empty results");
    for (i, row) in rows.iter().enumerate() {
        for key in [
            "kernel",
            "m",
            "k",
            "n",
            "scalar_gflops",
            "simd_gflops",
            "speedup",
        ] {
            assert!(row.get(key).is_some(), "results[{i}]: missing '{key}'");
        }
        let gflops = row
            .get("scalar_gflops")
            .and_then(Value::as_f64)
            .unwrap_or(-1.0);
        assert!(gflops > 0.0, "results[{i}]: non-positive scalar_gflops");
    }
}

#[test]
fn factor_bench_rows_have_required_keys() {
    let v = load(&repo_root().join("BENCH_factor.json"));
    assert!(
        v.get("simd").and_then(Value::as_str).is_some(),
        "missing string key 'simd' (detected ISA the blocked column ran on)"
    );
    let rows = v
        .get("results")
        .and_then(Value::as_array)
        .expect("'results' array");
    assert!(!rows.is_empty(), "empty results");
    for (i, row) in rows.iter().enumerate() {
        for key in ["n", "naive_gflops", "blocked_gflops", "speedup"] {
            assert!(row.get(key).is_some(), "results[{i}]: missing '{key}'");
        }
        assert!(
            row.get("n").and_then(Value::as_i64).unwrap_or(0) >= 1,
            "results[{i}]: bad factor size"
        );
        let gflops = row
            .get("naive_gflops")
            .and_then(Value::as_f64)
            .unwrap_or(-1.0);
        assert!(gflops > 0.0, "results[{i}]: non-positive naive_gflops");
    }
    // The acceptance bar: the blocked engine must be at least 2x the naive
    // loop at both BERT-Base K-FAC factor sizes.
    for &want_n in &[769i64, 3073] {
        let row = rows
            .iter()
            .find(|r| r.get("n").and_then(Value::as_i64) == Some(want_n))
            .unwrap_or_else(|| panic!("no results row for n={want_n}"));
        let speedup = row.get("speedup").and_then(Value::as_f64).unwrap_or(0.0);
        assert!(
            speedup >= 2.0,
            "blocked speedup at n={want_n} is {speedup:.2}x, below the 2x bar"
        );
    }
}

#[test]
fn nn_bench_has_every_ledger_row_at_both_scales() {
    let v = load(&repo_root().join("BENCH_nn.json"));
    let rows = v
        .get("results")
        .and_then(Value::as_array)
        .expect("'results' array");
    for (i, row) in rows.iter().enumerate() {
        for key in ["fwd_ms", "fwd_spread", "bwd_ms", "bwd_spread"] {
            let x = row.get(key).and_then(Value::as_f64).unwrap_or(-1.0);
            assert!(x >= 0.0, "results[{i}]: missing or negative '{key}'");
        }
        assert!(row.get("shape").and_then(Value::as_str).is_some());
    }
    for scale in ["small", "mid"] {
        let layers: Vec<&str> = rows
            .iter()
            .filter(|r| r.get("scale").and_then(Value::as_str) == Some(scale))
            .filter_map(|r| r.get("layer").and_then(Value::as_str))
            .collect();
        for want in [
            "Linear",
            "Activation(Gelu)",
            "LayerNorm",
            "MultiHeadAttention",
            "FeedForward",
            "TransformerBlock",
            "train_step",
        ] {
            assert!(layers.contains(&want), "{scale}: no '{want}' row");
        }
    }
}

#[test]
fn alloc_bench_has_required_sections() {
    let v = load(&repo_root().join("BENCH_alloc.json"));
    for key in ["baseline", "workspace_on", "workspace_off"] {
        let section = v.get(key).unwrap_or_else(|| panic!("missing '{key}'"));
        for sub in ["allocs_per_step", "bytes_per_step"] {
            assert!(
                section.get(sub).and_then(Value::as_i64).is_some(),
                "'{key}.{sub}' must be an integer"
            );
        }
    }
    let runs = v
        .get("back_to_back_runs")
        .expect("missing 'back_to_back_runs'");
    let live = runs
        .get("live_bytes_after_run")
        .and_then(Value::as_array)
        .expect("'back_to_back_runs.live_bytes_after_run' must be an array");
    assert!(
        live.len() >= 2 && live.iter().all(|b| b.as_i64().is_some_and(|b| b > 0)),
        "'back_to_back_runs.live_bytes_after_run' must hold a positive byte count per run"
    );
    assert!(
        runs.get("growth_bytes").and_then(Value::as_i64).is_some(),
        "'back_to_back_runs.growth_bytes' must be an integer"
    );
}

#[test]
fn step_metrics_jsonl_rows_carry_checkpoint_write_time() {
    // Metrics JSONL (`train --metrics-out`) is an artifact consumers parse;
    // every row must expose `ckpt_write_ms` (0.0 when the step did not
    // checkpoint) alongside the longstanding keys.
    let row = pipefisher::lm::StepMetrics {
        step: 0,
        loss: 2.0,
        grad_norm: 1.0,
        lr: 1e-3,
        data_ms: 0.1,
        forward_backward_ms: 3.0,
        optimizer_ms: 0.5,
        curvature_refreshed: false,
        curvature_refreshes: 0,
        inversions: 0,
        damping_escalations: 0,
        inversion_failures: 0,
        allocs: 0,
        alloc_bytes: 0,
        ckpt_write_ms: 1.25,
    };
    let jsonl = pipefisher::lm::to_jsonl(std::slice::from_ref(&row));
    let v: Value = serde_json::from_str(jsonl.trim()).expect("row parses");
    assert_eq!(v.get("ckpt_write_ms").and_then(Value::as_f64), Some(1.25));
    for key in ["step", "loss", "grad_norm", "optimizer_ms", "ckpt_write_ms"] {
        assert!(v.get(key).is_some(), "metrics row missing '{key}'");
    }
    assert_finite(&v, "metrics-row$");
}

#[test]
fn soak_report_recorded_a_passing_block() {
    let v = load(&repo_root().join("SOAK.json"));
    assert_eq!(v.get("bench").and_then(Value::as_str), Some("soak"));
    for key in [
        "base_seed",
        "scenarios",
        "clean",
        "faulted",
        "events_checked",
    ] {
        assert!(
            v.get(key).and_then(Value::as_i64).is_some(),
            "missing integer key '{key}'"
        );
    }
    let scenarios = v.get("scenarios").and_then(Value::as_i64).unwrap();
    let clean = v.get("clean").and_then(Value::as_i64).unwrap();
    let faulted = v.get("faulted").and_then(Value::as_i64).unwrap();
    // `resumed` (kill-and-resume scenarios) is absent from reports written
    // before checkpointing landed; treat it as 0 there.
    let resumed = v.get("resumed").and_then(Value::as_i64).unwrap_or(0);
    assert!(scenarios >= 1);
    assert_eq!(
        clean + faulted + resumed,
        scenarios,
        "clean + faulted + resumed must cover every scenario (failures would break the sum)"
    );
    assert_eq!(v.get("passed").and_then(Value::as_bool), Some(true));
    assert_eq!(
        v.get("failures").and_then(Value::as_array).map(Vec::len),
        Some(0),
        "a committed soak report must have no contract violations"
    );
    // The note must tell a reader how to replay a failure.
    assert!(v
        .get("note")
        .and_then(Value::as_str)
        .is_some_and(|s| s.contains("seed")));
}
