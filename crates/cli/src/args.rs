//! Tiny argument-parsing helpers shared by the subcommands.

use pipefisher_perfmodel::{HardwareProfile, TransformerConfig};
use pipefisher_pipeline::{
    build_async_1f1b, build_interleaved_1f1b, with_recompute, PipelineScheme, TaskGraph,
};

/// Parses a pipeline scheme name.
pub fn scheme(s: &str) -> Result<PipelineScheme, String> {
    match s {
        "gpipe" => Ok(PipelineScheme::GPipe),
        "1f1b" => Ok(PipelineScheme::OneFOneB),
        "chimera" => Ok(PipelineScheme::Chimera),
        other => Err(format!("unknown scheme '{other}' (gpipe | 1f1b | chimera)")),
    }
}

/// Parses an architecture name (Table 3).
pub fn arch(s: &str) -> Result<TransformerConfig, String> {
    match s {
        "bert-base" => Ok(TransformerConfig::bert_base()),
        "bert-large" => Ok(TransformerConfig::bert_large()),
        "t5-base" => Ok(TransformerConfig::t5_base()),
        "t5-large" => Ok(TransformerConfig::t5_large()),
        "opt-125m" => Ok(TransformerConfig::opt_125m()),
        "opt-350m" => Ok(TransformerConfig::opt_350m()),
        other => Err(format!(
            "unknown architecture '{other}' (bert-base | bert-large | t5-base | t5-large | opt-125m | opt-350m)"
        )),
    }
}

/// Parses a hardware profile name.
pub fn hardware(s: &str) -> Result<HardwareProfile, String> {
    match s {
        "p100" => Ok(HardwareProfile::p100()),
        "v100" => Ok(HardwareProfile::v100()),
        "rtx3090" => Ok(HardwareProfile::rtx3090()),
        other => Err(format!(
            "unknown hardware '{other}' (p100 | v100 | rtx3090)"
        )),
    }
}

/// Parses a positional integer argument.
pub fn int(args: &[String], idx: usize, name: &str) -> Result<usize, String> {
    let raw = args
        .get(idx)
        .ok_or_else(|| format!("missing argument <{name}>"))?;
    raw.parse()
        .map_err(|_| format!("<{name}> must be a number, got '{raw}'"))
}

/// Rejects a zero where a count is required; `name` is the argument as the
/// user wrote it (`--virtual`, `<W>`).
pub(crate) fn positive(value: usize, name: &str) -> Result<usize, String> {
    if value == 0 {
        return Err(format!("{name} must be >= 1"));
    }
    Ok(value)
}

/// Whether a `--flag` is present anywhere in the arguments.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Value of a `--key value` pair, if present.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Rejects scheme × shape pairs the builders cannot represent (they would
/// otherwise panic deep in the graph builder): Chimera's two bidirectional
/// pipelines need an even stage count and an even micro-batch count.
pub fn validate_scheme_shape(
    scheme: PipelineScheme,
    d: usize,
    n_micro: usize,
) -> Result<(), String> {
    positive(d, "pipeline stages")?;
    positive(n_micro, "micro-batches")?;
    if scheme == PipelineScheme::Chimera {
        if !d.is_multiple_of(2) {
            return Err(format!(
                "scheme chimera needs an even stage count (got {d}): its two \
                 bidirectional pipelines split the devices in half"
            ));
        }
        if !n_micro.is_multiple_of(2) {
            return Err(format!(
                "scheme chimera needs an even micro-batch count (got {n_micro}): \
                 half run down, half run up"
            ));
        }
    }
    Ok(())
}

/// Pipeline-execution options parsed from `train` flags. `Ok(None)` means
/// no `--pipeline-stages` was given (serial training loop); pipeline
/// flags without it are rejected instead of silently ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainPipeline {
    /// Pipeline scheme (default GPipe).
    pub scheme: PipelineScheme,
    /// Stage / device count.
    pub stages: usize,
    /// Micro-batches per step (default 4).
    pub n_micro: usize,
    /// Whether bubbles are filled with K-FAC work (`--no-fill` clears it).
    pub fill_bubbles: bool,
}

/// Parses `--pipeline-stages D [--scheme S] [--micro-batches N] [--no-fill]`.
pub fn train_pipeline(argv: &[String]) -> Result<Option<TrainPipeline>, String> {
    let Some(raw) = flag_value(argv, "--pipeline-stages") else {
        for flag in ["--scheme", "--micro-batches"] {
            if flag_value(argv, flag).is_some() {
                return Err(format!("{flag} requires --pipeline-stages"));
            }
        }
        if has_flag(argv, "--no-fill") {
            return Err("--no-fill requires --pipeline-stages".into());
        }
        return Ok(None);
    };
    let stages: usize = raw
        .parse()
        .map_err(|_| format!("bad --pipeline-stages '{raw}'"))?;
    let scheme = match flag_value(argv, "--scheme") {
        Some(s) => self::scheme(s)?,
        None => PipelineScheme::GPipe,
    };
    let n_micro: usize = flag_value(argv, "--micro-batches")
        .map(|s| s.parse().map_err(|_| format!("bad --micro-batches '{s}'")))
        .transpose()?
        .unwrap_or(4);
    validate_scheme_shape(scheme, stages, n_micro)?;
    Ok(Some(TrainPipeline {
        scheme,
        stages,
        n_micro,
        fill_bubbles: !has_flag(argv, "--no-fill"),
    }))
}

/// Parses the `train` checkpoint flags into [`CheckpointOptions`]:
/// `--checkpoint-dir DIR [--checkpoint-every N] [--checkpoint-retain R]`
/// enables saving (`every` defaults to 0 — final step only; the final step
/// always saves), and `--resume latest|PATH` restores before the first
/// step (`latest` picks the newest generation in `--checkpoint-dir`).
/// `Ok(None)` means no checkpoint flag was given; dependent flags without
/// their anchor are rejected instead of silently ignored.
pub fn train_checkpoint(
    argv: &[String],
) -> Result<Option<pipefisher_lm::CheckpointOptions>, String> {
    use pipefisher_lm::{CheckpointOptions, CheckpointPolicy, ResumeFrom};
    let dir = flag_value(argv, "--checkpoint-dir");
    if dir.is_none() {
        for flag in ["--checkpoint-every", "--checkpoint-retain"] {
            if flag_value(argv, flag).is_some() {
                return Err(format!("{flag} requires --checkpoint-dir"));
            }
        }
    }
    let save = dir
        .map(|d| -> Result<CheckpointPolicy, String> {
            let every: usize = flag_value(argv, "--checkpoint-every")
                .map(|s| {
                    s.parse()
                        .map_err(|_| format!("bad --checkpoint-every '{s}'"))
                })
                .transpose()?
                .unwrap_or(0);
            let retain: usize = flag_value(argv, "--checkpoint-retain")
                .map(|s| {
                    s.parse()
                        .map_err(|_| format!("bad --checkpoint-retain '{s}'"))
                })
                .transpose()?
                .unwrap_or(3);
            if retain == 0 {
                return Err("--checkpoint-retain must be >= 1".into());
            }
            let mut policy = CheckpointPolicy::new(d, every);
            policy.retain = retain;
            Ok(policy)
        })
        .transpose()?;
    let resume = match flag_value(argv, "--resume") {
        None => None,
        Some("latest") => {
            let d = dir.ok_or("--resume latest requires --checkpoint-dir")?;
            Some(ResumeFrom::Latest(d.into()))
        }
        Some(path) => Some(ResumeFrom::Path(path.into())),
    };
    if save.is_none() && resume.is_none() {
        return Ok(None);
    }
    Ok(Some(CheckpointOptions { save, resume }))
}

/// Parses `soak [N] [--seed S] [--out FILE]` into a harness config plus the
/// report path (default `results/SOAK.json`); any other `--flag` is an
/// error rather than silently ignored.
pub fn soak_config(argv: &[String]) -> Result<(pipefisher_harness::SoakConfig, String), String> {
    if let Some(flag) = argv
        .iter()
        .find(|a| a.starts_with("--") && !matches!(a.as_str(), "--seed" | "--out"))
    {
        return Err(format!("unknown soak flag '{flag}' (--seed | --out)"));
    }
    let mut cfg = pipefisher_harness::SoakConfig::default();
    if let Some(first) = argv.first().filter(|a| !a.starts_with("--")) {
        let n = first
            .parse()
            .map_err(|_| format!("bad scenario count '{first}'"))?;
        cfg.scenarios = positive(n, "scenario count")?;
    }
    if let Some(s) = flag_value(argv, "--seed") {
        cfg.base_seed = s.parse().map_err(|_| format!("bad --seed '{s}'"))?;
    }
    let out = flag_value(argv, "--out")
        .unwrap_or("results/SOAK.json")
        .to_string();
    Ok((cfg, out))
}

/// Builds the validated task graph a `<scheme> <D> <N_micro>` argument
/// prefix describes, honoring `--recompute`, `--virtual V` (interleaved),
/// and `--steps K` (async).
pub fn graph(argv: &[String]) -> Result<TaskGraph, String> {
    let d = int(argv, 1, "D")?;
    let n = int(argv, 2, "N_micro")?;
    // Interleaved and async schedules are 1F1B-shaped: same shape rules.
    let base = match argv.first().map(String::as_str) {
        Some("interleaved" | "async") => PipelineScheme::OneFOneB,
        Some(name) => scheme(name)?,
        None => {
            return Err("missing <scheme> (gpipe | 1f1b | chimera | interleaved | async)".into())
        }
    };
    validate_scheme_shape(base, d, n)?;
    let mut graph = match argv[0].as_str() {
        "interleaved" => {
            let v = flag_value(argv, "--virtual")
                .map(|s| s.parse().map_err(|_| format!("bad --virtual '{s}'")))
                .transpose()?
                .unwrap_or(2);
            build_interleaved_1f1b(d, n, positive(v, "--virtual")?)
        }
        "async" => {
            let steps = flag_value(argv, "--steps")
                .map(|s| s.parse().map_err(|_| format!("bad --steps '{s}'")))
                .transpose()?
                .unwrap_or(4);
            build_async_1f1b(d, n, positive(steps, "--steps")?)
        }
        _ => base.build(d, n),
    };
    if has_flag(argv, "--recompute") {
        graph = with_recompute(&graph);
    }
    graph.validate().map_err(|e| e.to_string())?;
    Ok(graph)
}

/// Writes `text` to `path`, mapping IO errors to CLI error strings.
pub fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing '{path}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names() {
        assert!(scheme("chimera").is_ok());
        assert!(scheme("nope").is_err());
        assert_eq!(arch("t5-large").unwrap().seq_len, 512);
        assert_eq!(hardware("v100").unwrap().name, "V100");
    }

    #[test]
    fn parses_ints_and_flags() {
        let args: Vec<String> = ["8", "--json", "--seed", "42"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(int(&args, 0, "d").unwrap(), 8);
        assert!(int(&args, 9, "d").is_err());
        assert!(has_flag(&args, "--json"));
        assert!(!has_flag(&args, "--quiet"));
        assert_eq!(flag_value(&args, "--seed"), Some("42"));
        assert_eq!(flag_value(&args, "--nope"), None);
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn train_pipeline_round_trips_every_flag_combination() {
        // No pipeline flags at all → serial loop.
        assert_eq!(train_pipeline(&argv(&["kfac", "100"])).unwrap(), None);
        // Defaults: gpipe, 4 micro-batches, bubbles filled.
        assert_eq!(
            train_pipeline(&argv(&["kfac", "100", "--pipeline-stages", "2"])).unwrap(),
            Some(TrainPipeline {
                scheme: PipelineScheme::GPipe,
                stages: 2,
                n_micro: 4,
                fill_bubbles: true,
            })
        );
        // Every flag at once.
        assert_eq!(
            train_pipeline(&argv(&[
                "kfac",
                "100",
                "--pipeline-stages",
                "4",
                "--scheme",
                "chimera",
                "--micro-batches",
                "8",
                "--no-fill",
            ]))
            .unwrap(),
            Some(TrainPipeline {
                scheme: PipelineScheme::Chimera,
                stages: 4,
                n_micro: 8,
                fill_bubbles: false,
            })
        );
        for scheme_name in ["gpipe", "1f1b", "chimera"] {
            let parsed = train_pipeline(&argv(&[
                "lamb",
                "10",
                "--pipeline-stages",
                "2",
                "--scheme",
                scheme_name,
                "--micro-batches",
                "2",
            ]))
            .unwrap()
            .unwrap();
            assert_eq!(parsed.scheme, scheme(scheme_name).unwrap());
        }
    }

    #[test]
    fn train_pipeline_rejects_invalid_pairs() {
        // Chimera with an odd stage or micro-batch count.
        for bad in [
            argv(&["kfac", "9", "--pipeline-stages", "3", "--scheme", "chimera"]),
            argv(&[
                "kfac",
                "9",
                "--pipeline-stages",
                "2",
                "--scheme",
                "chimera",
                "--micro-batches",
                "3",
            ]),
        ] {
            let err = train_pipeline(&bad).unwrap_err();
            assert!(err.contains("chimera"), "unhelpful error: {err}");
        }
        // Zero counts, junk numbers, unknown scheme.
        let err = crate::cmd_train::run(&argv(&["kfac", "0"])).unwrap_err();
        assert_eq!(err, "<steps> must be >= 1");
        assert!(train_pipeline(&argv(&["kfac", "9", "--pipeline-stages", "0"])).is_err());
        assert!(train_pipeline(&argv(&[
            "kfac",
            "9",
            "--pipeline-stages",
            "2",
            "--micro-batches",
            "0"
        ]))
        .is_err());
        assert!(train_pipeline(&argv(&["kfac", "9", "--pipeline-stages", "two"])).is_err());
        assert!(train_pipeline(&argv(&[
            "kfac",
            "9",
            "--pipeline-stages",
            "2",
            "--scheme",
            "zigzag"
        ]))
        .is_err());
        // Pipeline flags without --pipeline-stages are not silently ignored.
        assert!(train_pipeline(&argv(&["kfac", "9", "--scheme", "gpipe"])).is_err());
        assert!(train_pipeline(&argv(&["kfac", "9", "--micro-batches", "4"])).is_err());
        assert!(train_pipeline(&argv(&["kfac", "9", "--no-fill"])).is_err());
    }

    #[test]
    fn graph_rejects_odd_chimera_instead_of_panicking() {
        assert!(graph(&argv(&["chimera", "3", "4"])).is_err());
        assert!(graph(&argv(&["chimera", "4", "3"])).is_err());
        assert!(graph(&argv(&["chimera", "4", "4"])).is_ok());
        assert!(graph(&argv(&["gpipe", "3", "5"])).is_ok());
    }

    #[test]
    fn graph_rejects_zero_counts_for_every_scheme_word() {
        for name in ["gpipe", "1f1b", "chimera", "interleaved", "async"] {
            let err = graph(&argv(&[name, "0", "4"])).unwrap_err();
            assert!(err.contains("stages"), "{name}: {err}");
            let err = graph(&argv(&[name, "4", "0"])).unwrap_err();
            assert!(err.contains("micro-batches"), "{name}: {err}");
        }
        // The four `schedule` invocations that used to panic.
        for (bad, names) in [
            (
                &["interleaved", "4", "8", "--virtual", "0"][..],
                "--virtual",
            ),
            (
                &["interleaved", "4", "0", "--virtual", "2"][..],
                "micro-batches",
            ),
            (&["interleaved", "0", "4", "--virtual", "2"][..], "stages"),
            (&["async", "4", "4", "--steps", "0"][..], "--steps"),
        ] {
            let err = graph(&argv(bad)).unwrap_err();
            assert!(err.contains(names), "{bad:?}: {err}");
        }
    }

    #[test]
    fn assign_and_model_reject_out_of_range_shapes() {
        // The five `assign` / `model` invocations that used to panic; each
        // error names the offending argument.
        for (bad, names) in [
            (&["chimera", "bert-base", "p100", "3", "32"][..], "chimera"),
            (&["gpipe", "bert-base", "p100", "0", "32"][..], "stages"),
            (
                &["gpipe", "bert-base", "p100", "4", "32", "0"][..],
                "[blocks]",
            ),
            (
                &["gpipe", "bert-base", "p100", "4", "32", "1", "0"][..],
                "[W]",
            ),
        ] {
            let err = crate::cmd_assign::run(&argv(bad)).unwrap_err();
            assert!(err.contains(names), "{bad:?}: {err}");
        }
        let err = crate::cmd_model::run(&argv(&["bert-base", "p100", "0", "32"])).unwrap_err();
        assert!(err.contains("<D>"), "{err}");
        assert!(crate::cmd_model::run(&argv(&["bert-base", "p100", "4", "0"])).is_err());
    }

    #[test]
    fn assign_rejects_malformed_optionals() {
        // A positional after <B_micro> that is not a flag or a flag's value
        // is `[blocks]` then `[W]`, and must parse; none is read as 1.
        for (bad, names) in [
            (
                &["4", "32", "3x"][..],
                "[blocks] must be a number, got '3x'",
            ),
            (
                &["4", "32", "3", "zz"][..],
                "[W] must be a number, got 'zz'",
            ),
            (&["4", "32", "--json", "zz"][..], "[blocks]"),
            (&["4", "32", "--trace-out", "t.json", "1", "x"][..], "[W]"),
            (&["4", "32", "3", "1", "7"][..], "unexpected argument '7'"),
        ] {
            let full: Vec<&str> = ["gpipe", "bert-base", "p100"]
                .iter()
                .chain(bad)
                .copied()
                .collect();
            let err = crate::cmd_assign::run(&argv(&full)).unwrap_err();
            assert!(err.contains(names), "{bad:?}: {err}");
        }
    }

    #[test]
    fn graph_round_trips_schedule_flags() {
        assert!(graph(&argv(&["1f1b", "4", "8", "--recompute"])).is_ok());
        assert!(graph(&argv(&["interleaved", "4", "8", "--virtual", "2"])).is_ok());
        assert!(graph(&argv(&["async", "2", "4", "--steps", "3"])).is_ok());
        assert!(graph(&argv(&["interleaved", "4", "8", "--virtual", "x"])).is_err());
        assert!(graph(&argv(&["async", "2", "4", "--steps", "x"])).is_err());
        assert!(graph(&argv(&["nope", "2", "4"])).is_err());
        assert!(graph(&argv(&[])).is_err());
    }

    #[test]
    fn train_checkpoint_round_trips_every_flag() {
        use pipefisher_lm::ResumeFrom;
        // No checkpoint flags → plain run.
        assert!(train_checkpoint(&argv(&["kfac", "9"])).unwrap().is_none());
        // Save-only, defaults: final-step-only saves, retain 3.
        let opts = train_checkpoint(&argv(&["kfac", "9", "--checkpoint-dir", "ck"]))
            .unwrap()
            .unwrap();
        let policy = opts.save.unwrap();
        assert_eq!(policy.dir, std::path::PathBuf::from("ck"));
        assert_eq!((policy.every, policy.retain), (0, 3));
        assert!(opts.resume.is_none());
        // Every flag at once; `--resume latest` resolves against the dir.
        let opts = train_checkpoint(&argv(&[
            "kfac",
            "9",
            "--checkpoint-dir",
            "ck",
            "--checkpoint-every",
            "2",
            "--checkpoint-retain",
            "5",
            "--resume",
            "latest",
        ]))
        .unwrap()
        .unwrap();
        let policy = opts.save.unwrap();
        assert_eq!((policy.every, policy.retain), (2, 5));
        assert!(matches!(
            opts.resume,
            Some(ResumeFrom::Latest(d)) if d == std::path::Path::new("ck")
        ));
        // Resume from an explicit file needs no save dir.
        let opts = train_checkpoint(&argv(&["kfac", "9", "--resume", "x.pfck"]))
            .unwrap()
            .unwrap();
        assert!(opts.save.is_none());
        assert!(matches!(
            opts.resume,
            Some(ResumeFrom::Path(p)) if p == std::path::Path::new("x.pfck")
        ));
    }

    #[test]
    fn train_checkpoint_rejects_orphan_and_bad_flags() {
        for bad in [
            argv(&["kfac", "9", "--checkpoint-every", "2"]),
            argv(&["kfac", "9", "--checkpoint-retain", "2"]),
            argv(&["kfac", "9", "--resume", "latest"]),
            argv(&[
                "kfac",
                "9",
                "--checkpoint-dir",
                "ck",
                "--checkpoint-every",
                "x",
            ]),
            argv(&[
                "kfac",
                "9",
                "--checkpoint-dir",
                "ck",
                "--checkpoint-retain",
                "0",
            ]),
        ] {
            assert!(train_checkpoint(&bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn soak_config_round_trips_every_flag() {
        // Defaults.
        let (cfg, out) = soak_config(&argv(&[])).unwrap();
        assert_eq!(cfg.scenarios, 32);
        assert_eq!(cfg.base_seed, 0);
        assert_eq!(out, "results/SOAK.json");
        // Positional count plus every flag.
        let (cfg, out) = soak_config(&argv(&["64", "--seed", "17", "--out", "X.json"])).unwrap();
        assert_eq!(cfg.scenarios, 64);
        assert_eq!(cfg.base_seed, 17);
        assert_eq!(out, "X.json");
        // Invalid values.
        let err = soak_config(&argv(&["0"])).unwrap_err();
        assert_eq!(err, "scenario count must be >= 1");
        assert!(soak_config(&argv(&["lots"])).is_err());
        assert!(soak_config(&argv(&["--seed", "x"])).is_err());
    }

    #[test]
    fn soak_rejects_flags_it_does_not_read() {
        // A flag soak does not read must fail, not run a default block.
        for bad in [
            &["--threads", "2"][..],
            &["64", "--seeds", "3"],
            &["--seed", "3", "--out", "X.json", "--verbose"],
        ] {
            let err = soak_config(&argv(bad)).unwrap_err();
            assert!(err.starts_with("unknown soak flag"), "{bad:?}: {err}");
        }
    }
}
