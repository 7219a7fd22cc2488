//! Trainer-level checkpoint policy and the snapshot schema (DESIGN.md
//! §3.15).
//!
//! A training checkpoint is a [`Snapshot`] with four sections:
//!
//! - `meta` — the step to resume at and the optimizer label (resuming into
//!   a different optimizer is a structured error, not silent corruption);
//! - `model` — every parameter, sorted by name (see
//!   `pipefisher_nn::export_params_with`);
//! - `optim` — the optimizer's mutable state, tagged by optimizer kind;
//! - `rng` — the trainer's data-RNG state words. The data RNG *is* the
//!   data-loader cursor: the batch sampler is a pure function of it, so
//!   restoring the stream resumes the exact batch sequence.
//!
//! Together with the optimizer's step counter (which fixes the K-FAC
//! refresh-cadence phase) this is the complete mutable state of a
//! training loop, which is what makes resume bitwise-invisible.

use pipefisher_ckpt::{
    latest_generation, read_snapshot, CheckpointDir, CkptError, SectionReader, SectionWriter,
    Snapshot,
};
use std::path::{Path, PathBuf};

/// When and where a training loop writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding the step-numbered generations.
    pub dir: PathBuf,
    /// Save every this many optimizer steps (the final step always saves;
    /// `0` disables periodic saves, leaving only the final one).
    pub every: usize,
    /// Newest generations kept after each save.
    pub retain: usize,
}

impl CheckpointPolicy {
    /// A policy saving to `dir` every `every` steps, retaining 3
    /// generations.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every,
            retain: 3,
        }
    }

    /// Opens (creating if needed) the checkpoint directory.
    pub(crate) fn open(&self) -> Result<CheckpointDir, CkptError> {
        CheckpointDir::create(&self.dir, self.retain)
    }

    /// Whether a checkpoint is due after completing `next_step` of
    /// `total_steps` (both 1-based counts of completed steps).
    pub(crate) fn due(&self, next_step: usize, total_steps: usize) -> bool {
        next_step == total_steps || (self.every > 0 && next_step.is_multiple_of(self.every))
    }
}

/// Where to resume a run from.
#[derive(Debug, Clone)]
pub enum ResumeFrom {
    /// An explicit checkpoint file.
    Path(PathBuf),
    /// The newest generation in a checkpoint directory.
    Latest(PathBuf),
}

/// Resolves a [`ResumeFrom`] to a concrete checkpoint file path.
pub fn resolve_resume(resume: &ResumeFrom) -> Result<PathBuf, CkptError> {
    match resume {
        ResumeFrom::Path(p) => Ok(p.clone()),
        ResumeFrom::Latest(dir) => latest_generation(dir)?.ok_or_else(|| CkptError::Malformed {
            detail: format!("no checkpoints found in {}", dir.display()),
        }),
    }
}

/// Checkpointing directives for a training run: optionally save, optionally
/// resume. Both `None` is a plain run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOptions {
    /// Write checkpoints per this policy.
    pub save: Option<CheckpointPolicy>,
    /// Restore state from here before the first step.
    pub resume: Option<ResumeFrom>,
}

/// The decoded contents of one training checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// The step index the resumed loop starts at (== completed steps).
    pub next_step: u64,
    /// Label of the optimizer that wrote the checkpoint.
    pub optimizer_label: String,
    /// `model` section payload (named parameters, sorted).
    pub model: Vec<u8>,
    /// `optim` section payload (tagged optimizer state).
    pub optim: Vec<u8>,
    /// Data-RNG state words.
    pub rng: [u64; 4],
}

impl TrainCheckpoint {
    /// Encodes as a checkpoint [`Snapshot`].
    pub fn to_snapshot(&self) -> Snapshot {
        let mut meta = SectionWriter::new();
        meta.u64(self.next_step);
        meta.str(&self.optimizer_label);
        let mut rng = SectionWriter::new();
        for &word in &self.rng {
            rng.u64(word);
        }
        let mut snap = Snapshot::new();
        snap.push_section("meta", meta.into_bytes());
        snap.push_section("model", self.model.clone());
        snap.push_section("optim", self.optim.clone());
        snap.push_section("rng", rng.into_bytes());
        snap
    }

    /// Decodes from a validated [`Snapshot`].
    pub fn from_snapshot(snap: &Snapshot) -> Result<TrainCheckpoint, CkptError> {
        let mut meta = SectionReader::new("meta", snap.require("meta")?);
        let next_step = meta.u64()?;
        let optimizer_label = meta.str()?;
        meta.finish()?;
        let mut rng_r = SectionReader::new("rng", snap.require("rng")?);
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = rng_r.u64()?;
        }
        rng_r.finish()?;
        Ok(TrainCheckpoint {
            next_step,
            optimizer_label,
            model: snap.require("model")?.to_vec(),
            optim: snap.require("optim")?.to_vec(),
            rng,
        })
    }

    /// Reads, validates, and decodes a checkpoint file.
    pub fn load(path: &Path) -> Result<TrainCheckpoint, CkptError> {
        TrainCheckpoint::from_snapshot(&read_snapshot(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            next_step: 7,
            optimizer_label: "K-FAC".to_string(),
            model: vec![1, 2, 3],
            optim: vec![4, 5],
            rng: [9, 8, 7, 6],
        }
    }

    #[test]
    fn resume_from_missing_dir_errors_without_creating_it() {
        let dir = std::env::temp_dir().join(format!(
            "pipefisher_missing_ckpt_dir_{}/nested",
            std::process::id()
        ));
        assert!(!dir.exists());
        let err = resolve_resume(&ResumeFrom::Latest(dir.clone())).unwrap_err();
        assert!(matches!(err, CkptError::Io { .. }), "{err}");
        assert!(
            !dir.exists(),
            "looking up a checkpoint created {}",
            dir.display()
        );
        assert!(!dir.parent().unwrap().exists());
    }

    #[test]
    fn snapshot_round_trip() {
        let tc = sample();
        let snap = tc.to_snapshot();
        let back = TrainCheckpoint::from_snapshot(&snap).unwrap();
        assert_eq!(back, tc);
        // And through the byte format.
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(TrainCheckpoint::from_snapshot(&decoded).unwrap(), tc);
    }

    #[test]
    fn missing_sections_are_structured_errors() {
        let snap = Snapshot::new();
        assert!(matches!(
            TrainCheckpoint::from_snapshot(&snap),
            Err(CkptError::MissingSection { .. })
        ));
    }

    #[test]
    fn due_fires_on_interval_and_final_step() {
        let p = CheckpointPolicy::new("/tmp/x", 3);
        assert!(!p.due(1, 10));
        assert!(p.due(3, 10));
        assert!(!p.due(4, 10));
        assert!(p.due(10, 10)); // final step always saves
        let final_only = CheckpointPolicy::new("/tmp/x", 0);
        assert!(!final_only.due(3, 10));
        assert!(final_only.due(10, 10));
    }

    #[test]
    fn resolve_latest_errors_on_empty_dir() {
        let dir =
            std::env::temp_dir().join(format!("pipefisher-resume-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = resolve_resume(&ResumeFrom::Latest(dir.clone())).unwrap_err();
        assert!(matches!(err, CkptError::Malformed { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
