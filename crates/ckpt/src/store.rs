//! Atomic persistence and step-numbered checkpoint directories.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::CkptError;
use crate::format::Snapshot;

/// Writes `bytes` to `path` atomically: the bytes go to a temporary file in
/// the same directory, are synced to disk, and the temp file is renamed over
/// `path`. A crash at any point leaves either the previous file or the
/// complete new one — never a torn write.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| CkptError::Malformed {
            detail: format!("checkpoint path '{}' has no file name", path.display()),
        })?
        .to_string_lossy()
        .into_owned();
    let tmp_path = match dir {
        Some(d) => d.join(format!(".{file_name}.tmp")),
        None => PathBuf::from(format!(".{file_name}.tmp")),
    };
    let ctx = |what: &str, p: &Path| format!("{what} {}", p.display());
    let mut tmp = fs::File::create(&tmp_path)
        .map_err(|e| CkptError::io(ctx("creating temp checkpoint", &tmp_path), e))?;
    let result = (|| {
        tmp.write_all(bytes)
            .map_err(|e| CkptError::io(ctx("writing temp checkpoint", &tmp_path), e))?;
        tmp.sync_all()
            .map_err(|e| CkptError::io(ctx("syncing temp checkpoint", &tmp_path), e))?;
        drop(tmp);
        fs::rename(&tmp_path, path)
            .map_err(|e| CkptError::io(ctx("renaming checkpoint into place", path), e))
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp_path);
    }
    result
}

/// Reads and fully validates a checkpoint file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, CkptError> {
    let bytes = fs::read(path)
        .map_err(|e| CkptError::io(format!("reading checkpoint {}", path.display()), e))?;
    Snapshot::decode(&bytes)
}

/// A directory of step-numbered checkpoint generations.
///
/// Files are named `ckpt_step{step:08}.pfck`, so lexicographic order is
/// step order. After each save, generations beyond the retained count are
/// pruned oldest-first.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
    retain: usize,
}

const CKPT_PREFIX: &str = "ckpt_step";
const CKPT_SUFFIX: &str = ".pfck";

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory, retaining the
    /// newest `retain` generations after each save. `retain` is clamped to
    /// at least 1 — a checkpoint directory that keeps nothing is useless.
    pub fn create(dir: impl Into<PathBuf>, retain: usize) -> Result<CheckpointDir, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| CkptError::io(format!("creating checkpoint dir {}", dir.display()), e))?;
        Ok(CheckpointDir {
            dir,
            retain: retain.max(1),
        })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The file path a given step's checkpoint saves to.
    pub fn path_for_step(&self, step: u64) -> PathBuf {
        generation_path(&self.dir, step)
    }

    /// Atomically writes `snapshot` as the generation for `step`, then
    /// prunes old generations. Returns the written path.
    pub fn save(&self, step: u64, snapshot: &Snapshot) -> Result<PathBuf, CkptError> {
        let path = self.path_for_step(step);
        write_atomic(&path, &snapshot.encode())?;
        self.prune()?;
        Ok(path)
    }

    fn prune(&self) -> Result<(), CkptError> {
        let steps = list_generations(&self.dir)?;
        if steps.len() <= self.retain {
            return Ok(());
        }
        for &step in &steps[..steps.len() - self.retain] {
            let path = self.path_for_step(step);
            fs::remove_file(&path)
                .map_err(|e| CkptError::io(format!("pruning checkpoint {}", path.display()), e))?;
        }
        Ok(())
    }
}

fn generation_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("{CKPT_PREFIX}{step:08}{CKPT_SUFFIX}"))
}

/// Step numbers of every generation in the checkpoint directory `dir`,
/// ascending. A read-only lookup: unlike [`CheckpointDir::create`] it never
/// creates `dir`, and a missing directory is an error.
pub fn list_generations(dir: &Path) -> Result<Vec<u64>, CkptError> {
    let listing_err = |e| CkptError::io(format!("listing checkpoint dir {}", dir.display()), e);
    let mut steps = Vec::new();
    for entry in fs::read_dir(dir).map_err(listing_err)? {
        let name = entry.map_err(listing_err)?.file_name();
        if let Some(step) = name
            .to_string_lossy()
            .strip_prefix(CKPT_PREFIX)
            .and_then(|s| s.strip_suffix(CKPT_SUFFIX))
            .and_then(|s| s.parse::<u64>().ok())
        {
            steps.push(step);
        }
    }
    steps.sort_unstable();
    Ok(steps)
}

/// Path of the newest generation in `dir`, if any; read-only like
/// [`list_generations`].
pub fn latest_generation(dir: &Path) -> Result<Option<PathBuf>, CkptError> {
    Ok(list_generations(dir)?
        .last()
        .map(|&step| generation_path(dir, step)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pipefisher-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot(marker: u8) -> Snapshot {
        let mut s = Snapshot::new();
        s.push_section("meta", vec![marker; 16]);
        s
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.pfck");
        let snap = sample_snapshot(3);
        write_atomic(&path, &snap.encode()).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), snap);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_existing_file() {
        let dir = temp_dir("replace");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.pfck");
        write_atomic(&path, &sample_snapshot(1).encode()).unwrap();
        write_atomic(&path, &sample_snapshot(2).encode()).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), sample_snapshot(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_saves_latest_and_prunes() {
        let dir = temp_dir("prune");
        let store = CheckpointDir::create(&dir, 2).unwrap();
        assert!(latest_generation(&dir).unwrap().is_none());
        for step in [1u64, 2, 3, 4, 10] {
            store.save(step, &sample_snapshot(step as u8)).unwrap();
        }
        assert_eq!(list_generations(&dir).unwrap(), vec![4, 10]);
        let path = latest_generation(&dir).unwrap().unwrap();
        assert_eq!(path, store.path_for_step(10));
        assert_eq!(read_snapshot(&path).unwrap(), sample_snapshot(10));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retain_zero_is_clamped_to_one() {
        let dir = temp_dir("clamp");
        let store = CheckpointDir::create(&dir, 0).unwrap();
        store.save(1, &sample_snapshot(1)).unwrap();
        store.save(2, &sample_snapshot(2)).unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrelated_files_are_ignored_and_preserved() {
        let dir = temp_dir("ignore");
        let store = CheckpointDir::create(&dir, 1).unwrap();
        fs::write(dir.join("notes.txt"), b"keep me").unwrap();
        store.save(5, &sample_snapshot(5)).unwrap();
        store.save(6, &sample_snapshot(6)).unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![6]);
        assert_eq!(fs::read(dir.join("notes.txt")).unwrap(), b"keep me");
        fs::remove_dir_all(&dir).unwrap();
    }
}
