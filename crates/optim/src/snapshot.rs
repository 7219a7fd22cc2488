//! Checkpoint capture of optimizer state (DESIGN.md §3.15).
//!
//! Each optimizer serializes its *mutable* state — step counters, moments,
//! curvature EMAs, cached inverses, per-layer staleness steps — but not its
//! hyperparameters, which the caller reconstructs from configuration.
//! Per-parameter maps are written sorted by name so the encoding is
//! deterministic. Optimizers keep no working memory between calls (their
//! temporaries come from the workspace arena), so the state is all there is.
//!
//! Refresh cadence is a pure function of the step counter (`t % interval
//! == 0` before the step), so restoring `t` restores the K-FAC cadence
//! phase exactly — a resumed run refreshes curvature and inverses on the
//! same absolute steps the uninterrupted run does.

use std::collections::HashMap;

use pipefisher_ckpt::CkptError;

use crate::KfacModel;

/// Serialization of an optimizer's mutable state for checkpointing.
///
/// The contract backing bitwise resume: for any optimizer `o`,
/// `import_state(export_state(o))` into a freshly constructed optimizer of
/// the same configuration yields one that produces bit-identical updates to
/// `o` on every subsequent step.
pub trait StateSnapshot {
    /// Serializes the mutable state.
    fn export_state(&self) -> Vec<u8>;

    /// Replaces the mutable state with one captured by
    /// [`StateSnapshot::export_state`]. On error, state is unchanged.
    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CkptError>;

    /// Moves what this optimizer keeps for `model`'s parameters (and K-FAC
    /// layers) into `into`, replacing what `into` kept for them; an entry
    /// this one lacks is dropped from `into` too. Step counters and
    /// hyperparameters stay where they are. The pipeline executor hands a
    /// stage's state to the stage's owner this way and back for a
    /// checkpoint, so the exported bytes are the serial optimizer's.
    fn hand_over(&mut self, into: &mut Self, model: &mut dyn KfacModel)
    where
        Self: Sized;
}

/// A `HashMap`'s entries sorted by key, for deterministic encoding.
pub(crate) fn sorted_entries<V>(map: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    entries
}

/// Inserts `(name, value)` into `map`, rejecting duplicates as
/// [`CkptError::Malformed`].
pub(crate) fn insert_unique<V>(
    map: &mut HashMap<String, V>,
    context: &str,
    name: String,
    value: V,
) -> Result<(), CkptError> {
    if map.insert(name.clone(), value).is_some() {
        return Err(CkptError::Malformed {
            detail: format!("duplicate entry '{name}' in {context} state"),
        });
    }
    Ok(())
}

/// Moves `name`'s entry from `from` into `into`, or drops `into`'s if
/// `from` has none — one key of [`StateSnapshot::hand_over`].
pub(crate) fn move_entry<V>(
    from: &mut HashMap<String, V>,
    into: &mut HashMap<String, V>,
    name: &str,
) {
    match from.remove(name) {
        Some(v) => drop(into.insert(name.to_string(), v)),
        None => drop(into.remove(name)),
    }
}
