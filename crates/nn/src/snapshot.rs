//! Checkpoint export/import of model parameters (DESIGN.md §3.15).
//!
//! Parameters are stored as a flat list of `(name, matrix)` entries sorted
//! by name. The sort is the section format, not a reconciliation of visit
//! orders: [`crate::BertForPreTraining`] and [`crate::StagedBert`] visit
//! their parameters in the same order, and a section's bytes depend only on
//! the names and values, never on the order a model's visitor walks them.

use std::collections::BTreeMap;

use pipefisher_ckpt::{CkptError, SectionReader, SectionWriter};
use pipefisher_tensor::Matrix;

use crate::{ParamVisitor, Parameter};

/// Encodes every parameter reachable through `visit` as a checkpoint
/// section: `count u32 | per entry: name | matrix`, sorted by name.
pub fn export_params_with(visit: impl FnOnce(ParamVisitor<'_>)) -> Vec<u8> {
    let mut entries: Vec<(String, Matrix)> = Vec::new();
    {
        let mut collect = |p: &mut Parameter| entries.push((p.name.clone(), p.value.clone()));
        visit(&mut collect);
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut w = SectionWriter::new();
    w.u32(entries.len() as u32);
    for (name, value) in &entries {
        w.str(name);
        w.matrix(value);
    }
    w.into_bytes()
}

/// Restores parameter values from a section written by
/// [`export_params_with`] into the parameters reachable through `visit`.
///
/// # Errors
///
/// - [`CkptError::ShapeMismatch`] if a stored tensor's shape disagrees with
///   the live parameter;
/// - [`CkptError::UnknownEntry`] if the checkpoint names a parameter the
///   live model does not have;
/// - [`CkptError::Malformed`] if a live parameter is absent from the
///   checkpoint, or the section bytes are structurally invalid.
///
/// On error the model may be partially updated; callers restore into a
/// freshly built model (as the trainer does), so a failed import is
/// discarded wholesale rather than trained on.
pub fn import_params_with(
    bytes: &[u8],
    visit: impl FnOnce(ParamVisitor<'_>),
) -> Result<(), CkptError> {
    let mut r = SectionReader::new("model", bytes);
    let count = r.u32()?;
    let mut entries: BTreeMap<String, Matrix> = BTreeMap::new();
    for _ in 0..count {
        let name = r.str()?;
        let value = r.matrix()?;
        if entries.insert(name.clone(), value).is_some() {
            return Err(CkptError::Malformed {
                detail: format!("duplicate parameter '{name}' in model section"),
            });
        }
    }
    r.finish()?;
    let mut err: Option<CkptError> = None;
    {
        let mut apply = |p: &mut Parameter| {
            if err.is_some() {
                return;
            }
            match entries.remove(&p.name) {
                Some(value) => {
                    if value.shape() != p.value.shape() {
                        err = Some(CkptError::ShapeMismatch {
                            name: p.name.clone(),
                            expected: p.value.shape(),
                            found: value.shape(),
                        });
                    } else {
                        p.value = value;
                    }
                }
                None => {
                    err = Some(CkptError::Malformed {
                        detail: format!(
                            "checkpoint model section is missing parameter '{}'",
                            p.name
                        ),
                    });
                }
            }
        };
        visit(&mut apply);
    }
    if let Some(e) = err {
        return Err(e);
    }
    if let Some((name, _)) = entries.into_iter().next() {
        return Err(CkptError::UnknownEntry {
            context: "model parameters".to_string(),
            name,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BertConfig, BertForPreTraining, StagedBert};
    use rand::SeedableRng;

    fn model(seed: u64) -> BertForPreTraining {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        BertForPreTraining::new(BertConfig::tiny(20, 8), 0.0, &mut rng)
    }

    fn param_bits(m: &mut BertForPreTraining) -> Vec<u64> {
        let mut bits = Vec::new();
        m.visit_params(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn export_import_round_trips_bitwise() {
        let mut src = model(1);
        let want = param_bits(&mut src);
        let section = export_params_with(|f| src.visit_params(f));
        let mut dst = model(2);
        assert_ne!(param_bits(&mut dst), want);
        import_params_with(&section, |f| dst.visit_params(f)).unwrap();
        assert_eq!(param_bits(&mut dst), want);
        // Re-export of the restored model is byte-identical.
        assert_eq!(export_params_with(|f| dst.visit_params(f)), section);
    }

    #[test]
    fn staged_and_monolithic_exports_are_byte_identical() {
        let mut mono = model(3);
        let mono_section = export_params_with(|f| mono.visit_params(f));
        for stages in [1usize, 2, 4] {
            let mut staged = StagedBert::from_model(mono.clone(), stages);
            assert_eq!(
                export_params_with(|f| staged.visit_params(f)),
                mono_section,
                "{stages}-stage export differs from monolithic"
            );
        }
    }

    #[test]
    fn import_into_staged_matches_monolithic() {
        let mut src = model(4);
        let section = export_params_with(|f| src.visit_params(f));
        let mut staged = StagedBert::from_model(model(5), 2);
        import_params_with(&section, |f| staged.visit_params(f)).unwrap();
        assert_eq!(export_params_with(|f| staged.visit_params(f)), section);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut small = model(1);
        let section = export_params_with(|f| small.visit_params(f));
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut big = BertForPreTraining::new(BertConfig::tiny(20, 16), 0.0, &mut rng);
        assert!(matches!(
            import_params_with(&section, |f| big.visit_params(f)),
            Err(CkptError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_and_missing_entries_are_rejected() {
        let mut m = model(1);
        let section = export_params_with(|f| m.visit_params(f));

        // Append a bogus extra entry (checkpoint has more than the model).
        let mut r = SectionReader::new("model", &section);
        let count = r.u32().unwrap();
        let mut w = SectionWriter::new();
        w.u32(count + 1);
        let mut rebuilt = w.into_bytes();
        rebuilt.extend_from_slice(&section[4..]);
        let mut extra = SectionWriter::new();
        extra.str("zz.not.a.parameter");
        extra.matrix(&Matrix::zeros(1, 1));
        rebuilt.extend_from_slice(&extra.into_bytes());
        assert!(matches!(
            import_params_with(&rebuilt, |f| m.visit_params(f)),
            Err(CkptError::UnknownEntry { .. })
        ));

        // Drop the last entry (model has more than the checkpoint). Rebuild
        // a 0-entry section for simplicity.
        let mut empty = SectionWriter::new();
        empty.u32(0);
        assert!(matches!(
            import_params_with(&empty.into_bytes(), |f| m.visit_params(f)),
            Err(CkptError::Malformed { .. })
        ));
    }
}
