//! K-FAC: Kronecker-Factored Approximate Curvature (paper §2.3).
//!
//! The optimizer maintains, per eligible [`Linear`] layer, the Kronecker
//! factors of the layerwise empirical Fisher block:
//!
//! * `A_l = ⟨â_l â_lᵀ⟩` — Gram matrix of bias-augmented input activations
//!   (**curvature work**, one GEMM per layer),
//! * `B_l = ⟨e_l e_lᵀ⟩` — Gram matrix of output-gradient error signals
//!   (**curvature work**, one GEMM per layer),
//! * `(A_l + λ_A I)⁻¹`, `(B_l + λ_B I)⁻¹` — damped Cholesky inverses
//!   (**inversion work**, two factorizations per layer),
//!
//! and applies the preconditioned gradient `B_l⁻¹ Ḡ_l A_l⁻¹`
//! (**precondition work**, two GEMMs per layer) every step — possibly with
//! *stale* factors/inverses, exactly as PipeFisher does when curvature and
//! inversion work is spread over several pipeline steps' bubbles.
//!
//! Damping is split between the factors with the standard π-correction
//! (`λ_A = λ·√π`, `λ_B = λ/√π`, `π = √((tr A / dim A)/(tr B / dim B))`).

use crate::Optimizer;
use pipefisher_nn::{Linear, ParamVisitor, Parameter};
use pipefisher_tensor::{cholesky_inverse_into, Matrix};
use std::collections::HashMap;

/// Hyperparameters for [`Kfac`].
#[derive(Debug, Clone, PartialEq)]
pub struct KfacConfig {
    /// Base damping λ added (π-split) to the factor diagonals.
    pub damping: f64,
    /// Exponential moving-average decay ρ for factor accumulation
    /// (`A ← ρ·A + (1−ρ)·A_batch`); `0.0` replaces the factor each refresh.
    pub ema_decay: f64,
    /// Refresh the Kronecker factors every this many steps (paper: 1–10 with
    /// PipeFisher, ~100 in prior distributed K-FAC).
    pub curvature_interval: usize,
    /// Refresh the inverses every this many steps.
    pub inversion_interval: usize,
    /// Optional KL-style clipping constant κ: the preconditioned gradients
    /// of all K-FAC layers are rescaled by `min(1, √(κ / (lr²·Σ gᵀg̃)))`,
    /// bounding the (approximate) KL step size as in KAISA.
    pub kl_clip: Option<f64>,
    /// Appendix A.2: approximate each Kronecker factor larger than this by
    /// a block-diagonal matrix with blocks of at most this size, so very
    /// wide layers (`d_ff` of scaled-up Transformers) keep per-piece
    /// inversion work bounded. `None` keeps full factors.
    pub factor_block_size: Option<usize>,
}

impl Default for KfacConfig {
    fn default() -> Self {
        KfacConfig {
            damping: 1e-3,
            ema_decay: 0.0,
            curvature_interval: 1,
            inversion_interval: 1,
            kl_clip: Some(1e-3),
            factor_block_size: None,
        }
    }
}

/// Zeroes every entry of `m` outside the diagonal blocks of `block_size`
/// (the Appendix A.2 block-diagonal approximation). The damped inverse of
/// the result is then itself block-diagonal, so a full Cholesky of the
/// masked matrix computes exactly the per-block inverses.
fn block_diagonal_mask(m: &mut Matrix, block_size: usize) {
    let n = m.rows();
    if block_size == 0 || block_size >= n {
        return;
    }
    for i in 0..n {
        let bi = i / block_size;
        for j in 0..n {
            if j / block_size != bi {
                m[(i, j)] = 0.0;
            }
        }
    }
}

/// Per-layer K-FAC state: factors, inverses, and staleness bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct LayerKfacState {
    /// Kronecker factor over inputs, `(d_in+1) × (d_in+1)`.
    pub factor_a: Option<Matrix>,
    /// Kronecker factor over output errors, `d_out × d_out`.
    pub factor_b: Option<Matrix>,
    /// Damped inverse of `factor_a`.
    pub inv_a: Option<Matrix>,
    /// Damped inverse of `factor_b`.
    pub inv_b: Option<Matrix>,
    /// Step at which the factors were last refreshed.
    pub last_curvature_step: u64,
    /// Step at which the inverses were last refreshed.
    pub last_inversion_step: u64,
    /// How many factor inversions of this layer failed at the configured
    /// damping and were retried with the escalated one (see
    /// [`refresh_inverses`]). Runtime-only: counts since this process
    /// created or restored the state; checkpoints do not carry it.
    pub damping_escalations: u64,
    /// How many refreshes of this layer failed even after escalation and
    /// kept the stale inverses. Runtime-only, like `damping_escalations`.
    pub inversion_failures: u64,
}

impl LayerKfacState {
    /// Whether preconditioning is possible (both inverses exist).
    pub fn ready(&self) -> bool {
        self.inv_a.is_some() && self.inv_b.is_some()
    }
}

/// A model trainable by [`Kfac`]: exposes its K-FAC-eligible linear layers
/// and all of its parameters.
pub trait KfacModel {
    /// Visits every K-FAC-eligible [`Linear`] layer, each once. The layers
    /// stay borrowed for as long as the model is, so a caller can keep them
    /// paired with their states in one list.
    fn visit_kfac_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear));

    /// Visits every trainable parameter (including non-K-FAC ones).
    fn visit_all_params(&mut self, f: ParamVisitor<'_>);
}

impl KfacModel for pipefisher_nn::BertForPreTraining {
    fn visit_kfac_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        self.visit_linears(f);
    }

    fn visit_all_params(&mut self, f: ParamVisitor<'_>) {
        self.visit_params(f);
    }
}

impl KfacModel for Linear {
    fn visit_kfac_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        f(self);
    }

    fn visit_all_params(&mut self, f: ParamVisitor<'_>) {
        use pipefisher_nn::Layer as _;
        self.visit_params(f);
    }
}

impl KfacModel for pipefisher_nn::StagedBert {
    fn visit_kfac_linears<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Linear)) {
        self.visit_linears(f);
    }

    fn visit_all_params(&mut self, f: ParamVisitor<'_>) {
        self.visit_params(f);
    }
}

/// The K-FAC optimizer, wrapping a fallback first-order optimizer.
///
/// One optimization step is two parts. The *refresh work units*, run per
/// layer when the cadence says so:
///
/// 1. **Curvature** ([`fold_curvature_a`], [`fold_curvature_b`]): fold the
///    layer's captured `(â_l, e_l)` batch statistics into `A_l`, `B_l`.
/// 2. **Inversion** ([`refresh_inverses`]): damped Cholesky inverses of both
///    factors.
///
/// Then [`Kfac::step_preconditioned`], every step:
///
/// 3. **Precondition**: rewrite each K-FAC layer's gradient to
///    `B_l⁻¹ Ḡ_l A_l⁻¹` using the freshest available (possibly stale)
///    inverses, then apply optional KL clipping.
/// 4. Run the fallback optimizer over *all* parameters — K-FAC layers see
///    preconditioned gradients, everything else (embeddings, LayerNorms, the
///    vocab head) sees raw gradients, matching the paper's "K-FAC for all
///    fully-connected layers, NVLAMB for the rest" setup.
///
/// [`Kfac::step`] runs the units in place and then part two; a caller that
/// places the units itself (the pipeline executor, in bubbles) loans the
/// layer states out with [`Kfac::take_state`] / [`Kfac::put_state`] and calls
/// part two directly. Either way the same functions run on the same inputs.
#[derive(Debug, Clone)]
pub struct Kfac<O: Optimizer> {
    config: KfacConfig,
    fallback: O,
    states: HashMap<String, LayerKfacState>,
    t: u64,
}

impl<O: Optimizer> Kfac<O> {
    /// Creates a K-FAC optimizer over the given fallback.
    ///
    /// # Panics
    ///
    /// Panics if `config.curvature_interval` or `config.inversion_interval`
    /// is 0: a refresh cadence needs a period of at least one step.
    pub fn new(config: KfacConfig, fallback: O) -> Self {
        assert!(
            config.curvature_interval > 0 && config.inversion_interval > 0,
            "Kfac::new: refresh intervals must be at least 1 (got curvature {}, inversion {})",
            config.curvature_interval,
            config.inversion_interval
        );
        Kfac {
            config,
            fallback,
            states: HashMap::new(),
            t: 0,
        }
    }

    /// Current step count.
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Borrows the per-layer state (for inspection in tests/experiments).
    pub fn state(&self, layer_name: &str) -> Option<&LayerKfacState> {
        self.states.get(layer_name)
    }

    /// The optimizer's hyperparameters.
    pub fn config(&self) -> &KfacConfig {
        &self.config
    }

    /// Whether the *next* [`Kfac::step`] (or [`Kfac::step_preconditioned`])
    /// will be a curvature-refresh step. This is the only cadence clock:
    /// `step` asks it for its own refresh pass, and the training loop asks
    /// it once before each step to decide whether the step captures
    /// statistics and, on the pipeline executor, whether fold work units go
    /// into bubbles.
    pub fn next_step_refreshes_curvature(&self) -> bool {
        self.t.is_multiple_of(self.config.curvature_interval as u64)
    }

    /// Whether the next step will be an inversion-refresh step.
    pub fn next_step_refreshes_inversion(&self) -> bool {
        self.t.is_multiple_of(self.config.inversion_interval as u64)
    }

    /// Takes a layer's state out of the optimizer (a default one if the
    /// layer has none yet), leaving an empty placeholder, so refresh work
    /// can run on it elsewhere — the pipeline executor loans it to a stage
    /// worker for bubble-filled fold/inversion work. Pair with
    /// [`Kfac::put_state`].
    pub fn take_state(&mut self, layer_name: &str) -> LayerKfacState {
        self.states
            .get_mut(layer_name)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Returns a loaned layer state after external fold/inversion work.
    /// Only a layer's first return allocates (its name key).
    pub fn put_state(&mut self, layer_name: &str, state: LayerKfacState) {
        match self.states.get_mut(layer_name) {
            Some(entry) => *entry = state,
            None => drop(self.states.insert(layer_name.to_string(), state)),
        }
    }

    /// `(damping_escalations, inversion_failures)` summed over all layers —
    /// the optimizer's numerical-health counters (see the fields of
    /// [`LayerKfacState`]). Both stay 0 on a healthy run.
    pub fn inversion_health(&self) -> (u64, u64) {
        self.states.values().fold((0, 0), |(e, f), st| {
            (e + st.damping_escalations, f + st.inversion_failures)
        })
    }

    /// Pairs each K-FAC layer with its state, taken out of the optimizer,
    /// in visitation order. Pair with [`Kfac::return_slots`].
    fn loan_slots<'m>(&mut self, model: &'m mut (dyn KfacModel + '_)) -> Vec<LayerSlot<'m>> {
        let mut slots = Vec::new();
        model.visit_kfac_linears(&mut |lin| {
            let state = self.take_state(lin.name());
            slots.push(LayerSlot { lin, state });
        });
        slots
    }

    /// Hands the states of [`Kfac::loan_slots`] back.
    fn return_slots(&mut self, slots: Vec<LayerSlot<'_>>) {
        for slot in slots {
            self.put_state(slot.lin.name(), slot.state);
        }
    }

    /// Runs one optimization step *after* any curvature and inversion
    /// refresh due this step — parts 3–4 of the type-level docs:
    /// preconditioning, KL clipping, and the fallback update. [`Kfac::step`]
    /// ends with it; a caller that ran [`fold_curvature_a`],
    /// [`fold_curvature_b`] and [`refresh_inverses`] itself on states loaned
    /// out with [`Kfac::take_state`] calls it directly.
    pub fn step_preconditioned(&mut self, model: &mut dyn KfacModel, lr: f64) {
        self.t += 1;
        let mut slots = self.loan_slots(model);

        // Captured statistics are spent: the refresh work that wanted them
        // has run. KL clipping needs Σ ⟨g, g̃⟩, summed in visitation order.
        let mut vsum = 0.0;
        for slot in &mut slots {
            slot.lin.kfac_stats_mut().clear();
            if slot.state.ready() {
                vsum += precondition(&slot.state, slot.lin);
            }
        }
        if let Some(kappa) = self.config.kl_clip {
            let denom = lr * lr * vsum;
            if denom > kappa {
                let scale = (kappa / denom).sqrt();
                for slot in slots.iter_mut().filter(|s| s.state.ready()) {
                    let (w, b, _) = slot.lin.kfac_parts_mut();
                    w.grad.scale_inplace(scale);
                    b.grad.scale_inplace(scale);
                }
            }
        }

        // Hand the states back before touching `model` again.
        self.return_slots(slots);

        self.fallback.begin_step();
        let fallback = &mut self.fallback;
        model.visit_all_params(&mut |p: &mut Parameter| fallback.step_param(p, lr));
    }

    /// Runs one optimization step, refresh work included: asks the cadence
    /// clock what is due, runs the due work units on every layer — fold `A`,
    /// fold `B`, refresh the inverses, in that order — and finishes with
    /// [`Kfac::step_preconditioned`].
    pub fn step(&mut self, model: &mut dyn KfacModel, lr: f64) {
        let refresh_curv = self.next_step_refreshes_curvature();
        let refresh_inv = self.next_step_refreshes_inversion();
        if refresh_curv || refresh_inv {
            let t = self.t + 1;
            let mut slots = self.loan_slots(model);
            let config = &self.config;
            for slot in &mut slots {
                if refresh_curv {
                    fold_curvature_a(&mut slot.state, slot.lin, config.ema_decay, t);
                    fold_curvature_b(&mut slot.state, slot.lin, config.ema_decay, t);
                }
                if refresh_inv {
                    refresh_inverses(&mut slot.state, config.damping, config.factor_block_size, t);
                }
            }
            self.return_slots(slots);
        }
        self.step_preconditioned(model, lr);
    }
}

impl<O: Optimizer + crate::StateSnapshot> crate::StateSnapshot for Kfac<O> {
    fn export_state(&self) -> Vec<u8> {
        let mut w = pipefisher_ckpt::SectionWriter::new();
        w.u64(self.t);
        // Fallback optimizer state rides along as a length-prefixed blob so
        // K-FAC's own layout is independent of the inner optimizer's.
        let fallback = crate::StateSnapshot::export_state(&self.fallback);
        w.u64(fallback.len() as u64);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&fallback);
        let mut w = pipefisher_ckpt::SectionWriter::new();
        let entries = crate::snapshot::sorted_entries(&self.states);
        w.u32(entries.len() as u32);
        for (name, st) in entries {
            w.str(name);
            w.opt_matrix(st.factor_a.as_ref());
            w.opt_matrix(st.factor_b.as_ref());
            w.opt_matrix(st.inv_a.as_ref());
            w.opt_matrix(st.inv_b.as_ref());
            w.u64(st.last_curvature_step);
            w.u64(st.last_inversion_step);
        }
        bytes.extend_from_slice(&w.into_bytes());
        bytes
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), pipefisher_ckpt::CkptError> {
        let mut r = pipefisher_ckpt::SectionReader::new("optim.kfac", bytes);
        let t = r.u64()?;
        let fallback_len = r.u64()? as usize;
        let fallback_bytes = r.bytes(fallback_len)?;
        let count = r.u32()?;
        let mut states: HashMap<String, LayerKfacState> = HashMap::new();
        for _ in 0..count {
            let name = r.str()?;
            let st = LayerKfacState {
                factor_a: r.opt_matrix()?,
                factor_b: r.opt_matrix()?,
                inv_a: r.opt_matrix()?,
                inv_b: r.opt_matrix()?,
                last_curvature_step: r.u64()?,
                last_inversion_step: r.u64()?,
                ..Default::default()
            };
            crate::snapshot::insert_unique(&mut states, "K-FAC layer", name, st)?;
        }
        r.finish()?;
        // Restore the fallback first so a malformed inner blob leaves this
        // optimizer untouched.
        crate::StateSnapshot::import_state(&mut self.fallback, fallback_bytes)?;
        self.t = t;
        self.states = states;
        Ok(())
    }
}

/// One layer's share of a step: the layer and its owned state.
struct LayerSlot<'m> {
    lin: &'m mut Linear,
    state: LayerKfacState,
}

/// Folds a fresh batch Gram matrix into a (possibly absent) factor: EMA
/// when `ema_decay > 0`, replacement otherwise. A replaced factor's storage
/// drops back into the workspace arena.
fn fold_factor(old: &mut Option<Matrix>, batch: Matrix, ema_decay: f64) {
    match old {
        Some(prev) if ema_decay > 0.0 => {
            prev.scale_inplace(ema_decay);
            prev.axpy(1.0 - ema_decay, &batch);
        }
        _ => *old = Some(batch),
    }
}

/// Folds a layer's captured *activation* statistics into Kronecker factor
/// `A` — the schedulable `Curvature(A)` work unit the pipeline executor
/// runs inside a bubble. A no-op when nothing was captured. Only the
/// forward-captured activations are needed, matching the paper's release
/// rule (`A_l` work is released by the forward pass, §3.1).
///
/// A = âᵀâ / n (mean over tokens). The backward pass propagates mean-loss
/// gradients, so per-token error signals carry a 1/n factor; B = n·eᵀe
/// restores the ⟨e eᵀ⟩ scale of the sum-loss errors the paper defines.
/// (Any fixed rescaling is absorbed into damping/lr; we pick the
/// convention used by KAISA and kfac-pytorch.)
///
/// The Gram product lands in a workspace-arena local that becomes the
/// factor (or is folded into it and returned to the arena).
pub fn fold_curvature_a(state: &mut LayerKfacState, lin: &Linear, ema_decay: f64, t: u64) {
    let Some(acts) = &lin.kfac_stats().activations else {
        return; // nothing captured this step
    };
    let n = acts.rows().max(1) as f64;
    let mut batch = Matrix::default();
    acts.gram_into(&mut batch);
    batch.scale_inplace(1.0 / n);
    fold_factor(&mut state.factor_a, batch, ema_decay);
    state.last_curvature_step = t;
}

/// Folds a layer's captured *error-signal* statistics into Kronecker factor
/// `B` — the schedulable `Curvature(B)` work unit, released by the backward
/// pass. See [`fold_curvature_a`] for the scaling convention; a no-op when
/// nothing was captured.
pub fn fold_curvature_b(state: &mut LayerKfacState, lin: &Linear, ema_decay: f64, t: u64) {
    let stats = lin.kfac_stats();
    let Some(errs) = &stats.errors else {
        return; // nothing captured this step
    };
    let n = stats
        .activations
        .as_ref()
        .map_or_else(|| errs.rows(), |a| a.rows())
        .max(1) as f64;
    let mut batch = Matrix::default();
    errs.gram_into(&mut batch);
    batch.scale_inplace(n);
    fold_factor(&mut state.factor_b, batch, ema_decay);
    state.last_curvature_step = t;
}

/// Recomputes the damped inverses of both factors (π-split damping),
/// optionally after the Appendix A.2 block-diagonal masking.
///
/// The schedulable *inversion* work unit: [`Kfac::step`] runs it per layer
/// in place, the pipeline executor inside bubbles. The inversion itself runs on the
/// blocked factorization engine ([`cholesky_inverse_into`]: Cholesky
/// factor, triangular inverse `Y = L⁻¹`, then `YᵀY` — LAPACK's
/// `potrf` + `potri` — with the off-block work on the packed GEMM
/// kernels), which is exactly symmetric and bitwise identical to the scalar
/// reference ([`pipefisher_tensor::reference::cholesky_inverse_into`]) — so
/// bubble-filled pipeline runs stay bit-for-bit reproducible against serial
/// execution. Both factors are inverted together because the π-split
/// couples their damping, and the fresh inverses commit only if *both*
/// factorizations succeed — splitting `Inversion(A)` from `Inversion(B)`
/// would break that both-or-nothing semantics. A no-op when a factor is
/// missing (nothing captured yet).
///
/// A factor whose inversion fails (not positive definite, or non-finite) is
/// retried once with `10 × damping` more on its diagonal, counted in
/// [`LayerKfacState::damping_escalations`]; if the retry fails too, the
/// refresh keeps the stale inverses and counts one
/// [`LayerKfacState::inversion_failures`]. Neither is silent:
/// [`Kfac::inversion_health`] sums the counters for the trainer's metrics.
pub fn refresh_inverses(
    state: &mut LayerKfacState,
    damping: f64,
    block_size: Option<usize>,
    t: u64,
) {
    let (Some(fa), Some(fb)) = (&state.factor_a, &state.factor_b) else {
        return;
    };
    let tr_a = fa.trace().max(f64::MIN_POSITIVE);
    let tr_b = fb.trace().max(f64::MIN_POSITIVE);
    let mean_a = tr_a / fa.rows() as f64;
    let mean_b = tr_b / fb.rows() as f64;
    let pi = (mean_a / mean_b).sqrt().clamp(1e-6, 1e6);
    let lam_a = damping * pi;
    let lam_b = damping / pi;

    // The damped copies and the fresh inverses are arena locals; the fresh
    // inverses move into place only if *both* factorizations succeed, and
    // the stale pair drops back into the arena.
    let (mut da, mut db) = (fa.clone(), fb.clone());
    if let Some(bs) = block_size {
        block_diagonal_mask(&mut da, bs);
        block_diagonal_mask(&mut db, bs);
    }
    da.add_diag(lam_a.max(1e-12));
    db.add_diag(lam_b.max(1e-12));
    // Damped Gram matrices are SPD by construction; escalate damping on the
    // (numerically pathological) failure path rather than crash training.
    let escalations = &mut state.damping_escalations;
    let mut invert = |damped: &mut Matrix, inv: &mut Matrix| {
        cholesky_inverse_into(damped, inv).or_else(|_| {
            *escalations += 1;
            damped.add_diag(damping * 10.0);
            cholesky_inverse_into(damped, inv)
        })
    };
    let (mut ia, mut ib) = (Matrix::default(), Matrix::default());
    let inv_a = invert(&mut da, &mut ia);
    let inv_b = invert(&mut db, &mut ib);
    if let (Ok(()), Ok(())) = (inv_a, inv_b) {
        state.inv_a = Some(ia);
        state.inv_b = Some(ib);
        state.last_inversion_step = t;
    } else {
        state.inversion_failures += 1;
    }
}

/// Rewrites the layer gradient to `B⁻¹ Ḡ A⁻¹`; returns `⟨g, g̃⟩` for clipping.
///
/// `Ḡ` is the `d_out × (d_in+1)` combined weight/bias gradient in the
/// paper's orientation (outputs × augmented inputs); our storage keeps the
/// weight `d_in × d_out`, so we transpose on the way in and out.
fn precondition(state: &LayerKfacState, lin: &mut Linear) -> f64 {
    let d_in = lin.d_in();
    let d_out = lin.d_out();
    let (w, b, _) = lin.kfac_parts_mut();

    let mut gbar = Matrix::zeros(d_out, d_in + 1);
    for o in 0..d_out {
        let row = gbar.row_mut(o);
        for (i, slot) in row[..d_in].iter_mut().enumerate() {
            *slot = w.grad[(i, o)];
        }
        row[d_in] = b.grad[(0, o)];
    }

    let inv_a = state.inv_a.as_ref().expect("precondition: inv_a");
    let inv_b = state.inv_b.as_ref().expect("precondition: inv_b");
    let pre = inv_b.matmul(&gbar).matmul(inv_a);
    let dot = gbar.dot(&pre);

    for o in 0..d_out {
        let row = pre.row(o);
        for (i, &v) in row[..d_in].iter().enumerate() {
            w.grad[(i, o)] = v;
        }
        b.grad[(0, o)] = row[d_in];
    }
    dot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sgd;
    use pipefisher_nn::{cross_entropy_backward, cross_entropy_loss, ForwardCtx, Layer};
    use pipefisher_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Explicit Kronecker product for validation.
    fn kron(a: &Matrix, b: &Matrix) -> Matrix {
        let (ar, ac) = a.shape();
        let (br, bc) = b.shape();
        let mut out = Matrix::zeros(ar * br, ac * bc);
        for i in 0..ar {
            for j in 0..ac {
                for p in 0..br {
                    for q in 0..bc {
                        out[(i * br + p, j * bc + q)] = a[(i, j)] * b[(p, q)];
                    }
                }
            }
        }
        out
    }

    /// Column-stacking vec of a matrix.
    fn vec_cols(m: &Matrix) -> Vec<f64> {
        let mut v = Vec::with_capacity(m.len());
        for c in 0..m.cols() {
            for r in 0..m.rows() {
                v.push(m[(r, c)]);
            }
        }
        v
    }

    fn rand_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = init::normal(n, n, 1.0, &mut rng);
        let mut spd = Matrix::zeros(n, n);
        m.gram_into(&mut spd);
        spd.add_diag(0.5);
        spd
    }

    fn inverse(a: &Matrix) -> Matrix {
        let mut inv = Matrix::zeros(a.rows(), a.rows());
        cholesky_inverse_into(a, &mut inv).unwrap();
        inv
    }

    #[test]
    fn kronecker_inverse_identity() {
        // vec(B⁻¹·G·A⁻¹) == (A ⊗ B)⁻¹ vec(G) for symmetric A, B
        // (column-stacking vec) — the identity K-FAC preconditioning rests on.
        let a = rand_spd(3, 1);
        let b = rand_spd(2, 2);
        let g = init::normal(2, 3, 1.0, &mut StdRng::seed_from_u64(3));
        let lhs = inverse(&b).matmul(&g).matmul(&inverse(&a));
        let vec_g = Matrix::from_vec(6, 1, vec_cols(&g));
        let rhs_vec = inverse(&kron(&a, &b)).matmul(&vec_g);
        let lhs_vec = vec_cols(&lhs);
        for (x, y) in lhs_vec.iter().zip(rhs_vec.as_slice()) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn refresh_inverses_matches_naive_factorization_bitwise() {
        // 65 crosses the blocked engine's 64-wide panel edge; 40 stays
        // inside a single panel.
        let fa = rand_spd(65, 7);
        let fb = rand_spd(40, 8);
        let mut state = LayerKfacState {
            factor_a: Some(fa.clone()),
            factor_b: Some(fb.clone()),
            ..Default::default()
        };
        let damping = 1e-3;
        refresh_inverses(&mut state, damping, None, 1);

        // Reproduce the π-split damping and invert with the naive
        // reference factorization: the blocked engine must match bitwise.
        let tr_a = fa.trace().max(f64::MIN_POSITIVE);
        let tr_b = fb.trace().max(f64::MIN_POSITIVE);
        let pi = ((tr_a / fa.rows() as f64) / (tr_b / fb.rows() as f64))
            .sqrt()
            .clamp(1e-6, 1e6);
        for (factor, lam, inv) in [
            (&fa, damping * pi, state.inv_a.as_ref().unwrap()),
            (&fb, damping / pi, state.inv_b.as_ref().unwrap()),
        ] {
            let mut damped = factor.clone();
            damped.add_diag(lam.max(1e-12));
            let mut expect = Matrix::zeros(factor.rows(), factor.rows());
            pipefisher_tensor::reference::cholesky_inverse_into(&damped, &mut expect).unwrap();
            for (x, y) in inv.as_slice().iter().zip(expect.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            // X = YᵀY is mirrored, not averaged: symmetric to the bit.
            for i in 0..inv.rows() {
                for j in 0..i {
                    assert_eq!(inv[(i, j)].to_bits(), inv[(j, i)].to_bits());
                }
            }
        }
        assert_eq!(
            (state.damping_escalations, state.inversion_failures),
            (0, 0)
        );
    }

    #[test]
    fn indefinite_factor_escalates_damping_and_is_counted() {
        // A = diag(1, −0.5) has mean 0.25, as does B, so π = 1 and the first
        // damped A is diag(1.1, −0.4): not positive definite. The retry adds
        // 10 × damping and succeeds.
        let mut state = LayerKfacState {
            factor_a: Some(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -0.5]])),
            factor_b: Some(Matrix::eye(2).scale(0.25)),
            ..Default::default()
        };
        refresh_inverses(&mut state, 0.1, None, 3);
        assert_eq!(
            (state.damping_escalations, state.inversion_failures),
            (1, 0)
        );
        assert!(state.ready());
        assert_eq!(state.last_inversion_step, 3);
        let inv_a = state.inv_a.as_ref().unwrap();
        assert!((inv_a[(0, 0)] - 1.0 / 2.1).abs() < 1e-12);
        assert!((inv_a[(1, 1)] - 1.0 / 0.6).abs() < 1e-12);
    }

    #[test]
    fn nan_poisoned_factor_keeps_stale_inverse_and_is_counted() {
        let mut state = LayerKfacState {
            factor_a: Some(rand_spd(5, 21)),
            factor_b: Some(rand_spd(4, 22)),
            ..Default::default()
        };
        refresh_inverses(&mut state, 1e-3, None, 1);
        let (stale_a, stale_b) = (state.inv_a.clone(), state.inv_b.clone());
        state.factor_a.as_mut().unwrap()[(3, 1)] = f64::NAN;
        refresh_inverses(&mut state, 1e-3, None, 2);
        // A fails at both dampings (one escalation, one failure); B still
        // inverts, but the refresh commits both or neither.
        assert_eq!(
            (state.damping_escalations, state.inversion_failures),
            (1, 1)
        );
        assert_eq!(state.last_inversion_step, 1);
        assert_eq!(state.inv_a, stale_a);
        assert_eq!(state.inv_b, stale_b);
    }

    #[test]
    fn identity_factors_leave_gradient_unchanged() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut lin = Linear::new("fc", 3, 2, &mut rng);
        lin.weight_mut().grad = init::normal(3, 2, 1.0, &mut rng);
        lin.bias_mut().grad = init::normal(1, 2, 1.0, &mut rng);
        let orig_w = lin.weight().grad.clone();
        let orig_b = lin.bias().grad.clone();

        let state = LayerKfacState {
            inv_a: Some(Matrix::eye(4)),
            inv_b: Some(Matrix::eye(2)),
            ..Default::default()
        };
        let _ = precondition(&state, &mut lin);
        assert!((&lin.weight().grad - &orig_w).max_abs() < 1e-12);
        assert!((&lin.bias().grad - &orig_b).max_abs() < 1e-12);
    }

    #[test]
    fn scaled_identity_rescales_gradient() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lin = Linear::new("fc", 3, 2, &mut rng);
        lin.weight_mut().grad = Matrix::full(3, 2, 4.0);
        lin.bias_mut().grad = Matrix::full(1, 2, 4.0);
        let state = LayerKfacState {
            inv_a: Some(Matrix::eye(4).scale(0.5)),
            inv_b: Some(Matrix::eye(2).scale(0.5)),
            ..Default::default()
        };
        let _ = precondition(&state, &mut lin);
        assert!((lin.weight().grad[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((lin.bias().grad[(0, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_example_factors_match_definition() {
        // With a single example the Kronecker factorization is exact:
        // A = â âᵀ, B = e eᵀ (paper §2.3). Check the captured statistics
        // produce exactly those rank-1 factors.
        let mut rng = StdRng::seed_from_u64(6);
        let mut lin = Linear::new("fc", 3, 4, &mut rng);
        let x = init::normal(1, 3, 1.0, &mut rng);
        let y = lin.forward(&x, &ForwardCtx::train_with_capture());
        let dlogits = cross_entropy_backward(&y, &[2]);
        let _ = lin.backward(&dlogits);

        let mut state = LayerKfacState::default();
        fold_curvature_a(&mut state, &lin, 0.0, 1);
        fold_curvature_b(&mut state, &lin, 0.0, 1);
        let a = state.factor_a.unwrap();
        let b = state.factor_b.unwrap();
        // A[i][j] == â_i · â_j with â = [x, 1]
        let mut aug = x.clone().into_vec();
        aug.push(1.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!((a[(i, j)] - aug[i] * aug[j]).abs() < 1e-12);
            }
        }
        // B == e eᵀ (n=1 so the n·eᵀe scaling is neutral)
        let e = dlogits.row(0);
        for i in 0..4 {
            for j in 0..4 {
                assert!((b[(i, j)] - e[i] * e[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn kfac_beats_sgd_on_ill_conditioned_regression() {
        // Multiclass logistic regression with wildly different feature
        // scales: K-FAC's input-factor whitening should converge far faster
        // than SGD at the same learning rate.
        let n = 64;
        let d = 6;
        let classes = 4;
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = init::normal(n, d, 1.0, &mut rng);
        // Scale features by powers of 4 → condition number 4^(d-1).
        for r in 0..n {
            for c in 0..d {
                x[(r, c)] *= 4.0_f64.powi(c as i32);
            }
        }
        let targets: Vec<i64> = (0..n).map(|i| (i % classes) as i64).collect();

        let run = |use_kfac: bool| -> f64 {
            let mut rng = StdRng::seed_from_u64(8);
            let mut lin = Linear::new("fc", d, classes, &mut rng);
            let mut sgd = Sgd::new(0.0, 0.0);
            let mut kfac = Kfac::new(
                KfacConfig {
                    damping: 1e-2,
                    kl_clip: None,
                    ..Default::default()
                },
                Sgd::new(0.0, 0.0),
            );
            let mut loss = f64::NAN;
            for _ in 0..40 {
                use pipefisher_nn::Layer as _;
                lin.zero_grad();
                let ctx = if use_kfac {
                    ForwardCtx::train_with_capture()
                } else {
                    ForwardCtx::train()
                };
                let logits = lin.forward(&x, &ctx);
                loss = cross_entropy_loss(&logits, &targets).loss;
                let d = cross_entropy_backward(&logits, &targets);
                let _ = lin.backward(&d);
                if use_kfac {
                    kfac.step(&mut lin, 0.5);
                } else {
                    sgd.begin_step();
                    use pipefisher_nn::Layer as _;
                    lin.visit_params(&mut |p| sgd.step_param(p, 0.5));
                }
            }
            loss
        };

        let sgd_loss = run(false);
        let kfac_loss = run(true);
        assert!(
            kfac_loss < sgd_loss * 0.5,
            "kfac {kfac_loss} not clearly better than sgd {sgd_loss}"
        );
    }

    #[test]
    fn stale_inverses_are_used_between_refreshes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lin = Linear::new("fc", 3, 2, &mut rng);
        let x = init::normal(8, 3, 1.0, &mut rng);
        let targets: Vec<i64> = (0..8).map(|i| (i % 2) as i64).collect();
        let mut kfac = Kfac::new(
            KfacConfig {
                curvature_interval: 3,
                inversion_interval: 3,
                ..Default::default()
            },
            Sgd::new(0.0, 0.0),
        );
        for step in 0..5u64 {
            use pipefisher_nn::Layer as _;
            lin.zero_grad();
            let logits = lin.forward(&x, &ForwardCtx::train_with_capture());
            let d = cross_entropy_backward(&logits, &targets);
            let _ = lin.backward(&d);
            kfac.step(&mut lin, 0.1);
            let st = kfac.state("fc").unwrap();
            // Refresh steps are 1 and 4 (t−1 divisible by 3).
            let expected = if step < 3 { 1 } else { 4 };
            assert_eq!(st.last_inversion_step, expected, "step {step}");
            assert!(st.ready());
        }
    }

    /// `t.is_multiple_of(0)` holds only at `t == 0`, so a zero interval
    /// would refresh once and then never again: it is rejected up front.
    #[test]
    #[should_panic(expected = "refresh intervals must be at least 1")]
    fn zero_refresh_interval_is_rejected() {
        let config = KfacConfig {
            inversion_interval: 0,
            ..Default::default()
        };
        let _ = Kfac::new(config, Sgd::new(0.0, 0.0));
    }

    #[test]
    fn block_diagonal_factors_invert_blockwise() {
        // With block size 2, the inverse of the masked factor must itself be
        // block-diagonal, and each block must equal the inverse of the
        // corresponding (damped) sub-block.
        let mut rng = StdRng::seed_from_u64(20);
        let mut lin = Linear::new("fc", 3, 4, &mut rng); // A is 4×4 (bias-aug)
        let x = init::normal(16, 3, 1.0, &mut rng);
        let targets: Vec<i64> = (0..16).map(|i| (i % 4) as i64).collect();
        let mut kfac = Kfac::new(
            KfacConfig {
                factor_block_size: Some(2),
                damping: 1e-2,
                ..Default::default()
            },
            crate::Sgd::new(0.0, 0.0),
        );
        use pipefisher_nn::Layer as _;
        lin.zero_grad();
        let logits = lin.forward(&x, &ForwardCtx::train_with_capture());
        let d = cross_entropy_backward(&logits, &targets);
        let _ = lin.backward(&d);
        kfac.step(&mut lin, 0.1);
        let st = kfac.state("fc").unwrap();
        let inv_a = st.inv_a.as_ref().unwrap();
        assert_eq!(inv_a.rows(), 4);
        // Off-block entries of the inverse are zero.
        for i in 0..4 {
            for j in 0..4 {
                if i / 2 != j / 2 {
                    assert!(inv_a[(i, j)].abs() < 1e-10, "({i},{j}) = {}", inv_a[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn block_size_covering_whole_factor_is_exact() {
        // block_size ≥ dim must match the full-factor path exactly.
        let run = |block: Option<usize>| -> Matrix {
            let mut rng = StdRng::seed_from_u64(21);
            let mut lin = Linear::new("fc", 3, 2, &mut rng);
            let x = init::normal(8, 3, 1.0, &mut rng);
            let targets = vec![0i64, 1, 0, 1, 0, 1, 0, 1];
            let mut kfac = Kfac::new(
                KfacConfig {
                    factor_block_size: block,
                    kl_clip: None,
                    ..Default::default()
                },
                crate::Sgd::new(0.0, 0.0),
            );
            use pipefisher_nn::Layer as _;
            lin.zero_grad();
            let logits = lin.forward(&x, &ForwardCtx::train_with_capture());
            let d = cross_entropy_backward(&logits, &targets);
            let _ = lin.backward(&d);
            kfac.step(&mut lin, 0.1);
            lin.weight().value.clone()
        };
        let full = run(None);
        let covered = run(Some(64));
        assert!((&full - &covered).max_abs() < 1e-12);
    }

    #[test]
    fn external_work_units_match_inline_step_bitwise() {
        // Drive the fold/invert work units externally (the way the pipeline
        // executor does on stage workers) and finish with
        // `step_preconditioned`; the parameters must be bitwise identical to
        // the all-in-one `step` path at every step, including non-refresh
        // steps that reuse stale inverses.
        let config = KfacConfig {
            curvature_interval: 2,
            inversion_interval: 3,
            ema_decay: 0.5,
            ..Default::default()
        };
        let run = |external: bool| -> (Matrix, Matrix) {
            let mut rng = StdRng::seed_from_u64(33);
            let mut lin = Linear::new("fc", 5, 3, &mut rng);
            let x = init::normal(12, 5, 1.0, &mut rng);
            let targets: Vec<i64> = (0..12).map(|i| (i % 3) as i64).collect();
            let mut kfac = Kfac::new(config.clone(), Sgd::new(0.0, 0.0));
            for step in 0..7u64 {
                use pipefisher_nn::Layer as _;
                lin.zero_grad();
                let refresh_curv = kfac.next_step_refreshes_curvature();
                let refresh_inv = kfac.next_step_refreshes_inversion();
                assert_eq!(refresh_curv, step.is_multiple_of(2));
                assert_eq!(refresh_inv, step.is_multiple_of(3));
                let ctx = if !external || refresh_curv {
                    ForwardCtx::train_with_capture()
                } else {
                    ForwardCtx::train()
                };
                let logits = lin.forward(&x, &ctx);
                let d = cross_entropy_backward(&logits, &targets);
                let _ = lin.backward(&d);
                if external {
                    let t = kfac.step_count() + 1;
                    let mut state = kfac.take_state("fc");
                    if refresh_curv {
                        fold_curvature_a(&mut state, &lin, config.ema_decay, t);
                        fold_curvature_b(&mut state, &lin, config.ema_decay, t);
                        lin.kfac_stats_mut().clear();
                    }
                    if refresh_inv && state.factor_a.is_some() {
                        refresh_inverses(&mut state, config.damping, config.factor_block_size, t);
                    }
                    kfac.put_state("fc", state);
                    kfac.step_preconditioned(&mut lin, 0.1);
                } else {
                    kfac.step(&mut lin, 0.1);
                }
            }
            (lin.weight().value.clone(), lin.bias().value.clone())
        };
        let (w_inline, b_inline) = run(false);
        let (w_ext, b_ext) = run(true);
        assert_eq!(
            w_inline
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            w_ext
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            b_inline
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b_ext
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn kl_clip_bounds_update_norm() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut lin = Linear::new("fc", 3, 2, &mut rng);
        let x = init::normal(4, 3, 10.0, &mut rng); // big activations → big grads
        let targets = vec![0i64, 1, 0, 1];
        let kappa = 1e-4;
        let mut kfac = Kfac::new(
            KfacConfig {
                kl_clip: Some(kappa),
                damping: 1e-4,
                ..Default::default()
            },
            Sgd::new(0.0, 0.0),
        );
        use pipefisher_nn::Layer as _;
        lin.zero_grad();
        let logits = lin.forward(&x, &ForwardCtx::train_with_capture());
        let d = cross_entropy_backward(&logits, &targets);
        let _ = lin.backward(&d);

        // Capture the raw statistic before stepping by replaying phases.
        kfac.step(&mut lin, 1.0);
        // After clipping, lr²·Σ⟨g,g̃⟩ ≤ κ: verify by recomputing with
        // clipped grads against ORIGINAL g̃ relation — here we simply check
        // the clipped gradient norm is small (the raw norm would be huge).
        let gnorm = lin.weight().grad.frobenius_norm();
        assert!(gnorm < 1.0, "clip failed: grad norm {gnorm}");
    }
}
