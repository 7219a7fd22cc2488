//! Activation row kernels on a `tanh` this crate owns: fdlibm's `s_tanh.c`
//! over glibc's `__expm1_fma`, transcribed branch-free so one body
//! autovectorizes, bit-identical on every ISA and kernel kind (DESIGN.md
//! §3.1 "Activations").

use super::{kernels, ActRowFn};

const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
/// `2⁵² + 1023`: adding an integral `k` leaves `k + 1023` in the low
/// mantissa bits, ready to shift into the exponent field.
const EXP_MAGIC: f64 = 4_503_599_627_371_519.0;
/// `2⁻⁵⁵`, below which `tanh(x)` rounds to `x`.
const TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);
const SQRT_2_OVER_PI: f64 = 0.797_884_560_802_865_4;
const GELU_COEFF: f64 = 0.044715;

/// An elementwise activation the row kernels evaluate with its derivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Gaussian Error Linear Unit (tanh approximation, as in BERT).
    Gelu,
    /// Hyperbolic tangent (used by BERT's pooler).
    Tanh,
}

impl ActivationKind {
    /// `(v[i], d[i]) ← (act(v[i]), act′(v[i]))`, both from one [`tanh`], on
    /// the dispatched row kernel; the bits do not depend on which.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != d.len()`.
    pub fn apply(self, v: &mut [f64], d: &mut [f64]) {
        assert_eq!(v.len(), d.len(), "activation: derivative length");
        let row: ActRowFn = match self {
            ActivationKind::Gelu => kernels().gelu,
            ActivationKind::Tanh => kernels().tanh,
        };
        // SAFETY: `kernels` only returns kernels the detected CPU runs.
        unsafe { row(v, d) }
    }
}

/// `2^k` for an integral `k ∈ [−1022, 1023]`, exactly; `k` stays in `f64`
/// because an `as i32` conversion would scalarize the vector loop.
#[inline(always)]
fn pow2(k: f64) -> f64 {
    f64::from_bits((k + EXP_MAGIC).to_bits() << 52)
}

/// `__expm1_fma(a)` without branches, on the arguments `tanh` passes,
/// `a ∈ [−2, 0) ∪ [2, 44)`: there `k ∈ {0, −1, −2, −3} ∪ [3, 63]`.
#[inline(always)]
fn expm1(a: f64) -> f64 {
    let ay = a.abs();
    // fdlibm's high-word cuts: k = 0 up to ½·ln2, −1 up to 1.5·ln2, where
    // these hi and lo are exactly its special cases.
    let k = if ay < f64::from_bits(0x3fd6_2e43_0000_0000) {
        0.0
    } else if ay < f64::from_bits(0x3ff0_a2b2_0000_0000) {
        -1.0
    } else {
        (INVLN2 * a + 0.5f64.copysign(a)).trunc()
    };
    let (hi, lo) = ((-k).mul_add(LN2_HI, a), k * LN2_LO);
    let r = hi - lo;
    let c = (hi - r) - lo;
    let (hfx, hxs) = (0.5 * r, r * (0.5 * r));
    let (h2, r1) = (hxs * hxs, hxs.mul_add(Q1, 1.0));
    let r1 = (h2 * h2).mul_add(hxs.mul_add(Q5, Q4), h2.mul_add(hxs.mul_add(Q3, Q2), r1));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-r).mul_add(t, 6.0));
    let ek = r.mul_add(e - c, -c) - hxs;
    let (scale, inv) = (pow2(k), pow2(-k));
    // k ≤ −2 and k > 56 share the 3 ≤ k < 20 form up to its constant.
    let far = k <= -2.0 || k > 56.0;
    let y = (if far { 1.0 } else { 1.0 - inv } - (ek - r)) * scale;
    if k == 0.0 {
        r - r.mul_add(e, -hxs)
    } else if k == -1.0 {
        0.5f64.mul_add(r - ek, -0.5)
    } else if far {
        y - 1.0
    } else if k < 20.0 {
        y
    } else {
        ((r - (ek + inv)) + 1.0) * scale
    }
}

/// The hyperbolic tangent, bit-identical to [`crate::reference::tanh`]
/// everywhere and so to glibc's on x86_64 with FMA.
///
/// ```
/// assert_eq!(pipefisher_tensor::tanh(-0.0).to_bits(), (-0.0f64).to_bits());
/// assert_eq!(pipefisher_tensor::tanh(30.0), 1.0);
/// ```
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let ax = x.abs();
    let big = ax >= 1.0;
    // Selects on `big` get LLVM to duplicate the work behind them per side,
    // so −2|x| sets the sign bit, and the numerator (2 if big, else −t)
    // uses |t| ≥ e² − 1 when big, |t| < 1 otherwise.
    let t = expm1(f64::from_bits((2.0 * ax).to_bits() | u64::from(!big) << 63));
    let q = t.abs().min(2.0) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    let z = if ax >= 22.0 { 1.0 } else { z };
    // Below 2⁻⁵⁵ (and at ±0) fdlibm returns x·(1 + x), which is x.
    if ax < TINY {
        x
    } else {
        z.copysign(x)
    }
}

/// One `W`-wide chunk, in the operand order of the scalar GELU this
/// replaced: a fixed-bound loop LLVM vectorizes with the enclosing
/// function's ISA (a closure would not inherit it).
#[inline(always)]
fn chunk<const GELU: bool, const W: usize>(v: &mut [f64; W], d: &mut [f64; W]) {
    for (v, d) in v.iter_mut().zip(d) {
        let x = *v;
        if !GELU {
            *v = tanh(x);
            *d = 1.0 - *v * *v;
            continue;
        }
        let t = tanh(SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x));
        *d = 0.5 * (1.0 + t)
            + 0.5 * x * (1.0 - t * t) * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEFF * x * x);
        *v = 0.5 * x * (1.0 + t);
    }
}

/// The [`ActRowFn`] body, GELU if `GELU` else tanh, in chunks of `W` (two
/// vector registers); a ragged tail runs on a padded stack copy.
#[inline(always)]
fn rows<const GELU: bool, const W: usize>(v: &mut [f64], d: &mut [f64]) {
    let ((vs, vt), (ds, dt)) = (v.as_chunks_mut::<W>(), d.as_chunks_mut::<W>());
    for (v, d) in vs.iter_mut().zip(ds) {
        chunk::<GELU, W>(v, d);
    }
    if !vt.is_empty() {
        let (mut pv, mut pd) = ([0.0; W], [0.0; W]);
        pv[..vt.len()].copy_from_slice(vt);
        chunk::<GELU, W>(&mut pv, &mut pd);
        vt.copy_from_slice(&pv[..vt.len()]);
        dt.copy_from_slice(&pd[..vt.len()]);
    }
}

pub(crate) fn rows_portable<const GELU: bool>(v: &mut [f64], d: &mut [f64]) {
    rows::<GELU, 8>(v, d)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) fn rows_avx2<const GELU: bool>(v: &mut [f64], d: &mut [f64]) {
    rows::<GELU, 8>(v, d)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) fn rows_avx512<const GELU: bool>(v: &mut [f64], d: &mut [f64]) {
    rows::<GELU, 16>(v, d)
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::reference;

    /// `(name, GELU body, tanh body)`.
    type Body = (&'static str, ActRowFn, ActRowFn);

    /// Every body this CPU can run — not only the one `kernels` picks.
    #[allow(unused_mut)]
    fn runnable() -> Vec<Body> {
        let mut bodies: Vec<Body> =
            vec![("portable", rows_portable::<true>, rows_portable::<false>)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as detected;
            if detected!("avx2") && detected!("fma") {
                bodies.push(("avx2+fma", rows_avx2::<true>, rows_avx2::<false>));
            }
            if detected!("avx512f") {
                bodies.push(("avx512f", rows_avx512::<true>, rows_avx512::<false>));
            }
        }
        bodies
    }

    /// The row kernels' oracle: each pair on [`reference::tanh`].
    fn oracle(gelu: bool, x: f64) -> (f64, f64) {
        if !gelu {
            let t = reference::tanh(x);
            return (t, 1.0 - t * t);
        }
        let t = reference::tanh(SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x));
        let d = 0.5 * (1.0 + t)
            + 0.5 * x * (1.0 - t * t) * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEFF * x * x);
        (0.5 * x * (1.0 + t), d)
    }

    /// Uniform bits in `[0, 1)` from a xorshift stream.
    pub(in crate::kernel) fn stream(mut s: u64) -> impl FnMut() -> f64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A dense grid over [−30, 30] and over |x| ∈ [21, 23]; both sides of
    /// every branch boundary (|x| = 2⁻⁵⁵, 1, 22; fdlibm's high-word cuts
    /// at |2x| = ½·ln2 and 1.5·ln2; each rounding edge of k); random
    /// magnitudes from 2⁻⁶⁰ to 2⁵; ±0, subnormals, ±1e300, ±∞ and NaN.
    fn inputs() -> Vec<f64> {
        let mut xs: Vec<f64> = (-300_000..=300_000).map(|i| f64::from(i) * 1e-4).collect();
        xs.extend((0..20_000).map(|i| 21.0 + f64::from(i) * 1e-4));
        let ln2 = std::f64::consts::LN_2;
        let mut edges = vec![
            TINY,
            1.0,
            22.0,
            f64::from_bits(0x3fc6_2e43_0000_0000),
            f64::from_bits(0x3fe0_a2b2_0000_0000),
        ];
        edges.extend((0..=64).map(|m| (f64::from(m) + 0.5) * ln2 / 2.0));
        for e in edges {
            let (mut lo, mut hi) = (e, e);
            for _ in 0..4 {
                xs.extend([lo, hi, -lo, -hi]);
                (lo, hi) = (lo.next_down(), hi.next_up());
            }
        }
        let mut u = stream(0x7A41);
        xs.extend((0..200_000).map(|i| {
            let x = (1.0 + u()) * 2f64.powi((u() * 65.0) as i32 - 60);
            if i % 2 == 0 {
                x
            } else {
                -x
            }
        }));
        let tiny = f64::from_bits(1);
        xs.extend([
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 3.0,
            1e300,
            -1e300,
        ]);
        xs.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN]);
        xs
    }

    fn assert_pairs(what: &str, xs: &[f64], gelu: bool, v: &[f64], d: &[f64]) {
        for ((&x, &y), &g) in xs.iter().zip(v).zip(d) {
            let (wy, wg) = oracle(gelu, x);
            assert_eq!(y.to_bits(), wy.to_bits(), "{what}: act({x:e})");
            assert_eq!(g.to_bits(), wg.to_bits(), "{what}: act'({x:e})");
        }
    }

    #[test]
    fn every_body_matches_the_reference_bitwise() {
        let xs = inputs();
        for x in &xs {
            assert_eq!(
                tanh(*x).to_bits(),
                reference::tanh(*x).to_bits(),
                "tanh({x:e})"
            );
        }
        for (name, gelu_rows, tanh_rows) in runnable() {
            for (gelu, body) in [(true, gelu_rows), (false, tanh_rows)] {
                let what = format!("{name} {}", if gelu { "gelu" } else { "tanh" });
                let (mut v, mut d) = (xs.clone(), vec![f64::NAN; xs.len()]);
                // SAFETY: equal lengths; `runnable` detected the ISA.
                unsafe { body(&mut v, &mut d) };
                assert_pairs(&what, &xs, gelu, &v, &d);
                // Every chunk/tail split of a short row, off the grid's start.
                for len in 0..=33 {
                    let at = 299_990 + len;
                    let (mut v, mut d) = (xs[at..at + len].to_vec(), vec![f64::NAN; len]);
                    // SAFETY: as above.
                    unsafe { body(&mut v, &mut d) };
                    assert_pairs(&format!("{what} len {len}"), &xs[at..], gelu, &v, &d);
                }
            }
        }
    }

    /// Why this host's `f64::tanh` (or `f64::exp`) is not the function
    /// [`tanh`] (or `exp::exp`) transcribes, if it is not: those are built on
    /// glibc's `__expm1_fma` (`__exp_fma`), which x86_64 glibc selects on FMA
    /// CPUs.
    pub(crate) fn host_libm_differs() -> Option<&'static str> {
        if !cfg!(all(target_env = "gnu", target_arch = "x86_64")) {
            return Some("not x86_64 glibc");
        }
        #[cfg(target_arch = "x86_64")]
        if !std::arch::is_x86_feature_detected!("fma") {
            return Some("no FMA, so glibc runs its non-FMA build");
        }
        None
    }

    /// Mismatches of the dispatched row kernels against `f64::tanh` (and
    /// GELU on it) over `xs`.
    fn libm_mismatches(xs: &[f64]) -> usize {
        let mut bad = 0;
        for chunk in xs.chunks(4096) {
            let (mut t, mut g, mut d) = (chunk.to_vec(), chunk.to_vec(), vec![0.0; chunk.len()]);
            ActivationKind::Tanh.apply(&mut t, &mut d);
            ActivationKind::Gelu.apply(&mut g, &mut d);
            for ((&x, &t), &g) in chunk.iter().zip(&t).zip(&g) {
                let want = (SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x)).tanh();
                bad += usize::from(t.to_bits() != x.tanh().to_bits())
                    + usize::from(g.to_bits() != (0.5 * x * (1.0 + want)).to_bits());
            }
        }
        bad
    }

    #[test]
    fn tanh_matches_host_libm() {
        if let Some(why) = host_libm_differs() {
            eprintln!("tanh_matches_host_libm skipped: {why}");
            return;
        }
        let xs = inputs();
        assert_eq!(libm_mismatches(&xs), 0);
        let same = xs.iter().all(|x| tanh(*x).to_bits() == x.tanh().to_bits());
        assert!(same, "scalar tanh differs from f64::tanh");
    }

    /// 10⁸ random inputs: uniform on [−23, 23] and log-uniform in
    /// magnitude from 2⁻⁶⁰ to 2⁵. Run with `--release --ignored`.
    #[test]
    #[ignore]
    fn tanh_matches_host_libm_sweep() {
        if let Some(why) = host_libm_differs() {
            eprintln!("tanh_matches_host_libm_sweep skipped: {why}");
            return;
        }
        let mut u = stream(0x5EED);
        let mut bad = 0;
        let mut xs = vec![0.0; 1 << 20];
        for _ in 0..100_000_000 / xs.len() + 1 {
            for (i, x) in xs.iter_mut().enumerate() {
                let m = if i % 2 == 0 {
                    46.0 * u() - 23.0
                } else {
                    (1.0 + u()) * 2f64.powi((u() * 65.0) as i32 - 60)
                };
                *x = if i % 4 == 3 { -m } else { m };
            }
            bad += libm_mismatches(&xs);
        }
        println!("tanh_matches_host_libm_sweep: {bad} mismatches");
        assert_eq!(bad, 0);
    }
}
