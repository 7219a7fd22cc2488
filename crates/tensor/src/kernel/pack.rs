//! Panel packing: copies operand blocks into the contiguous, zero-padded
//! layouts the micro-kernels consume.
//!
//! A panels are MR-wide row groups stored step-major (`ap[p*MR + i]`), B
//! panels NR-wide column groups stored step-major (`bp[p*NR + j]`). Packing
//! is what turns the four GEMM flavours into one inner loop: the transpose
//! lives entirely in the gather below, so `matmul`, `matmul_tn`,
//! `matmul_nt`, and `gram` all run the identical micro-kernel afterwards.
//! Ragged edges are padded with zeros; padded lanes are computed by the
//! micro-kernel but never stored back, so the padding cannot perturb any
//! real output element (not even a `-0.0 + 0.0` sign flip).

/// How to read `A(i, p)`.
#[derive(Clone, Copy)]
pub(crate) enum ASrc<'a> {
    /// `A(i, p) = data[(base + i) * stride + p]` — a row-major operand.
    RowMajor {
        data: &'a [f64],
        stride: usize,
        base: usize,
    },
    /// `A(i, p) = data[p * stride + base + i]` — the transposed (`Aᵀ·B`)
    /// view, packed without materializing the transpose.
    ColMajor {
        data: &'a [f64],
        stride: usize,
        base: usize,
    },
}

/// How to read `B(p, j)`.
#[derive(Clone, Copy)]
pub(crate) enum BSrc<'a> {
    /// `B(p, j) = data[p * stride + j]`.
    RowMajor { data: &'a [f64], stride: usize },
    /// `B(p, j) = data[j * stride + p]` — the `A·Bᵀ` view.
    ColMajor { data: &'a [f64], stride: usize },
}

/// Packs rows `[ib, ib+mc)` × steps `[kb, kb+kc)` of `a` into `buf` as
/// zero-padded MR panels (`buf[q*kc*mr + p*mr + i]`, panel `q` holding rows
/// `q*mr..`).
///
/// With `neg` set, every real element is negated during the gather. IEEE 754
/// guarantees `(-a)·b` is exactly `-(a·b)` and `c + (-(a·b))` rounds exactly
/// like `c - a·b`, so a negated panel turns the accumulate kernels into a
/// bitwise-exact *subtract* — this is how the blocked Cholesky trailing
/// update reproduces the naive `s -= l·l` chain. Padding stays `0.0` (a
/// `-0.0` pad could flip the sign of a `±0.0` partial sum in lanes that are
/// never stored, which is harmless, but `0.0` keeps the invariant simple).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    buf: &mut [f64],
    a: &ASrc<'_>,
    ib: usize,
    mc: usize,
    kb: usize,
    kc: usize,
    mr: usize,
    neg: bool,
) {
    let panels = mc.div_ceil(mr);
    for q in 0..panels {
        let i0 = q * mr;
        let tm = mr.min(mc - i0);
        let panel = &mut buf[q * kc * mr..(q + 1) * kc * mr];
        match *a {
            ASrc::RowMajor { data, stride, base } => {
                if tm < mr {
                    panel.fill(0.0);
                }
                for i in 0..tm {
                    let row = &data[(base + ib + i0 + i) * stride + kb..][..kc];
                    if neg {
                        for (p, &x) in row.iter().enumerate() {
                            panel[p * mr + i] = -x;
                        }
                    } else {
                        for (p, &x) in row.iter().enumerate() {
                            panel[p * mr + i] = x;
                        }
                    }
                }
            }
            ASrc::ColMajor { data, stride, base } => {
                let col0 = base + ib + i0;
                for p in 0..kc {
                    let src = &data[(kb + p) * stride + col0..][..tm];
                    let dst = &mut panel[p * mr..p * mr + mr];
                    if neg {
                        for (d, &s) in dst[..tm].iter_mut().zip(src) {
                            *d = -s;
                        }
                    } else {
                        dst[..tm].copy_from_slice(src);
                    }
                    dst[tm..].fill(0.0);
                }
            }
        }
    }
}

/// Packs steps `[kb, kb+kc)` × columns `[jc, jc+nc)` of `b` into `buf` as
/// zero-padded NR panels (`buf[q*kc*nr + p*nr + j]`, panel `q` holding
/// columns `q*nr..`).
///
/// With `lower` set, `b` is lower-triangular (`B(p, j) = 0` for `p < j`) and
/// each panel's steps before its first column ([`lower_skip`]) are left
/// unpacked: the macro-kernel starts past them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b(
    buf: &mut [f64],
    b: &BSrc<'_>,
    kb: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
    lower: bool,
) {
    let panels = nc.div_ceil(nr);
    for q in 0..panels {
        let j0 = q * nr;
        let tn = nr.min(nc - j0);
        let p0 = if lower {
            lower_skip(jc + j0, kb, kc)
        } else {
            0
        };
        let panel = &mut buf[q * kc * nr..(q + 1) * kc * nr];
        match *b {
            BSrc::RowMajor { data, stride } => {
                let col0 = jc + j0;
                for p in p0..kc {
                    let src = &data[(kb + p) * stride + col0..][..tn];
                    let dst = &mut panel[p * nr..p * nr + nr];
                    dst[..tn].copy_from_slice(src);
                    dst[tn..].fill(0.0);
                }
            }
            BSrc::ColMajor { data, stride } => {
                if tn < nr {
                    panel[p0 * nr..].fill(0.0);
                }
                for j in 0..tn {
                    let col = &data[(jc + j0 + j) * stride + kb..][..kc];
                    for (p, &x) in col.iter().enumerate().skip(p0) {
                        panel[p * nr + j] = x;
                    }
                }
            }
        }
    }
}

/// Leading steps of the k-block `[kb, kb+kc)` that a lower-triangular `B`
/// holds as stored zeros for every column from `col` on.
pub(crate) fn lower_skip(col: usize, kb: usize, kc: usize) -> usize {
    col.saturating_sub(kb).min(kc)
}
