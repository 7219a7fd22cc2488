//! Operands and the few panels still packed.
//!
//! An [`Operand`] is a strided matrix, element `(r, c)` at `data[r·rs +
//! c·cs]`, and the micro-kernels read through strides too, so a row-major
//! or column-major A and a row-major B are read where they lie: at the
//! benchmark's operand sizes (256 × 64…384) copying them into panels never
//! paid for itself. What is still copied, into zero-padded panels stored
//! step-major (`panel[p·W + lane]`):
//!
//! * a transposed B (the `Wᵀ` of `matmul_nt`), whose `B(p, ·)` is not
//!   contiguous;
//! * a column-major A or row-major B whose cache block spans 1 MiB or
//!   more, too much to stay in L2 across the row panels that reuse it (the
//!   one rule, `in_place` in the parent module);
//! * a ragged edge: a last row panel of fewer than MR rows, or a last
//!   column panel of fewer than NR columns, padded so the kernel never
//!   reads past the operand. Padded lanes are computed but never stored
//!   back, so the padding cannot perturb any real output element (not even
//!   a `-0.0 + 0.0` sign flip).
//!
//! A packed panel is only the `(1, MR)` / `NR` stride case of the same
//! kernel: packed and in-place reads give the same bits.

use super::KC;

/// A strided matrix operand: element `(r, c)` is `data[r·rs + c·cs]`.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    pub data: &'a [f64],
    pub rs: usize,
    pub cs: usize,
}

impl<'a> Operand<'a> {
    /// A row-major matrix at row stride `ld`, read as stored.
    pub(crate) fn rows(data: &'a [f64], ld: usize) -> Self {
        Operand {
            data,
            rs: ld,
            cs: 1,
        }
    }

    /// The transpose of a row-major matrix at row stride `ld`.
    pub(crate) fn cols(data: &'a [f64], ld: usize) -> Self {
        Operand {
            data,
            rs: 1,
            cs: ld,
        }
    }

    /// This operand transposed.
    pub(crate) fn t(self) -> Self {
        Operand {
            rs: self.cs,
            cs: self.rs,
            ..self
        }
    }

    /// Asserts that every element of the leading `rows × cols` block (both
    /// positive) lies in `data`: the micro-kernels read through raw
    /// pointers.
    pub(crate) fn check(&self, rows: usize, cols: usize) {
        let last = (rows - 1) * self.rs + (cols - 1) * self.cs;
        assert!(
            last < self.data.len(),
            "gemm: {rows}x{cols} operand overruns"
        );
    }

    /// Where element `(r, c)` lies.
    pub(crate) fn at(&self, r: usize, c: usize) -> *const f64 {
        self.data[r * self.rs + c * self.cs..].as_ptr()
    }
}

/// Packs the `w`-wide panel `panel[p·w + l] = x(l0 + l, kb + p)` for the
/// `lanes` real lanes (the rest `+0.0`) over the steps `p0 ≤ p < kc` (a
/// lower-triangular B's leading zeros stay unpacked): an A panel packs A,
/// a B panel `Bᵀ`. Returns the panel's start.
pub(crate) fn pack(
    panel: &mut [f64],
    x: Operand<'_>,
    (l0, lanes): (usize, usize),
    (kb, p0, kc): (usize, usize, usize),
    w: usize,
) -> *const f64 {
    let panel = &mut panel[..kc * w];
    if x.cs == 1 {
        let lane = |l| (l0 + l) * x.rs + kb;
        match w {
            4 => gather::<4>(panel, (lanes, x.data, &lane), (p0, kc)),
            8 => gather::<8>(panel, (lanes, x.data, &lane), (p0, kc)),
            16 => gather::<16>(panel, (lanes, x.data, &lane), (p0, kc)),
            _ => unreachable!("no tile is {w} wide"),
        }
    } else {
        for (p, dst) in panel.chunks_exact_mut(w).enumerate().skip(p0) {
            for (l, d) in dst.iter_mut().enumerate() {
                let real = l < lanes;
                *d = if real {
                    x.data[(l0 + l) * x.rs + (kb + p) * x.cs]
                } else {
                    0.0
                };
            }
        }
    }
    panel.as_ptr()
}

/// Reads of padded lanes: `KC` zeros.
static ZEROS: [f64; KC] = [0.0; KC];

/// The transposing gather of one `W`-wide panel whose lanes are contiguous
/// along the steps: `panel[p·W + l] = data[lane(l) + p]` for the `lines`
/// real lanes and `+0.0` for the padding, over steps `p0 ≤ p < kc`. Each
/// lane reads a slice of exactly `kc` steps and each step is one `W`-wide
/// store, so no element pays a bounds check and the step vectorizes.
fn gather<const W: usize>(
    panel: &mut [f64],
    (lines, data, lane): (usize, &[f64], &dyn Fn(usize) -> usize),
    (p0, kc): (usize, usize),
) {
    let src: [&[f64]; W] = std::array::from_fn(|l| {
        if l < lines {
            &data[lane(l)..][..kc]
        } else {
            &ZEROS[..kc]
        }
    });
    for p in p0..kc {
        let dst: &mut [f64; W] = (&mut panel[p * W..][..W]).try_into().unwrap();
        for (d, s) in dst.iter_mut().zip(&src) {
            *d = s[p];
        }
    }
}

/// Leading steps of the k-block `[kb, kb+kc)` that a lower-triangular `B`
/// holds as stored zeros for every column from `col` on.
pub(crate) fn lower_skip(col: usize, kb: usize, kc: usize) -> usize {
    col.saturating_sub(kb).min(kc)
}
