//! Dense linear-algebra substrate for the PipeFisher reproduction.
//!
//! This crate provides the small, self-contained matrix toolkit that the
//! neural-network (`pipefisher-nn`) and optimizer (`pipefisher-optim`)
//! crates are built on:
//!
//! * a row-major, `f64` [`Matrix`] with elementwise and broadcast operations,
//! * general matrix multiplication in all transpose combinations
//!   ([`Matrix::matmul_into`], [`Matrix::matmul_tn_into`],
//!   [`Matrix::matmul_nt_into`]) and the Gram product
//!   ([`Matrix::gram_into`]) — the kernel of K-FAC's *curvature* work,
//! * symmetric positive-definite factorization and inversion via Cholesky
//!   ([`cholesky_into`], [`cholesky_inverse_into`]) — the kernel of K-FAC's
//!   *inversion* work,
//! * numerically stable [`softmax`]/[`log_softmax`] rows,
//! * random initialization ([`init`]) for network parameters.
//!
//! The crate root exports what training calls; the scalar oracles the
//! tests and benches compare those kernels against live in [`reference`].
//!
//! Everything is pure Rust with no BLAS dependency so the whole reproduction
//! runs anywhere `cargo test` runs.
//!
//! # Example
//!
//! ```
//! use pipefisher_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod cholesky;
mod error;
mod gemm;
pub mod init;
pub mod kernel;
mod matrix;
pub mod par;
mod reduce;
pub mod reference;
mod softmax;
pub mod workspace;

pub use cholesky::{cholesky_into, cholesky_inverse_into, CholeskyError};
pub use error::{ShapeError, TensorError};
pub use gemm::{gemm_batched, Strided};
pub use kernel::{tanh, ActivationKind};
pub use matrix::Matrix;
pub use reduce::col_sum_into;
pub use softmax::{log_softmax, softmax, softmax_inplace, softmax_scaled_inplace};
