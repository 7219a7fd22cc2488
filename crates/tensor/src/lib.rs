//! Dense linear-algebra substrate for the PipeFisher reproduction.
//!
//! This crate provides the small, self-contained matrix toolkit that the
//! neural-network (`pipefisher-nn`) and optimizer (`pipefisher-optim`)
//! crates are built on:
//!
//! * a row-major, `f64` [`Matrix`] with elementwise and broadcast operations,
//! * general matrix multiplication in all transpose combinations
//!   ([`Matrix::matmul`], [`Matrix::matmul_tn`], [`Matrix::matmul_nt`]),
//! * symmetric positive-definite factorization and inversion via Cholesky
//!   ([`cholesky`], [`cholesky_inverse`]) — the kernel of K-FAC's *inversion*
//!   work,
//! * numerically stable [`softmax`]/[`log_softmax`] rows,
//! * random initialization ([`init`]) for network parameters.
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
mod softmax;
pub mod workspace;

pub use cholesky::{
    cholesky, cholesky_into, cholesky_into_naive, cholesky_inverse, cholesky_inverse_into,
    cholesky_inverse_naive_into, cholesky_solve, cholesky_solve_into, CholeskyError,
};
pub use error::{ShapeError, TensorError};
pub use gemm::naive_matmul;
pub use matrix::Matrix;
pub use reduce::col_sum_into;
pub use softmax::{log_softmax, softmax, softmax_inplace, softmax_scaled_inplace};
