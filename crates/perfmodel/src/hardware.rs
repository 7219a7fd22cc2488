//! Hardware roofline profiles for the paper's three GPUs.

/// A GPU's roofline parameters plus empirical efficiency factors.
///
/// `gemm_efficiency` is the fraction of peak fp32 FLOP/s reached by the
/// large batched GEMMs of transformer forward/backward/curvature/
/// precondition work; `factorization_efficiency` is the (much lower)
/// fraction reached by Cholesky factorization + triangular inversion, whose
/// limited parallelism leaves most SMs idle. The values are calibrated so
/// the derived schedules reproduce the paper's measured utilizations and
/// refresh intervals (see `tests/paper_shapes.rs` at the workspace root).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Marketing name, e.g. `"P100"`.
    pub name: String,
    /// Peak fp32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Device memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Device memory capacity in bytes.
    pub mem_capacity: f64,
    /// Fraction of peak reached by large GEMMs.
    pub gemm_efficiency: f64,
    /// Fraction of peak reached by Cholesky/inversion kernels.
    pub factorization_efficiency: f64,
    /// Inter-device link bandwidth in bytes/s (for collectives).
    pub link_bandwidth: f64,
    /// Inter-device link latency in seconds.
    pub link_latency: f64,
}

impl HardwareProfile {
    /// NVIDIA P100 (the paper's main platform): 9.3 TFLOP/s fp32,
    /// 732 GB/s HBM2, 16 GB.
    pub fn p100() -> Self {
        HardwareProfile {
            name: "P100".to_string(),
            peak_flops: 9.3e12,
            mem_bandwidth: 732e9,
            mem_capacity: 16e9,
            gemm_efficiency: 0.50,
            factorization_efficiency: 0.08,
            link_bandwidth: 12e9, // PCIe-ish aggregate in the paper's cluster
            link_latency: 5e-6,
        }
    }

    /// NVIDIA V100: 15.7 TFLOP/s fp32, 900 GB/s HBM2, 16 GB.
    pub fn v100() -> Self {
        HardwareProfile {
            name: "V100".to_string(),
            peak_flops: 15.7e12,
            mem_bandwidth: 900e9,
            mem_capacity: 16e9,
            gemm_efficiency: 0.55,
            factorization_efficiency: 0.07,
            link_bandwidth: 25e9,
            link_latency: 4e-6,
        }
    }

    /// NVIDIA RTX 3090: 35.6 TFLOP/s fp32, 936 GB/s GDDR6X, 24 GB.
    pub fn rtx3090() -> Self {
        HardwareProfile {
            name: "RTX3090".to_string(),
            peak_flops: 35.6e12,
            mem_bandwidth: 936e9,
            mem_capacity: 24e9,
            gemm_efficiency: 0.45,
            factorization_efficiency: 0.04,
            link_bandwidth: 12e9,
            link_latency: 5e-6,
        }
    }

    /// All three profiles, in the order the appendix figures sweep them.
    pub fn all() -> Vec<HardwareProfile> {
        vec![Self::p100(), Self::v100(), Self::rtx3090()]
    }

    /// Effective GEMM throughput in FLOP/s.
    pub fn gemm_flops(&self) -> f64 {
        self.peak_flops * self.gemm_efficiency
    }

    /// Effective factorization throughput in FLOP/s.
    pub fn factorization_flops(&self) -> f64 {
        self.peak_flops * self.factorization_efficiency
    }

    /// Time for a GEMM-class op with `flops` floating-point operations.
    pub fn gemm_time(&self, flops: f64) -> f64 {
        flops / self.gemm_flops()
    }

    /// Time for a factorization-class op with `flops` operations.
    pub fn factorization_time(&self, flops: f64) -> f64 {
        flops / self.factorization_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_throughput() {
        let p = HardwareProfile::p100();
        let v = HardwareProfile::v100();
        let r = HardwareProfile::rtx3090();
        assert!(p.gemm_flops() < v.gemm_flops());
        assert!(v.gemm_flops() < r.gemm_flops());
    }

    #[test]
    fn factorization_is_much_slower_than_gemm() {
        for hw in HardwareProfile::all() {
            assert!(
                hw.factorization_flops() < 0.3 * hw.gemm_flops(),
                "{}",
                hw.name
            );
        }
    }

    #[test]
    fn times_scale_linearly() {
        let hw = HardwareProfile::p100();
        assert!((hw.gemm_time(2e12) - 2.0 * hw.gemm_time(1e12)).abs() < 1e-12);
    }

    #[test]
    fn p100_gemm_time_sanity() {
        // 4.65 TFLOP effective → 1 TFLOP of GEMM ≈ 0.215 s.
        let hw = HardwareProfile::p100();
        let t = hw.gemm_time(1e12);
        assert!((t - 0.215).abs() < 0.01, "{t}");
    }
}
