//! Seeded chaos fabric: a [`FaultPlan`] derives every injection decision —
//! stalls, panics, slow-stage skew — from a single `u64` seed, keyed on
//! *logical* coordinates (device, step, op index). Replaying the same seed replays byte-for-byte the same
//! fault schedule, so any failure a soak run finds is reproducible from the
//! seed alone.

use pipefisher_lm::{ChaosHook, StepFault};
use std::time::Duration;

/// One round of the splitmix64 generator: advances `x` and returns the next
/// output. Used both as a stream (scenario generation) and, re-seeded per
/// key, as a stateless keyed hash (per-op injection decisions).
pub fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless keyed hash: mixes the plan seed, a domain tag, and up to three
/// logical coordinates into one splitmix64 output. Different tags give
/// independent decision streams over the same coordinates.
fn keyed(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut s = seed
        ^ tag.rotate_left(17)
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ c.wrapping_mul(0x1656_67B1_9E37_79F9);
    splitmix64(&mut s)
}

/// A seeded kill-and-resume exercise: the run checkpoints every step, a
/// panic kills `device` at the start of step `kill_after` (so exactly
/// `kill_after` steps completed and were checkpointed), and the harness
/// resumes from the newest checkpoint and trains to completion. The resumed
/// run must be bitwise-identical — per-step losses and final parameters —
/// to an uninterrupted serial oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointFault {
    /// Device whose injected panic kills the first run.
    pub device: usize,
    /// Step at whose *start* the kill fires; always ≥ 1 so at least one
    /// checkpoint exists to resume from.
    pub kill_after: usize,
}

/// A deterministic fault schedule for one pipelined run, derived entirely
/// from [`FaultPlan::seed`].
///
/// Three fault classes:
///
/// * **Liveness faults** (`fault`): at most one injected panic or stall at a
///   fixed `(device, step)`. These abort the run — a panic must surface as
///   `ExecError::StagePanic` on that device, a stall as `ExecError::Wedged`.
/// * **Timing perturbations** (per-op delays): keyed-hash decisions that
///   stretch the schedule without changing any computed value. A run
///   perturbed only by these must still be bitwise-identical to the serial
///   trainer.
/// * **Kill-and-resume** (`checkpoint`, mutually exclusive with `fault`):
///   a mid-run kill followed by a checkpoint restore; the resumed
///   trajectory must match the serial oracle bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed every decision derives from; failure messages report it.
    pub seed: u64,
    /// The liveness fault, if any: what, on which device, at which step.
    pub fault: Option<(StepFault, usize, usize)>,
    /// Per-op delay probability, numerator out of 256 (0 disables).
    pub delay_num: u32,
    /// Injected delays are drawn from `[100, delay_cap_us]` microseconds.
    pub delay_cap_us: u64,
    /// The kill-and-resume exercise, if any. Never set together with
    /// `fault`; the harness drives the kill itself (see
    /// `run_scenario`), so the [`ChaosHook`] impl ignores this field.
    pub checkpoint: Option<CheckpointFault>,
}

impl FaultPlan {
    /// No injections at all — the hook is a no-op.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fault: None,
            delay_num: 0,
            delay_cap_us: 0,
            checkpoint: None,
        }
    }

    /// Timing perturbations only (never without delays), no liveness
    /// fault: the configuration for parity-checked chaos runs.
    pub fn timing_only(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::from_seed(seed, usize::MAX, usize::MAX);
        p.fault = None;
        p.checkpoint = None;
        if p.delay_num == 0 {
            p.delay_num = 16;
            p.delay_cap_us = 400;
        }
        p
    }

    /// Panic `device` at the start of `step` (no timing perturbations).
    pub fn panic_at(device: usize, step: usize) -> FaultPlan {
        FaultPlan {
            fault: Some((StepFault::Panic, device, step)),
            ..FaultPlan::quiet(0)
        }
    }

    /// Wedge `device` at the start of `step` (no timing perturbations).
    pub fn stall_at(device: usize, step: usize) -> FaultPlan {
        FaultPlan {
            fault: Some((StepFault::Stall, device, step)),
            ..FaultPlan::quiet(0)
        }
    }

    /// Derives a full fault schedule from `seed` for a run of `steps` steps
    /// on `n_devices` devices. Roughly one run in four gets a liveness
    /// fault; of the rest, roughly one in four gets a kill-and-resume
    /// checkpoint exercise instead; delay intensity is drawn independently
    /// (and may be zero — clean runs are part of the space).
    pub fn from_seed(seed: u64, n_devices: usize, steps: usize) -> FaultPlan {
        let mut s = seed ^ 0xFA17_FA17_FA17_FA17;
        let roll = splitmix64(&mut s);
        let device = (splitmix64(&mut s) % n_devices.max(1) as u64) as usize;
        let step = (splitmix64(&mut s) % steps.max(1) as u64) as usize;
        let fault = match roll % 8 {
            0 => Some((StepFault::Panic, device, step)),
            1 => Some((StepFault::Stall, device, step)),
            _ => None,
        };
        let delay_num = [0u32, 8, 32][(splitmix64(&mut s) % 3) as usize];
        let delay_cap_us = 100 + splitmix64(&mut s) % 700;
        let ck_roll = splitmix64(&mut s);
        let ck_device = (splitmix64(&mut s) % n_devices.max(1) as u64) as usize;
        let ck_step = 1 + (splitmix64(&mut s) % steps.saturating_sub(1).max(1) as u64) as usize;
        let checkpoint = if fault.is_none() && steps >= 2 && ck_roll.is_multiple_of(4) {
            Some(CheckpointFault {
                device: ck_device,
                kill_after: ck_step,
            })
        } else {
            None
        };
        FaultPlan {
            seed,
            fault,
            delay_num,
            delay_cap_us,
            checkpoint,
        }
    }

    /// Whether this plan injects a run-aborting fault (panic or stall).
    pub fn is_fatal(&self) -> bool {
        self.fault.is_some()
    }
}

impl ChaosHook for FaultPlan {
    fn step_fault(&self, device: usize, step: usize) -> Option<StepFault> {
        match self.fault {
            Some((kind, d, s)) if d == device && s == step => Some(kind),
            _ => None,
        }
    }

    fn op_delay(&self, device: usize, step: usize, op_index: usize) -> Option<Duration> {
        if self.delay_num == 0 {
            return None;
        }
        let h = keyed(
            self.seed,
            0xDE1A,
            device as u64,
            step as u64,
            op_index as u64,
        );
        if (h & 0xFF) as u32 >= self.delay_num {
            return None;
        }
        let span = self.delay_cap_us.saturating_sub(100).max(1);
        Some(Duration::from_micros(100 + (h >> 8) % span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identical_decisions() {
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let a = FaultPlan::from_seed(seed, 4, 5);
            let b = FaultPlan::from_seed(seed, 4, 5);
            assert_eq!(a, b);
            for dev in 0..4 {
                for step in 0..5 {
                    assert_eq!(a.step_fault(dev, step), b.step_fault(dev, step));
                    for op in 0..32 {
                        assert_eq!(a.op_delay(dev, step, op), b.op_delay(dev, step, op));
                    }
                }
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        // Not a tautology for a broken hash that ignores its seed.
        let mut distinct = false;
        for seed in 0..64u64 {
            if FaultPlan::from_seed(seed, 4, 5) != FaultPlan::from_seed(seed + 64, 4, 5) {
                distinct = true;
                break;
            }
        }
        assert!(distinct, "64 seed pairs produced identical plans");
    }

    #[test]
    fn fault_coordinates_stay_in_range() {
        for seed in 0..256u64 {
            let p = FaultPlan::from_seed(seed, 3, 4);
            if let Some((_, dev, step)) = p.fault {
                assert!(dev < 3, "seed {seed}: device {dev}");
                assert!(step < 4, "seed {seed}: step {step}");
            }
            assert!(p.delay_cap_us >= 100);
        }
    }

    #[test]
    fn injected_delays_respect_the_cap() {
        let p = FaultPlan {
            seed: 9,
            fault: None,
            delay_num: 256, // always fire
            delay_cap_us: 350,
            checkpoint: None,
        };
        for op in 0..64 {
            let d = p.op_delay(0, 0, op).expect("delay_num 256 always fires");
            assert!(d >= Duration::from_micros(100) && d < Duration::from_micros(450));
        }
    }

    #[test]
    fn checkpoint_faults_are_exclusive_bounded_and_drawn() {
        let mut drawn = false;
        for seed in 0..512u64 {
            let p = FaultPlan::from_seed(seed, 4, 4);
            if let Some(ck) = p.checkpoint {
                drawn = true;
                assert!(
                    p.fault.is_none(),
                    "seed {seed}: liveness and checkpoint faults drawn together"
                );
                assert!(
                    ck.kill_after >= 1 && ck.kill_after < 4,
                    "seed {seed}: kill_after {} outside [1, steps)",
                    ck.kill_after
                );
                assert!(ck.device < 4, "seed {seed}: device {}", ck.device);
            }
        }
        assert!(drawn, "512 seeds never drew a checkpoint fault");
        assert_eq!(FaultPlan::timing_only(3).checkpoint, None);
        for seed in 0..64u64 {
            let p = FaultPlan::timing_only(seed);
            assert!(p.delay_num > 0 && !p.is_fatal(), "seed {seed}: {p:?}");
        }
        assert_eq!(FaultPlan::quiet(3).checkpoint, None);
    }

    #[test]
    fn targeted_constructors_hit_only_their_coordinate() {
        let p = FaultPlan::panic_at(1, 2);
        assert_eq!(p.step_fault(1, 2), Some(StepFault::Panic));
        assert_eq!(p.step_fault(1, 1), None);
        assert_eq!(p.step_fault(0, 2), None);
        assert_eq!(p.op_delay(1, 2, 0), None);
        let s = FaultPlan::stall_at(0, 0);
        assert_eq!(s.step_fault(0, 0), Some(StepFault::Stall));
        assert!(s.is_fatal() && p.is_fatal() && !FaultPlan::quiet(3).is_fatal());
    }
}
