//! Mobility models: device trajectories during a transmission.
//!
//! The paper evaluates static rigs, rope-suspended phones that sway and
//! rotate, and deliberate slow/fast motion quantified by accelerometer RMS
//! (2.5 and 5.1 m/s², §3 "Effect of mobility"). We model motion as a
//! smoothed random oscillation around a base position with matching RMS
//! acceleration; the channel renderer samples positions per block, which
//! turns trajectory into physical delay change (Doppler) and channel drift.

use crate::geometry::Pos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A device trajectory: position and orientation as a function of time.
#[derive(Debug, Clone)]
pub enum Trajectory {
    /// Fixed position and azimuth.
    Static {
        /// Position.
        pos: Pos,
        /// Azimuth of the device boresight in radians.
        azimuth: f64,
    },
    /// Smoothed random oscillation with a target RMS acceleration, as in
    /// the paper's mobility experiments (horizontal + vertical + slow
    /// random rotation, like a phone on a rope).
    Oscillating {
        /// Center of the motion.
        base: Pos,
        /// Base azimuth in radians.
        azimuth: f64,
        /// Target RMS acceleration in m/s² (paper: 2.5 slow, 5.1 fast).
        rms_accel: f64,
        /// Random seed for the motion realization.
        seed: u64,
    },
}

impl Trajectory {
    /// Convenience: static at a position facing along +x.
    pub fn fixed(pos: Pos) -> Self {
        Trajectory::Static { pos, azimuth: 0.0 }
    }

    /// The paper's "slow motion" (2.5 m/s² accelerometer RMS).
    pub fn slow(base: Pos, seed: u64) -> Self {
        Trajectory::Oscillating {
            base,
            azimuth: 0.0,
            rms_accel: 2.5,
            seed,
        }
    }

    /// The paper's "fast motion" (5.1 m/s² accelerometer RMS).
    pub fn fast(base: Pos, seed: u64) -> Self {
        Trajectory::Oscillating {
            base,
            azimuth: 0.0,
            rms_accel: 5.1,
            seed,
        }
    }

    /// Position at time `t` seconds.
    pub fn position(&self, t: f64) -> Pos {
        match self {
            Trajectory::Static { pos, .. } => *pos,
            Trajectory::Oscillating {
                base,
                rms_accel,
                seed,
                ..
            } => {
                let (dx, dz) = oscillation(*rms_accel, *seed, t);
                Pos::new(base.x + dx, base.y, (base.depth + dz).max(0.05))
            }
        }
    }

    /// Device boresight azimuth at time `t` seconds (radians).
    pub fn azimuth(&self, t: f64) -> f64 {
        match self {
            Trajectory::Static { azimuth, .. } => *azimuth,
            Trajectory::Oscillating {
                azimuth,
                rms_accel,
                seed,
                ..
            } => {
                // Rope-suspended phones rotate slowly and randomly.
                let w = 0.35 + rms_accel * 0.1;
                let mut rng = StdRng::seed_from_u64(seed ^ 0x0707);
                let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                azimuth + 0.8 * (w * t + phase).sin()
            }
        }
    }
}

/// Band-limited oscillation with target RMS acceleration: a sum of three
/// seeded sinusoids in 0.2–0.9 Hz per axis. For a sinusoid with amplitude A
/// and angular frequency w, RMS acceleration is A·w²/√2; we allocate the
/// target across components.
fn oscillation(rms_accel: f64, seed: u64, t: f64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dx = 0.0;
    let mut dz = 0.0;
    let comps = 3;
    let per_comp = rms_accel / (comps as f64).sqrt();
    for _ in 0..comps {
        let fx: f64 = rng.gen_range(0.4..1.1);
        let fz: f64 = rng.gen_range(0.4..1.1);
        let px: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let pz: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let wx = std::f64::consts::TAU * fx;
        let wz = std::f64::consts::TAU * fz;
        // amplitude giving this component its share of RMS acceleration
        let ax = per_comp * std::f64::consts::SQRT_2 / (wx * wx);
        let az = 0.6 * per_comp * std::f64::consts::SQRT_2 / (wz * wz);
        dx += ax * (wx * t + px).sin();
        dz += az * (wz * t + pz).sin();
    }
    (dx, dz)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Trajectory {
        /// Radial velocity toward a fixed point at time `t` (m/s, positive =
        /// approaching), estimated by finite difference.
        fn radial_velocity(&self, toward: &Pos, t: f64) -> f64 {
            let dt = 1e-3;
            let d0 = self.position(t).distance(toward);
            let d1 = self.position(t + dt).distance(toward);
            -(d1 - d0) / dt
        }
    }

    #[test]
    fn static_trajectory_does_not_move() {
        let t = Trajectory::fixed(Pos::new(1.0, 2.0, 3.0));
        assert_eq!(t.position(0.0), t.position(100.0));
        assert_eq!(t.azimuth(5.0), 0.0);
    }

    #[test]
    fn oscillation_rms_acceleration_matches_target() {
        for (target, tol) in [(2.5, 0.8), (5.1, 1.5)] {
            let traj = Trajectory::Oscillating {
                base: Pos::new(0.0, 0.0, 1.0),
                azimuth: 0.0,
                rms_accel: target,
                seed: 11,
            };
            // numerically differentiate position twice
            let dt = 0.005;
            let n = 8000;
            let xs: Vec<f64> = (0..n).map(|i| traj.position(i as f64 * dt).x).collect();
            let zs: Vec<f64> = (0..n).map(|i| traj.position(i as f64 * dt).depth).collect();
            let mut acc2 = 0.0;
            for i in 1..n - 1 {
                let ax = (xs[i + 1] - 2.0 * xs[i] + xs[i - 1]) / (dt * dt);
                let az = (zs[i + 1] - 2.0 * zs[i] + zs[i - 1]) / (dt * dt);
                acc2 += ax * ax + az * az;
            }
            let rms = (acc2 / (n - 2) as f64).sqrt();
            assert!((rms - target).abs() < tol, "target {target} rms {rms}");
        }
    }

    #[test]
    fn fast_motion_moves_more_than_slow() {
        let slow = Trajectory::slow(Pos::new(0.0, 0.0, 1.0), 3);
        let fast = Trajectory::fast(Pos::new(0.0, 0.0, 1.0), 3);
        let spread = |traj: &Trajectory| -> f64 {
            (0..200)
                .map(|i| {
                    let p = traj.position(i as f64 * 0.05);
                    ((p.x).powi(2) + (p.depth - 1.0).powi(2)).sqrt()
                })
                .fold(0.0, f64::max)
        };
        assert!(spread(&fast) > spread(&slow));
    }

    #[test]
    fn radial_velocity_stays_within_safe_diver_speeds() {
        // The paper argues safe human motion is < 1-2 m/s; our models keep
        // the RMS in that regime (brief peaks of hand-shaken phones can
        // exceed it, as in the paper's own rope experiments).
        let traj = Trajectory::fast(Pos::new(0.0, 0.0, 1.0), 5);
        let target = Pos::new(5.0, 0.0, 1.0);
        let vels: Vec<f64> = (0..500)
            .map(|i| traj.radial_velocity(&target, i as f64 * 0.02))
            .collect();
        let rms = (vels.iter().map(|v| v * v).sum::<f64>() / vels.len() as f64).sqrt();
        let vmax = vels.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(rms < 2.0, "radial velocity rms {rms} m/s too fast");
        assert!(vmax < 4.0, "radial velocity peak {vmax} m/s too fast");
        assert!(vmax > 0.01, "motion should be nonzero");
    }

    #[test]
    fn depth_never_goes_above_surface() {
        let traj = Trajectory::Oscillating {
            base: Pos::new(0.0, 0.0, 0.2),
            azimuth: 0.0,
            rms_accel: 5.1,
            seed: 9,
        };
        for i in 0..1000 {
            assert!(traj.position(i as f64 * 0.01).depth > 0.0);
        }
    }

    #[test]
    fn azimuth_oscillates_for_mobile_trajectories() {
        let traj = Trajectory::slow(Pos::new(0.0, 0.0, 1.0), 1);
        let a0 = traj.azimuth(0.0);
        let a1 = traj.azimuth(2.0);
        assert!((a0 - a1).abs() > 1e-3);
    }
}
