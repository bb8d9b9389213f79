//! Shallow-water waveguide geometry and image-method eigenrays.
//!
//! The paper's key channel effect — deep frequency notches that move with
//! location, depth and distance (Fig. 3, Fig. 9b,c) — comes from coherent
//! interference of boundary-reflected paths. We model the water column as a
//! 2-D waveguide (pressure-release surface at depth 0, reflective bottom at
//! the site depth) and enumerate eigenrays by the standard image method.

use crate::absorption::{absorption_db, spreading_db};

/// A 3-D position: `x`/`y` horizontal in meters, `depth` in meters below the
/// surface (positive down).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pos {
    /// Horizontal coordinate (m).
    pub x: f64,
    /// Second horizontal coordinate (m).
    pub y: f64,
    /// Depth below the surface (m, positive down).
    pub depth: f64,
}

impl Pos {
    /// Creates a position.
    pub const fn new(x: f64, y: f64, depth: f64) -> Self {
        Self { x, y, depth }
    }

    /// Horizontal distance to another position.
    fn horizontal_range(&self, other: &Pos) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Straight-line distance to another position.
    pub fn distance(&self, other: &Pos) -> f64 {
        (self.horizontal_range(other).powi(2) + (self.depth - other.depth).powi(2)).sqrt()
    }
}

/// One propagation path (eigenray) from transmitter to receiver.
#[derive(Debug, Clone, Copy)]
pub struct Eigenray {
    /// Total path length in meters.
    pub length_m: f64,
    /// Amplitude gain (signed: surface bounces flip polarity), including
    /// spreading, absorption and boundary losses, referenced to unit source
    /// amplitude at 1 m.
    pub amplitude: f64,
    /// Number of surface reflections.
    pub surface_bounces: usize,
    /// Number of bottom reflections.
    pub bottom_bounces: usize,
    /// Stable identity across geometry updates: (image family 0..=4,
    /// bounce order). Two distinct families can share bounce counts, so the
    /// family tag is required to track a path while endpoints move.
    pub id: (u8, usize),
}

impl Eigenray {
    /// Propagation delay in seconds at sound speed `c`.
    pub fn delay_s(&self, c: f64) -> f64 {
        self.length_m / c
    }
}

/// Boundary reflectivity parameters of a site.
#[derive(Debug, Clone, Copy)]
pub struct Boundaries {
    /// Water column depth in meters.
    pub water_depth_m: f64,
    /// Surface reflection magnitude per bounce (1.0 = perfect mirror;
    /// roughness/waves reduce it). Sign is handled internally (surface is a
    /// pressure-release boundary: each bounce flips polarity).
    pub surface_reflectivity: f64,
    /// Bottom reflection magnitude per bounce (soft mud ≈ 0.2, rock ≈ 0.8).
    pub bottom_reflectivity: f64,
}

impl Boundaries {
    /// Open water with no boundaries (or in-air free field): direct path only.
    pub fn free_field() -> Self {
        Self {
            water_depth_m: f64::INFINITY,
            surface_reflectivity: 0.0,
            bottom_reflectivity: 0.0,
        }
    }
}

/// Enumerates eigenrays between `tx` and `rx` in the waveguide, keeping
/// paths stronger than `min_rel_amplitude` relative to the direct path, up
/// to `max_bounce_order` boundary periods.
///
/// Image families (derived by unfolding reflections; `b` = bottom bounces):
/// - direct: vertical travel `|z_r − z_t|`
/// - up-first, s = b+1:   `2bD + z_t + z_r`
/// - up-first, s = b:     `2bD + z_t − z_r`  (b ≥ 1)
/// - down-first, b = s+1: `2bD − z_t − z_r`  (b ≥ 1)
/// - down-first, s = b:   `2bD − z_t + z_r`  (b ≥ 1)
pub fn eigenrays(
    tx: &Pos,
    rx: &Pos,
    bounds: &Boundaries,
    nominal_freq_hz: f64,
    min_rel_amplitude: f64,
    max_bounce_order: usize,
) -> Vec<Eigenray> {
    let mut rays = Vec::new();
    eigenrays_into(
        tx,
        rx,
        bounds,
        nominal_freq_hz,
        min_rel_amplitude,
        max_bounce_order,
        &mut rays,
    );
    rays
}

/// [`eigenrays`] into a caller-owned buffer (cleared and refilled), so
/// block-stepped renderers can re-enumerate paths without reallocating.
#[allow(clippy::too_many_arguments)]
pub fn eigenrays_into(
    tx: &Pos,
    rx: &Pos,
    bounds: &Boundaries,
    nominal_freq_hz: f64,
    min_rel_amplitude: f64,
    max_bounce_order: usize,
    rays: &mut Vec<Eigenray>,
) {
    let r = tx.horizontal_range(rx).max(1e-6);
    let (zt, zr) = (tx.depth, rx.depth);
    let d = bounds.water_depth_m;

    rays.clear();
    let mut push = |vertical: f64, s: usize, b: usize, family: u8, order: usize| {
        let length = (r * r + vertical * vertical).sqrt().max(1e-3);
        let boundary_gain =
            bounds.surface_reflectivity.powi(s as i32) * bounds.bottom_reflectivity.powi(b as i32);
        if boundary_gain == 0.0 && (s + b) > 0 {
            return;
        }
        let sign = if s.is_multiple_of(2) { 1.0 } else { -1.0 };
        let loss_db = spreading_db(length) + absorption_db(nominal_freq_hz, length);
        let amplitude = sign * boundary_gain * 10f64.powf(-loss_db / 20.0);
        rays.push(Eigenray {
            length_m: length,
            amplitude,
            surface_bounces: s,
            bottom_bounces: b,
            id: (family, order),
        });
    };

    // Direct path.
    push(zr - zt, 0, 0, 0, 0);

    if d.is_finite() {
        // up-first, s = b + 1 (starts with a surface bounce)
        for b in 0..=max_bounce_order {
            push(2.0 * b as f64 * d + zt + zr, b + 1, b, 1, b);
        }
        for b in 1..=max_bounce_order {
            // up-first, s = b
            push(2.0 * b as f64 * d + zt - zr, b, b, 2, b);
            // down-first, b = s + 1
            push(2.0 * b as f64 * d - zt - zr, b - 1, b, 3, b);
            // down-first, s = b
            push(2.0 * b as f64 * d - zt + zr, b, b, 4, b);
        }
    }

    // Prune weak paths relative to the strongest.
    let peak = rays.iter().map(|p| p.amplitude.abs()).fold(0.0, f64::max);
    rays.retain(|p| p.amplitude.abs() >= peak * min_rel_amplitude);
    rays.sort_by(|a, b| a.length_m.partial_cmp(&b.length_m).unwrap());
}

/// Delay spread of a set of eigenrays in seconds (max − min delay).
pub fn delay_spread_s(rays: &[Eigenray], c: f64) -> f64 {
    if rays.len() < 2 {
        return 0.0;
    }
    let min = rays
        .iter()
        .map(|r| r.length_m)
        .fold(f64::INFINITY, f64::min);
    let max = rays.iter().map(|r| r.length_m).fold(0.0, f64::max);
    (max - min) / c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lake_bounds() -> Boundaries {
        Boundaries {
            water_depth_m: 5.0,
            surface_reflectivity: 0.95,
            bottom_reflectivity: 0.6,
        }
    }

    #[test]
    fn free_field_has_only_direct_path() {
        let rays = eigenrays(
            &Pos::new(0.0, 0.0, 1.0),
            &Pos::new(5.0, 0.0, 1.0),
            &Boundaries::free_field(),
            2500.0,
            1e-3,
            8,
        );
        assert_eq!(rays.len(), 1);
        assert_eq!(rays[0].surface_bounces, 0);
        assert!((rays[0].length_m - 5.0).abs() < 1e-9);
    }

    #[test]
    fn waveguide_produces_multipath() {
        let rays = eigenrays(
            &Pos::new(0.0, 0.0, 1.0),
            &Pos::new(10.0, 0.0, 1.0),
            &lake_bounds(),
            2500.0,
            1e-3,
            8,
        );
        assert!(
            rays.len() >= 5,
            "expected rich multipath, got {}",
            rays.len()
        );
        // direct path is shortest
        assert_eq!(rays[0].surface_bounces + rays[0].bottom_bounces, 0);
    }

    #[test]
    fn surface_bounce_path_geometry_is_exact() {
        // tx, rx both at 1 m depth, 10 m apart: single-surface-bounce path
        // length = sqrt(10² + (1+1)²)
        let rays = eigenrays(
            &Pos::new(0.0, 0.0, 1.0),
            &Pos::new(10.0, 0.0, 1.0),
            &lake_bounds(),
            2500.0,
            1e-6,
            4,
        );
        let surf = rays
            .iter()
            .find(|r| r.surface_bounces == 1 && r.bottom_bounces == 0)
            .expect("surface path");
        assert!((surf.length_m - (100.0_f64 + 4.0).sqrt()).abs() < 1e-9);
        assert!(surf.amplitude < 0.0, "surface bounce flips polarity");
    }

    #[test]
    fn deeper_water_spreads_delays() {
        let shallow = eigenrays(
            &Pos::new(0.0, 0.0, 1.0),
            &Pos::new(5.0, 0.0, 1.0),
            &Boundaries {
                water_depth_m: 2.0,
                ..lake_bounds()
            },
            2500.0,
            1e-2,
            6,
        );
        let deep = eigenrays(
            &Pos::new(0.0, 0.0, 1.0),
            &Pos::new(5.0, 0.0, 1.0),
            &Boundaries {
                water_depth_m: 15.0,
                ..lake_bounds()
            },
            2500.0,
            1e-2,
            6,
        );
        assert!(
            delay_spread_s(&deep, 1500.0) > delay_spread_s(&shallow, 1500.0) * 0.999
                || deep.len() <= shallow.len(),
            "deep water paths arrive over a wider window or are pruned"
        );
    }

    #[test]
    fn amplitudes_fall_with_bounce_count() {
        let rays = eigenrays(
            &Pos::new(0.0, 0.0, 2.0),
            &Pos::new(8.0, 0.0, 2.0),
            &lake_bounds(),
            2500.0,
            1e-4,
            6,
        );
        let direct = rays
            .iter()
            .find(|r| r.surface_bounces + r.bottom_bounces == 0)
            .unwrap();
        for ray in &rays {
            if ray.surface_bounces + ray.bottom_bounces >= 3 {
                assert!(ray.amplitude.abs() < direct.amplitude.abs());
            }
        }
    }

    #[test]
    fn pruning_respects_threshold() {
        let all = eigenrays(
            &Pos::new(0.0, 0.0, 1.0),
            &Pos::new(10.0, 0.0, 1.0),
            &lake_bounds(),
            2500.0,
            1e-6,
            10,
        );
        let pruned = eigenrays(
            &Pos::new(0.0, 0.0, 1.0),
            &Pos::new(10.0, 0.0, 1.0),
            &lake_bounds(),
            2500.0,
            0.3,
            10,
        );
        assert!(pruned.len() < all.len());
        let peak = pruned.iter().map(|r| r.amplitude.abs()).fold(0.0, f64::max);
        for r in &pruned {
            assert!(r.amplitude.abs() >= 0.3 * peak - 1e-12);
        }
    }

    #[test]
    fn horizontal_range_and_distance() {
        let a = Pos::new(0.0, 3.0, 1.0);
        let b = Pos::new(4.0, 0.0, 1.0);
        assert!((a.horizontal_range(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}
