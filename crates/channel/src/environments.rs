//! Site presets for the paper's six evaluation environments (Fig. 7).
//!
//! Parameters are calibrated so the *relative* behaviour matches the
//! paper's characterization: the bridge is quiet and benign, the lake is
//! noisy with strong frequency selectivity (walls/pillars), the museum is
//! 9 m deep for the depth sweep, the bay is 15 m deep with waves, and the
//! beach offers 100 m for the long-range FSK runs. An in-air preset backs
//! the Fig. 3c reciprocity-in-air experiment.

use crate::absorption::{SOUND_SPEED_AIR, SOUND_SPEED_WATER};
use crate::geometry::{Boundaries, Pos};
use crate::noise::NoiseProfile;

/// A discrete far reflector (dock wall, pillar, moored boat): produces an
/// extra echo with delay `(|tx−R| + |R−rx|)/c`, typically well beyond the
/// cyclic prefix — the source of the lake/museum sites' extra frequency
/// selectivity and the delay spread that motivates the paper's equalizer.
#[derive(Debug, Clone, Copy)]
pub struct Reflector {
    /// Reflector position.
    pub pos: Pos,
    /// Reflection magnitude (0..1).
    pub reflectivity: f64,
}

/// A named evaluation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Quiet, still water under a bridge (20 m span).
    Bridge,
    /// Busy park waterfront (40 m), boats and currents.
    Park,
    /// Fishing-dock lake (30 m, 5 m deep), noisiest and most frequency
    /// selective.
    Lake,
    /// 100 m beach waterfront for long-range runs.
    Beach,
    /// 9 m deep museum dock for the depth sweep.
    Museum,
    /// 15 m deep bay with waves.
    Bay,
    /// In-air free field (characterization only).
    Air,
}

impl Site {
    /// All underwater sites.
    pub const UNDERWATER: [Site; 6] = [
        Site::Bridge,
        Site::Park,
        Site::Lake,
        Site::Beach,
        Site::Museum,
        Site::Bay,
    ];
}

/// Full environment description used by the link renderer.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Which site this is.
    pub site: Site,
    /// Boundary geometry/reflectivity.
    pub boundaries: Boundaries,
    /// Sound speed in m/s.
    pub sound_speed: f64,
    /// Ambient noise spectral profile and level.
    pub noise: NoiseProfile,
    /// Expected rate of impulsive noise events (bubbles, splashes) per
    /// second; 0 disables.
    pub impulse_rate_hz: f64,
    /// Peak amplitude of impulsive events.
    pub impulse_peak: f64,
    /// Discrete far reflectors (walls, pillars, boats).
    pub reflectors: Vec<Reflector>,
}

/// Baseline ambient noise RMS (digital full scale) for the quietest site.
/// Calibrated so the protocol's operating envelope matches the paper's:
/// large selected bands at 5 m, a handful of bins at 30 m, preamble
/// detection ≈0.96+ out to 30 m in the lake.
pub const BASE_NOISE_RMS: f64 = 2.2e-3;

impl Environment {
    /// Builds the preset for a site.
    pub fn preset(site: Site) -> Self {
        match site {
            Site::Bridge => Self {
                site,
                boundaries: Boundaries {
                    water_depth_m: 4.0,
                    surface_reflectivity: 0.85,
                    bottom_reflectivity: 0.30,
                },
                sound_speed: SOUND_SPEED_WATER,
                noise: NoiseProfile::underwater(BASE_NOISE_RMS),
                impulse_rate_hz: 0.2,
                impulse_peak: 0.02,
                reflectors: vec![Reflector {
                    pos: Pos::new(8.0, 6.0, 2.0),
                    reflectivity: 0.18,
                }],
            },
            Site::Park => Self {
                site,
                boundaries: Boundaries {
                    water_depth_m: 4.0,
                    surface_reflectivity: 0.75,
                    bottom_reflectivity: 0.45,
                },
                sound_speed: SOUND_SPEED_WATER,
                noise: NoiseProfile::underwater(BASE_NOISE_RMS).with_gain_db(5.0),
                impulse_rate_hz: 1.0,
                impulse_peak: 0.05,
                reflectors: vec![Reflector {
                    pos: Pos::new(12.0, -7.0, 2.0),
                    reflectivity: 0.30,
                }],
            },
            Site::Lake => Self {
                site,
                boundaries: Boundaries {
                    water_depth_m: 5.0,
                    surface_reflectivity: 0.85,
                    // dock walls and pillars: strong, coherent reflections
                    bottom_reflectivity: 0.55,
                },
                sound_speed: SOUND_SPEED_WATER,
                // 9 dB above the bridge broadband (Fig. 4b), but LF-heavy:
                // the in-band cost to the modem is ≈5 dB
                noise: NoiseProfile::underwater_lf_heavy(BASE_NOISE_RMS).with_gain_db(9.0),
                impulse_rate_hz: 2.0,
                impulse_peak: 0.08,
                reflectors: vec![
                    Reflector {
                        pos: Pos::new(15.0, 8.0, 2.5),
                        reflectivity: 0.38,
                    },
                    Reflector {
                        pos: Pos::new(4.0, -5.0, 3.0),
                        reflectivity: 0.28,
                    },
                ],
            },
            Site::Beach => Self {
                site,
                boundaries: Boundaries {
                    water_depth_m: 3.0,
                    surface_reflectivity: 0.80,
                    bottom_reflectivity: 0.40,
                },
                sound_speed: SOUND_SPEED_WATER,
                noise: NoiseProfile::underwater(BASE_NOISE_RMS).with_gain_db(4.0),
                impulse_rate_hz: 0.8,
                impulse_peak: 0.04,
                reflectors: Vec::new(),
            },
            Site::Museum => Self {
                site,
                boundaries: Boundaries {
                    water_depth_m: 9.0,
                    surface_reflectivity: 0.88,
                    bottom_reflectivity: 0.70, // concrete dock floor
                },
                sound_speed: SOUND_SPEED_WATER,
                noise: NoiseProfile::underwater(BASE_NOISE_RMS).with_gain_db(6.0),
                impulse_rate_hz: 1.0,
                impulse_peak: 0.05,
                reflectors: vec![
                    Reflector {
                        pos: Pos::new(10.0, 6.0, 4.0),
                        reflectivity: 0.45,
                    },
                    Reflector {
                        pos: Pos::new(-6.0, 9.0, 1.5),
                        reflectivity: 0.30,
                    },
                ],
            },
            Site::Bay => Self {
                site,
                boundaries: Boundaries {
                    water_depth_m: 15.0,
                    surface_reflectivity: 0.70, // waves roughen the surface
                    bottom_reflectivity: 0.50,
                },
                sound_speed: SOUND_SPEED_WATER,
                noise: NoiseProfile::underwater(BASE_NOISE_RMS).with_gain_db(5.0),
                impulse_rate_hz: 1.5,
                impulse_peak: 0.05,
                reflectors: vec![Reflector {
                    pos: Pos::new(20.0, 10.0, 6.0),
                    reflectivity: 0.20,
                }],
            },
            Site::Air => Self {
                site,
                boundaries: Boundaries::free_field(),
                sound_speed: SOUND_SPEED_AIR,
                noise: NoiseProfile::white(BASE_NOISE_RMS * 0.3),
                impulse_rate_hz: 0.0,
                impulse_peak: 0.0,
                reflectors: Vec::new(),
            },
        }
    }

    /// Overrides the noise level by a relative gain in dB.
    pub fn with_noise_gain_db(mut self, db: f64) -> Self {
        self.noise = self.noise.clone().with_gain_db(db);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_all_sites() {
        for site in Site::UNDERWATER {
            let env = Environment::preset(site);
            assert!(env.boundaries.water_depth_m > 0.0);
            assert!(env.sound_speed > 1000.0);
        }
        let air = Environment::preset(Site::Air);
        assert!(air.boundaries.water_depth_m.is_infinite());
        assert!((air.sound_speed - 343.0).abs() < 1.0);
    }

    #[test]
    fn lake_is_noisier_than_bridge_by_about_9db() {
        let bridge = Environment::preset(Site::Bridge);
        let lake = Environment::preset(Site::Lake);
        let ratio_db = 20.0 * (lake.noise.rms / bridge.noise.rms).log10();
        assert!((ratio_db - 9.0).abs() < 0.5, "ratio {ratio_db}");
    }

    #[test]
    fn lake_has_strongest_bottom_reflections_of_shallow_sites() {
        let lake = Environment::preset(Site::Lake);
        for site in [Site::Bridge, Site::Park, Site::Beach] {
            let env = Environment::preset(site);
            assert!(lake.boundaries.bottom_reflectivity > env.boundaries.bottom_reflectivity);
        }
    }

    #[test]
    fn deep_sites_are_deep() {
        assert_eq!(
            Environment::preset(Site::Museum).boundaries.water_depth_m,
            9.0
        );
        assert_eq!(
            Environment::preset(Site::Bay).boundaries.water_depth_m,
            15.0
        );
    }
}
