//! Mobile-device acoustic models.
//!
//! Smartphone speakers and microphones are designed for air; underwater
//! their responses are uneven, differ per model (Fig. 3a), roll off above
//! 4 kHz, and are further shaped by the waterproof case (Figs. 11b, 18).
//! Each model gets a deterministic synthetic speaker/mic response: a smooth
//! log-frequency ripple plus model-specific notches plus the shared
//! low-frequency and >4 kHz roll-offs. The *exact* curves are synthetic (we
//! have no lab measurements), but their statistics — 10–20 dB swings within
//! a few kHz, notch positions varying across models — match the paper's
//! characterization, which is what the adaptation algorithms respond to.

use aqua_dsp::memo::Memo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Supported device models (the four used in the paper's Fig. 3a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceModel {
    /// Samsung Galaxy S9 — the paper's workhorse device.
    GalaxyS9,
    /// Google Pixel 4.
    Pixel4,
    /// OnePlus 8 Pro.
    OnePlus8Pro,
    /// Samsung Galaxy Watch 4.
    GalaxyWatch4,
}

impl DeviceModel {
    /// All modeled devices.
    pub const ALL: [DeviceModel; 4] = [
        DeviceModel::GalaxyS9,
        DeviceModel::Pixel4,
        DeviceModel::OnePlus8Pro,
        DeviceModel::GalaxyWatch4,
    ];

    fn seed(self) -> u64 {
        match self {
            DeviceModel::GalaxyS9 => 0x5909,
            DeviceModel::Pixel4 => 0x4104,
            DeviceModel::OnePlus8Pro => 0x1888,
            DeviceModel::GalaxyWatch4 => 0x0444,
        }
    }

    /// Relative transmit strength: the watch's small speaker is weaker.
    fn source_level_db(self) -> f64 {
        match self {
            DeviceModel::GalaxyWatch4 => -6.0,
            _ => 0.0,
        }
    }
}

/// Waterproof-case options (§3 "Testing in deeper waters", Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// Bare device (characterization only).
    None,
    /// Thin flexible PVC pouch used in most of the paper's experiments.
    SoftPouch,
    /// Hard polycarbonate/TPU dive case rated to 15 m — attenuates more.
    HardCase,
}

impl CaseKind {
    /// Mean attenuation of the case in dB (flat component).
    fn mean_attenuation_db(self) -> f64 {
        match self {
            CaseKind::None => 0.0,
            CaseKind::SoftPouch => 2.0,
            CaseKind::HardCase => 9.0,
        }
    }
}

/// A concrete device instance: model + case + whether air was left in the
/// case (Fig. 18) + a per-unit seed (two physical S9s are not identical).
/// Equality/hashing are field-exact — the device-FIR memo keys on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Device {
    /// Hardware model.
    pub model: DeviceModel,
    /// Waterproof case.
    pub case: CaseKind,
    /// Air pocket left in the case (adds comb ripple, same mean power).
    pub air_in_case: bool,
    /// Per-unit seed for manufacturing variation.
    pub unit_seed: u64,
}

impl Device {
    /// A Galaxy S9 in a soft pouch — the paper's default rig.
    pub fn default_rig(unit_seed: u64) -> Self {
        Self {
            model: DeviceModel::GalaxyS9,
            case: CaseKind::SoftPouch,
            air_in_case: false,
            unit_seed,
        }
    }

    /// Creates a device with an explicit configuration.
    pub fn new(model: DeviceModel, case: CaseKind, unit_seed: u64) -> Self {
        Self {
            model,
            case,
            air_in_case: false,
            unit_seed,
        }
    }

    /// Offset of the speaker from the device reference point, in meters
    /// (x, y, depth). Speaker/mic sit at different spots on the chassis,
    /// which is what breaks underwater channel reciprocity (Fig. 3d): the
    /// forward path samples the interference pattern at the mic position,
    /// the backward path at the speaker position.
    pub fn speaker_offset(&self) -> (f64, f64, f64) {
        match self.model {
            DeviceModel::GalaxyWatch4 => (0.01, 0.0, 0.005),
            _ => (0.03, 0.01, 0.06),
        }
    }

    /// Offset of the primary microphone from the device reference point.
    pub fn mic_offset(&self) -> (f64, f64, f64) {
        match self.model {
            DeviceModel::GalaxyWatch4 => (-0.01, 0.0, -0.005),
            _ => (-0.02, -0.01, -0.07),
        }
    }

    /// Speaker (transmit) response in dB at `freq_hz`.
    ///
    /// The model seed dominates the curve; the per-unit seed adds only a
    /// small (≈1 dB) manufacturing ripple — two phones of the same model
    /// sound nearly alike, different models differ strongly (Fig. 3a).
    pub fn tx_response_db(&self, freq_hz: f64) -> f64 {
        model_tx_db(self.model, freq_hz) + Ripple::new(0x5EED ^ self.unit_seed, 1.0, 2).db(freq_hz)
    }

    /// Microphone (receive) response in dB at `freq_hz` (flatter than the
    /// speaker, milder ripple).
    pub fn rx_response_db(&self, freq_hz: f64) -> f64 {
        model_rx_db(self.model, freq_hz) + Ripple::new(0x31C ^ self.unit_seed, 0.8, 2).db(freq_hz)
    }

    /// Case transmission response in dB, as a function of frequency
    /// (applies on both transmit and receive). The case ripple's phases
    /// are drawn here, once per returned function.
    fn case_response_db(&self) -> impl Fn(f64) -> f64 + '_ {
        let ripple = match self.case {
            CaseKind::None => None,
            CaseKind::SoftPouch => Some(Ripple::new(0xCA5E ^ self.unit_seed, 1.5, 2)),
            CaseKind::HardCase => Some(Ripple::new(0x4A2D ^ self.unit_seed, 3.0, 3)),
        };
        move |freq_hz| {
            let base =
                -self.case.mean_attenuation_db() + ripple.as_ref().map_or(0.0, |r| r.db(freq_hz));
            if self.air_in_case {
                // Air pocket: comb-like ripple with zero mean — shifts the
                // response shape but not the 1–4 kHz average power (Fig. 18).
                base + 4.0 * (2.0 * std::f64::consts::PI * freq_hz / 900.0 + 0.7).sin()
            } else {
                base
            }
        }
    }

    /// Directivity loss in dB for a ray leaving/arriving at azimuth
    /// `angle_rad` off the transducer's boresight (Fig. 15: rotating one
    /// phone reduces SNR).
    pub fn directivity_db(&self, angle_rad: f64) -> f64 {
        let max_loss = match self.model {
            DeviceModel::GalaxyWatch4 => 4.0,
            _ => 7.0,
        };
        -max_loss * (1.0 - angle_rad.cos()) / 2.0
    }

    /// Combined end-to-end device response for one direction of a link:
    /// `tx.tx_response + tx.case + rx.rx_response + rx.case`, in dB.
    pub fn link_response_db(tx: &Device, rx: &Device, freq_hz: f64) -> f64 {
        tx.tx_response_db(freq_hz)
            + tx.case_response_db()(freq_hz)
            + rx.rx_response_db(freq_hz)
            + rx.case_response_db()(freq_hz)
    }

    /// [`link_response_db`](Device::link_response_db) evaluated over a
    /// whole frequency grid — the FIR-design hot path (a 1025-bin sweep
    /// per link construction, two links per packet trial).
    ///
    /// The model-level response (model ripple, model notches, roll-offs)
    /// is identical for every unit of a model, so it is computed once per
    /// (model, direction, grid) per process and shared; the four per-unit
    /// ripples draw their phases once per sweep, and only their values and
    /// the case response are evaluated per bin. Values match the pointwise
    /// form up to summation-order rounding (≤ 1 ulp of dB), which is far
    /// below the synthetic model's fidelity.
    pub fn link_response_db_grid(tx: &Device, rx: &Device, freqs: &[f64]) -> Vec<f64> {
        let tx_model = model_grid(tx.model, true, freqs);
        let rx_model = model_grid(rx.model, false, freqs);
        let tx_unit = Ripple::new(0x5EED ^ tx.unit_seed, 1.0, 2);
        let rx_unit = Ripple::new(0x31C ^ rx.unit_seed, 0.8, 2);
        let (tx_case, rx_case) = (tx.case_response_db(), rx.case_response_db());
        freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                tx_model[i] + tx_unit.db(f) + tx_case(f) + rx_model[i] + rx_unit.db(f) + rx_case(f)
            })
            .collect()
    }
}

/// Model-level (unit-independent) part of the speaker response.
fn model_tx_db(model: DeviceModel, freq_hz: f64) -> f64 {
    model.source_level_db()
        + Ripple::new(model.seed() ^ 0xA5A5, 9.0, 3).db(freq_hz)
        + notches_db(model.seed() ^ 0x11, freq_hz, 2)
        + shared_rolloff_db(freq_hz)
}

/// Model-level (unit-independent) part of the microphone response.
fn model_rx_db(model: DeviceModel, freq_hz: f64) -> f64 {
    Ripple::new(model.seed() ^ 0xC3C3, 4.0, 2).db(freq_hz)
        + notches_db(model.seed() ^ 0x22, freq_hz, 1)
        + shared_rolloff_db(freq_hz) * 0.5
}

/// Model-level response over a frequency grid, built once per process
/// and keyed by the grid's exact bit content (FNV over the raw `f64` bits
/// — no aliasing).
fn model_grid(model: DeviceModel, is_tx: bool, freqs: &[f64]) -> std::sync::Arc<Vec<f64>> {
    static GRIDS: Memo<(DeviceModel, bool, u64, usize), Vec<f64>> = Memo::new();
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for &f in freqs {
        fp = (fp ^ f.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let model_db = if is_tx { model_tx_db } else { model_rx_db };
    GRIDS.get((model, is_tx, fp, freqs.len()), || {
        freqs.iter().map(|&f| model_db(model, f)).collect()
    })
}

/// Smooth pseudo-random ripple in dB: a sum of `octaves+1` cosines in
/// log-frequency with seeded phases (drawn once, by [`Ripple::new`]),
/// amplitude `amp_db` peak.
struct Ripple {
    phases: Vec<f64>,
    amp_db: f64,
}

impl Ripple {
    fn new(seed: u64, amp_db: f64, octaves: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let phases = (0..=octaves)
            .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
            .collect();
        Self { phases, amp_db }
    }

    fn db(&self, freq_hz: f64) -> f64 {
        let logf = freq_hz.max(20.0).log2();
        let mut acc = 0.0;
        for (o, &phase) in self.phases.iter().enumerate() {
            let cycles_per_decade = 0.8 + 0.9 * o as f64; // slow → fast ripple
            let weight = 1.0 / (1.0 + o as f64);
            acc += weight * (cycles_per_decade * logf * std::f64::consts::TAU / 3.32 + phase).cos();
        }
        // normalize: sum of weights
        let norm: f64 = (0..self.phases.len()).map(|o| 1.0 / (1.0 + o as f64)).sum();
        self.amp_db * acc / norm
    }
}

/// Model-specific notches: seeded center frequencies in 0.8–4.5 kHz with
/// 6–14 dB depth and ~200 Hz width.
fn notches_db(seed: u64, freq_hz: f64, count: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0.0;
    for _ in 0..count {
        let center: f64 = rng.gen_range(800.0..4500.0);
        let depth: f64 = rng.gen_range(6.0..14.0);
        let width: f64 = rng.gen_range(120.0..300.0);
        let d = (freq_hz - center) / width;
        acc -= depth * (-d * d).exp();
    }
    acc
}

/// Roll-offs common to all phone transducers underwater: steep loss below
/// 300 Hz (tiny speakers) and the paper's observed decline above 4 kHz
/// (coupling through case and water).
fn shared_rolloff_db(freq_hz: f64) -> f64 {
    let mut db = 0.0;
    if freq_hz < 300.0 {
        db -= 24.0 * (300.0 / freq_hz.max(20.0)).log2();
    }
    if freq_hz > 4000.0 {
        db -= 12.0 * (freq_hz - 4000.0) / 1000.0;
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_deterministic() {
        let d = Device::default_rig(1);
        assert_eq!(d.tx_response_db(2000.0), d.tx_response_db(2000.0));
    }

    #[test]
    fn different_models_have_different_responses() {
        let a = Device::new(DeviceModel::GalaxyS9, CaseKind::SoftPouch, 1);
        let b = Device::new(DeviceModel::Pixel4, CaseKind::SoftPouch, 1);
        let freqs = [1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0];
        let diff: f64 = freqs
            .iter()
            .map(|&f| (a.tx_response_db(f) - b.tx_response_db(f)).abs())
            .sum();
        assert!(diff > 3.0, "models too similar: {diff}");
    }

    #[test]
    fn response_rolls_off_above_4khz() {
        // Compare band averages so individual notches don't dominate.
        let d = Device::default_rig(0);
        let mean = |lo: usize, hi: usize| -> f64 {
            let vals: Vec<f64> = (lo..hi)
                .map(|f| d.tx_response_db(f as f64 * 100.0))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let in_band = mean(25, 36); // 2.5-3.5 kHz
        let above = mean(55, 66); // 5.5-6.5 kHz
        assert!(above < in_band - 8.0, "in-band {in_band} vs above {above}");
    }

    #[test]
    fn low_frequencies_are_suppressed() {
        let d = Device::default_rig(0);
        assert!(d.tx_response_db(100.0) < d.tx_response_db(1500.0) - 15.0);
    }

    #[test]
    fn in_band_variation_matches_paper_magnitude() {
        // The paper reports 10-20 dB swings within a few kHz.
        let d = Device::new(DeviceModel::OnePlus8Pro, CaseKind::SoftPouch, 3);
        let vals: Vec<f64> = (10..45)
            .map(|k| Device::link_response_db(&d, &Device::default_rig(7), k as f64 * 100.0))
            .collect();
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min > 8.0, "swing {}", max - min);
        assert!(max - min < 60.0, "swing {}", max - min);
    }

    #[test]
    fn hard_case_attenuates_more_than_pouch() {
        let soft = Device::new(DeviceModel::GalaxyS9, CaseKind::SoftPouch, 1);
        let hard = Device::new(DeviceModel::GalaxyS9, CaseKind::HardCase, 1);
        let freqs: Vec<f64> = (10..40).map(|k| k as f64 * 100.0).collect();
        let mean = |d: &Device| -> f64 {
            freqs.iter().map(|&f| d.case_response_db()(f)).sum::<f64>() / freqs.len() as f64
        };
        assert!(mean(&hard) < mean(&soft) - 4.0);
    }

    #[test]
    fn air_in_case_preserves_mean_band_power() {
        // Fig. 18: response shape shifts but 1-4 kHz average power is close.
        let mut with_air = Device::default_rig(5);
        with_air.air_in_case = true;
        let without = Device::default_rig(5);
        let freqs: Vec<f64> = (100..400).map(|k| k as f64 * 10.0).collect();
        let mean = |d: &Device| -> f64 {
            freqs.iter().map(|&f| d.case_response_db()(f)).sum::<f64>() / freqs.len() as f64
        };
        assert!((mean(&with_air) - mean(&without)).abs() < 1.0);
        // but pointwise the curves differ
        let max_diff = freqs
            .iter()
            .map(|&f| (with_air.case_response_db()(f) - without.case_response_db()(f)).abs())
            .fold(0.0, f64::max);
        assert!(max_diff > 2.0);
    }

    #[test]
    fn directivity_is_zero_on_boresight_and_negative_behind() {
        let d = Device::default_rig(0);
        assert_eq!(d.directivity_db(0.0), 0.0);
        assert!(d.directivity_db(std::f64::consts::PI) < -5.0);
        let quarter = d.directivity_db(std::f64::consts::FRAC_PI_2);
        assert!(quarter < 0.0 && quarter > d.directivity_db(std::f64::consts::PI));
    }

    #[test]
    fn unit_seeds_differentiate_physical_units() {
        let a = Device::default_rig(1);
        let b = Device::default_rig(2);
        let diff: f64 = (10..45)
            .map(|k| {
                (a.tx_response_db(k as f64 * 100.0) - b.tx_response_db(k as f64 * 100.0)).abs()
            })
            .sum();
        assert!(diff > 1.0);
    }
}
