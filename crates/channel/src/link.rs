//! Directed acoustic link renderer.
//!
//! A [`Link`] turns a transmitted waveform into what a receiving device's
//! microphone records: device/case frequency responses, directivity,
//! image-method multipath, motion-induced delay change (physical Doppler),
//! ambient noise and impulsive interference.
//!
//! Two render paths: static endpoints use a precomputed multipath FIR and
//! FFT convolution; moving endpoints evaluate per-sample fractional delays
//! per path, interpolated across 10 ms blocks. Both run on the shared
//! [`PolyphaseKernel`] fractional-delay table (DESIGN.md §10): the moving
//! path through its blocked ramp evaluator (delay varies linearly within a
//! motion block, so the source index advances by a constant step), the
//! static path through polyphase tap placement when building its FIR.

use crate::device::Device;
use crate::environments::Environment;
use crate::geometry::{eigenrays_into, Eigenray, Pos};
use crate::mobility::Trajectory;
use crate::noise::NoiseGenerator;
use aqua_dsp::fir::PlannedConvolver;
use aqua_dsp::memo::Memo;
use aqua_dsp::polyphase::PolyphaseKernel;

/// Default sample rate of the modem and simulator (48 kHz, §2.3.1).
pub const SAMPLE_RATE: f64 = 48_000.0;

/// Nominal frequency used for per-path absorption (center of the modem
/// band; absorption is nearly flat across 1–4 kHz at these ranges).
const NOMINAL_FREQ_HZ: f64 = 2_500.0;

/// Keep multipath components within this factor of the strongest.
const MIN_REL_AMPLITUDE: f64 = 3e-3;
/// Maximum image order (boundary periods) enumerated.
const MAX_BOUNCE_ORDER: usize = 12;
/// Block size for time-varying rendering (10 ms at 48 kHz).
const MOTION_BLOCK: usize = 480;
/// Half-width of the fractional-delay sinc kernel used to place taps —
/// the shared polyphase table's half-width, so tap placement and moving
/// interpolation use identical kernels.
const TAP_HALF_WIDTH: usize = aqua_dsp::polyphase::SHARED_HALF_TAPS;

/// Configuration of a directed link (transmitter → receiver).
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Sample rate in Hz.
    pub fs: f64,
    /// Site environment.
    pub env: Environment,
    /// Transmitting device.
    pub tx_device: Device,
    /// Receiving device.
    pub rx_device: Device,
    /// Transmitter trajectory.
    pub tx_traj: Trajectory,
    /// Receiver trajectory.
    pub rx_traj: Trajectory,
    /// Whether to add ambient noise (disable for pure channel sounding).
    pub noise: bool,
    /// Whether to add impulsive (bubble/splash) events.
    pub impulses: bool,
    /// Seed for noise realizations.
    pub seed: u64,
}

impl LinkConfig {
    /// A default Galaxy-S9-to-Galaxy-S9 rig at the given positions in the
    /// given environment.
    pub fn s9_pair(env: Environment, tx: Pos, rx: Pos, seed: u64) -> Self {
        Self {
            fs: SAMPLE_RATE,
            env,
            tx_device: Device::default_rig(seed.wrapping_mul(3) | 1),
            rx_device: Device::default_rig(seed.wrapping_mul(7) | 2),
            tx_traj: Trajectory::fixed(tx),
            rx_traj: Trajectory::fixed(rx),
            noise: true,
            impulses: false,
            seed,
        }
    }
}

/// Bit-exact fingerprint of the geometry a cached static multipath FIR
/// was built for: both endpoint positions plus the two directivity gains
/// (everything `render_static`'s FIR depends on besides the link-constant
/// environment and seed), as raw `f64` bits. Exact-bit keying can never
/// alias two different geometries onto one cached response.
type StaticFirKey = [u64; 8];

/// A renderable directed link.
pub struct Link {
    cfg: LinkConfig,
    /// Composite device/case response as a linear-phase FIR (speaker + tx
    /// case + rx case + microphone), held in a planned convolver so its
    /// padded spectra are computed once per transmit length. Group delay
    /// is compensated at render. Applied stand-alone on the moving path;
    /// the static path folds it into the fused FIR below.
    device_conv: PlannedConvolver,
    noise_gen: NoiseGenerator,
    /// Shared fractional-delay table: blocked moving render + tap
    /// placement (process-wide, built lazily on first link).
    kernel: &'static PolyphaseKernel,
    /// Memoized static-geometry renderer: the fused device ∗ multipath
    /// FIR (one planned convolution applies both responses — half the
    /// transform work of chaining them) plus the multipath FIR's length
    /// for the output trim. Static trajectories are time-invariant, so
    /// every `transmit` after the first reuses it instead of re-deriving
    /// identical eigenray FIRs; the key guards against geometry drift.
    static_fir: Option<(StaticFirKey, PlannedConvolver, usize)>,
}

impl Link {
    /// Builds a link, precomputing the composite device response filter.
    pub fn new(cfg: LinkConfig) -> Self {
        let device_fir = design_device_fir(&cfg.tx_device, &cfg.rx_device, cfg.fs, 511);
        let noise_gen = NoiseGenerator::new(cfg.env.noise.clone(), cfg.fs, cfg.seed ^ 0x01AE);
        Self {
            cfg,
            device_conv: PlannedConvolver::new(device_fir),
            noise_gen,
            kernel: PolyphaseKernel::shared(),
            static_fir: None,
        }
    }

    /// Returns `n` samples of ambient noise as heard at the receiver with
    /// no transmission in progress — what the app records when calibrating
    /// its noise floor (carrier-sense threshold, feedback whitening).
    pub fn ambient(&mut self, n: usize) -> Vec<f64> {
        if self.cfg.noise {
            self.noise_gen.generate(n)
        } else {
            vec![0.0; n]
        }
    }

    /// Renders a transmission that starts at absolute time `t0_s`.
    ///
    /// The returned buffer is what the receiver records starting at the
    /// same instant `t0_s`: it begins with the propagation delay's silence
    /// and extends past the input by the channel's delay spread.
    pub fn transmit(&mut self, tx: &[f64], t0_s: f64) -> Vec<f64> {
        self.transmit_with_faults(tx, t0_s, None)
    }

    /// [`Self::transmit`] with an optional fault schedule: fades and
    /// blackouts attenuate the rendered **signal before noise is added**
    /// (shadowing blocks the path, not the ambient sea — see
    /// [`crate::fault`]), impulsive bursts add after it. The schedule is
    /// evaluated at `fault_t0_s + t0_s` — `fault_t0_s` maps this link's
    /// local clock onto the schedule's absolute timeline (a transfer
    /// engine passes its session clock; a schedule written in link time
    /// passes 0). With `None` this is exactly the plain transmit path.
    pub fn transmit_with_faults(
        &mut self,
        tx: &[f64],
        t0_s: f64,
        faults: Option<(&crate::fault::FaultSchedule, f64)>,
    ) -> Vec<f64> {
        if tx.is_empty() {
            return Vec::new();
        }
        let static_link = matches!(self.cfg.tx_traj, Trajectory::Static { .. })
            && matches!(self.cfg.rx_traj, Trajectory::Static { .. });
        let mut y = if static_link {
            // Device response is fused into the static multipath FIR —
            // one convolution applies both.
            self.render_static(tx, t0_s)
        } else {
            // Device/case response (LTI, applied once, cached filter
            // spectrum). The linear-phase FIR delays by (taps-1)/2; trim
            // in place to keep timing physical.
            let dev_delay = (self.device_conv.taps().len() - 1) / 2;
            let mut x = self.device_conv.convolve(tx);
            x.copy_within(dev_delay..dev_delay + tx.len(), 0);
            x.truncate(tx.len());
            self.render_moving(&x, t0_s)
        };

        if let Some((sched, fault_t0_s)) = faults {
            sched.apply_signal(&mut y, fault_t0_s + t0_s, self.cfg.fs);
        }
        if self.cfg.noise {
            let noise = self.noise_gen.generate(y.len());
            for (o, n) in y.iter_mut().zip(noise) {
                *o += n;
            }
        }
        if self.cfg.impulses && self.cfg.env.impulse_rate_hz > 0.0 {
            self.noise_gen.add_impulses(
                &mut y,
                self.cfg.env.impulse_rate_hz,
                self.cfg.env.impulse_peak,
            );
        }
        if let Some((sched, fault_t0_s)) = faults {
            sched.add_bursts(&mut y, fault_t0_s + t0_s, self.cfg.fs);
        }
        y
    }

    /// Per-bin channel gains (dB) over a frequency grid, measured by
    /// sounding the noiseless link with the geometry frozen at `t_s`.
    /// Convenience for characterization figures.
    pub fn frequency_response_db(&mut self, freqs_hz: &[f64], t_s: f64) -> Vec<f64> {
        let rays = self.rays_at(t_s);
        let (tx_gain_db, rx_gain_db) = self.directivity_at(t_s);
        freqs_hz
            .iter()
            .map(|&f| {
                // coherent sum of path phasors at frequency f
                let mut re = 0.0;
                let mut im = 0.0;
                for ray in &rays {
                    let tau = ray.delay_s(self.cfg.env.sound_speed);
                    let phi = -2.0 * std::f64::consts::PI * f * tau;
                    re += ray.amplitude * phi.cos();
                    im += ray.amplitude * phi.sin();
                }
                let multipath_db = 20.0 * (re.hypot(im)).max(1e-15).log10();
                multipath_db
                    + Device::link_response_db(&self.cfg.tx_device, &self.cfg.rx_device, f)
                    + tx_gain_db
                    + rx_gain_db
            })
            .collect()
    }

    /// RMS delay spread of the channel at time `t_s`, in seconds: the
    /// power-weighted standard deviation of path delays — the figure that
    /// justifies the receiver's 480-tap equalizer against the 67-sample CP.
    pub fn rms_delay_spread_s(&mut self, t_s: f64) -> f64 {
        let rays = self.rays_at(t_s);
        let c = self.cfg.env.sound_speed;
        let total: f64 = rays.iter().map(|r| r.amplitude * r.amplitude).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mean: f64 = rays
            .iter()
            .map(|r| r.amplitude * r.amplitude * r.delay_s(c))
            .sum::<f64>()
            / total;
        let var: f64 = rays
            .iter()
            .map(|r| {
                let d = r.delay_s(c) - mean;
                r.amplitude * r.amplitude * d * d
            })
            .sum::<f64>()
            / total;
        var.sqrt()
    }

    /// Eigenrays between speaker and microphone at time `t_s`: boundary
    /// images plus one echo per discrete far reflector (walls, pillars,
    /// boats — delays typically beyond the CP).
    fn rays_at(&self, t_s: f64) -> Vec<Eigenray> {
        let mut rays = Vec::new();
        self.rays_at_into(t_s, &mut rays);
        rays
    }

    /// [`rays_at`](Link::rays_at) into a caller-owned buffer, so the
    /// block-stepped moving render re-enumerates paths without
    /// reallocating each block.
    fn rays_at_into(&self, t_s: f64, rays: &mut Vec<Eigenray>) {
        let (txp, rxp) = self.endpoint_positions(t_s);
        eigenrays_into(
            &txp,
            &rxp,
            &self.cfg.env.boundaries,
            NOMINAL_FREQ_HZ,
            MIN_REL_AMPLITUDE,
            MAX_BOUNCE_ORDER,
            rays,
        );
        for (idx, r) in self.cfg.env.reflectors.iter().enumerate() {
            let length = txp.distance(&r.pos) + r.pos.distance(&rxp);
            let loss_db = crate::absorption::spreading_db(length)
                + crate::absorption::absorption_db(NOMINAL_FREQ_HZ, length);
            let amplitude = r.reflectivity * 10f64.powf(-loss_db / 20.0);
            rays.push(Eigenray {
                length_m: length,
                amplitude,
                surface_bounces: 0,
                bottom_bounces: 0,
                id: (5, idx),
            });
        }
        // Diffuse scattering floor: real water bodies are not a perfect
        // deterministic comb — rough boundaries and suspended matter
        // scatter a few percent of the energy at spread delays, which fills
        // the deepest interference nulls (a pure image-method channel
        // produces unphysically sharp -30 dB notches).
        if self.cfg.env.boundaries.water_depth_m.is_finite() {
            let direct_amp = rays.iter().map(|r| r.amplitude.abs()).fold(0.0, f64::max);
            let mut s = self.cfg.seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
            let mut rnd = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as f64 / u64::MAX as f64
            };
            let direct_len = rays
                .iter()
                .map(|r| r.length_m)
                .fold(f64::INFINITY, f64::min);
            for idx in 0..4 {
                let extra_m = 0.6 + 7.0 * rnd();
                let sign = if rnd() > 0.5 { 1.0 } else { -1.0 };
                let amplitude = sign * direct_amp * (0.04 + 0.06 * rnd());
                rays.push(Eigenray {
                    length_m: direct_len + extra_m,
                    amplitude,
                    surface_bounces: 0,
                    bottom_bounces: 0,
                    id: (6, idx),
                });
            }
        }
    }

    /// Speaker and microphone positions at time `t_s` (device reference
    /// position plus transducer offsets — the offsets are what break
    /// forward/backward reciprocity underwater).
    fn endpoint_positions(&self, t_s: f64) -> (Pos, Pos) {
        let tp = self.cfg.tx_traj.position(t_s);
        let rp = self.cfg.rx_traj.position(t_s);
        let so = self.cfg.tx_device.speaker_offset();
        let mo = self.cfg.rx_device.mic_offset();
        (
            Pos::new(tp.x + so.0, tp.y + so.1, (tp.depth + so.2).max(0.02)),
            Pos::new(rp.x + mo.0, rp.y + mo.1, (rp.depth + mo.2).max(0.02)),
        )
    }

    /// Directivity gains (dB) for transmitter and receiver at time `t_s`,
    /// from the angle between each device's boresight and the line between
    /// them.
    fn directivity_at(&self, t_s: f64) -> (f64, f64) {
        let (txp, rxp) = self.endpoint_positions(t_s);
        let bearing_tx_to_rx = (rxp.y - txp.y).atan2(rxp.x - txp.x);
        let tx_angle = angle_diff(self.cfg.tx_traj.azimuth(t_s), bearing_tx_to_rx);
        let rx_angle = angle_diff(
            self.cfg.rx_traj.azimuth(t_s),
            (txp.y - rxp.y).atan2(txp.x - rxp.x),
        );
        (
            self.cfg.tx_device.directivity_db(tx_angle),
            self.cfg.rx_device.directivity_db(rx_angle),
        )
    }

    /// Static render: fused device ∗ multipath FIR + one FFT convolution.
    /// The multipath FIR depends only on geometry (time-invariant for
    /// static trajectories), so the fused filter is memoized under a
    /// bit-exact geometry key and its padded spectra are cached by the
    /// planned convolver — repeated transmits skip the eigenray
    /// re-derivation, both filters' forward transforms, and a whole
    /// forward/inverse transform pair per call relative to chaining the
    /// device and multipath convolutions (linear convolution is
    /// associative; the fused output matches the chained one to FFT
    /// rounding).
    fn render_static(&mut self, x: &[f64], t0_s: f64) -> Vec<f64> {
        let (txp, rxp) = self.endpoint_positions(t0_s);
        let (txd, rxd) = self.directivity_at(t0_s);
        let key: StaticFirKey = [
            txp.x.to_bits(),
            txp.y.to_bits(),
            txp.depth.to_bits(),
            rxp.x.to_bits(),
            rxp.y.to_bits(),
            rxp.depth.to_bits(),
            txd.to_bits(),
            rxd.to_bits(),
        ];
        if self.static_fir.as_ref().map(|(k, _, _)| *k) != Some(key) {
            let rays = self.rays_at(t0_s);
            let gain = 10f64.powf((txd + rxd) / 20.0);
            let fs = self.cfg.fs;
            let c = self.cfg.env.sound_speed;
            let max_delay = rays.iter().map(|r| r.delay_s(c)).fold(0.0, f64::max);
            let fir_len = (max_delay * fs).ceil() as usize + 2 * TAP_HALF_WIDTH + 2;
            let mut fir = vec![0.0; fir_len];
            for ray in &rays {
                let pos = ray.delay_s(c) * fs + TAP_HALF_WIDTH as f64;
                add_fractional_tap(&mut fir, pos, ray.amplitude * gain);
            }
            let fused = aqua_dsp::fir::fft_convolve(self.device_conv.taps(), &fir);
            self.static_fir = Some((key, PlannedConvolver::new(fused), fir_len));
        }
        let (_, conv, fir_len) = self.static_fir.as_ref().unwrap();
        let mut full = conv.convolve(x);
        // compensate the device FIR's group delay and the fractional-tap
        // kernel's TAP_HALF_WIDTH offset, in place
        let dev_delay = (self.device_conv.taps().len() - 1) / 2;
        let skip = dev_delay + TAP_HALF_WIDTH;
        let out_len = x.len() + fir_len - TAP_HALF_WIDTH - 1;
        full.copy_within(skip..skip + out_len, 0);
        full.truncate(out_len);
        full
    }

    /// Moving render: block-interpolated per-path fractional delays on the
    /// shared polyphase table. Within a block each path's delay and gain
    /// vary linearly, so output sample `j = block_start + i` reads the
    /// source at `src0 + i·src_step` — exactly the contract of
    /// [`PolyphaseKernel::accumulate_ramp`], which turns the inner loop
    /// into contiguous-window dot products (no transcendentals, no per-tap
    /// bounds checks; packet fade-in/out falls back to the slow exact
    /// path). The two eigenray buffers are reused across blocks
    /// (ping-ponged by swap), and end-of-block rays are matched by identity
    /// through a sorted index instead of a per-ray linear scan.
    fn render_moving(&mut self, x: &[f64], t0_s: f64) -> Vec<f64> {
        let fs = self.cfg.fs;
        let c = self.cfg.env.sound_speed;
        // Bound output length by worst-case delay across the transmission.
        let mut rays_a = Vec::new();
        let mut rays_b = Vec::new();
        self.rays_at_into(t0_s + x.len() as f64 / fs, &mut rays_b); // end
        self.rays_at_into(t0_s, &mut rays_a); // start
        let max_delay = rays_a
            .iter()
            .chain(rays_b.iter())
            .map(|r| r.delay_s(c))
            .fold(0.0, f64::max);
        let out_len = x.len() + (max_delay * fs).ceil() as usize + 2 * TAP_HALF_WIDTH + 2;
        let mut y = vec![0.0; out_len];

        // Sorted (id → index) view of `rays_b`, rebuilt per block: one
        // O(p log p) sort + O(log p) lookups replaces the O(p²) per-block
        // `iter().find(id)` of the per-sample renderer.
        let mut idx_b: Vec<((u8, usize), usize)> = Vec::new();
        let mut block_start = 0usize;
        let mut dir_a = self.directivity_at(t0_s);
        while block_start < out_len {
            let block_len = MOTION_BLOCK.min(out_len - block_start);
            let t_end = t0_s + (block_start + block_len) as f64 / fs;
            self.rays_at_into(t_end, &mut rays_b);
            let dir_b = self.directivity_at(t_end);
            let gain_a = 10f64.powf((dir_a.0 + dir_a.1) / 20.0);
            let gain_b = 10f64.powf((dir_b.0 + dir_b.1) / 20.0);

            idx_b.clear();
            idx_b.extend(rays_b.iter().enumerate().map(|(i, r)| (r.id, i)));
            idx_b.sort_unstable_by_key(|&(id, _)| id);

            let out = &mut y[block_start..block_start + block_len];
            for ray_a in &rays_a {
                // match this path at the end of the block by identity
                let Ok(found) = idx_b.binary_search_by_key(&ray_a.id, |&(id, _)| id) else {
                    continue;
                };
                let ray_b = &rays_b[idx_b[found].1];
                let d0 = ray_a.delay_s(c) * fs;
                let d1 = ray_b.delay_s(c) * fs;
                let a0 = ray_a.amplitude * gain_a;
                let a1 = ray_b.amplitude * gain_b;
                // src(i) = (block_start + i) − (d0 + (d1−d0)·i/len)
                let src0 = block_start as f64 - d0;
                let src_step = 1.0 - (d1 - d0) / block_len as f64;
                let amp_step = (a1 - a0) / block_len as f64;
                self.kernel
                    .accumulate_ramp(x, src0, src_step, a0, amp_step, out);
            }
            std::mem::swap(&mut rays_a, &mut rays_b);
            dir_a = dir_b;
            block_start += block_len;
        }
        y
    }
}

/// Smallest absolute angular difference.
fn angle_diff(a: f64, b: f64) -> f64 {
    let mut d = (a - b) % std::f64::consts::TAU;
    if d > std::f64::consts::PI {
        d -= std::f64::consts::TAU;
    }
    if d < -std::f64::consts::PI {
        d += std::f64::consts::TAU;
    }
    d.abs()
}

/// Adds a windowed-sinc fractional-delay tap of weight `amp` centered at
/// fractional index `pos` into `fir`, through the shared polyphase table
/// (same kernel the moving render interpolates with).
fn add_fractional_tap(fir: &mut [f64], pos: f64, amp: f64) {
    PolyphaseKernel::shared().add_tap(fir, pos, amp);
}

/// Designs a linear-phase FIR approximating the combined device magnitude
/// response (frequency-sampling method: sample |H(f)| on a dense grid,
/// Hermitian inverse real FFT, center, window).
///
/// The design is a pure function of the two devices, the sample rate and
/// the tap count, and a trial constructs two links per packet — so the
/// result is memoized once per process under a bit-exact key (like the
/// static multipath FIR, DESIGN.md §9): re-running with unchanged inputs
/// (e.g. the per-bitrate link rebuilds of `fig12d`, repeated benches, or a
/// pool worker that starts mid-series) skips the 1025-bin response sweep
/// and the inverse transform entirely.
pub fn design_device_fir(tx: &Device, rx: &Device, fs: f64, taps: usize) -> Vec<f64> {
    static FIRS: Memo<(Device, Device, u64, usize), Vec<f64>> = Memo::new();
    let key = (*tx, *rx, fs.to_bits(), taps);
    Vec::clone(&FIRS.get(key, || design_device_fir_uncached(tx, rx, fs, taps)))
}

/// The uncached FIR design behind [`design_device_fir`].
fn design_device_fir_uncached(tx: &Device, rx: &Device, fs: f64, taps: usize) -> Vec<f64> {
    use aqua_dsp::complex::Complex;
    use aqua_dsp::fft::real_planner;
    let n = 2048usize;
    let plan = real_planner(n);
    // The sampled magnitude response is real and even — exactly a
    // Hermitian half-spectrum, so the mirror half is never materialized.
    // The grid sweep shares the model-level response across the process.
    let freqs: Vec<f64> = (0..=n / 2)
        .map(|k| (k as f64 * fs / n as f64).max(10.0))
        .collect();
    let half_spec: Vec<Complex> = Device::link_response_db_grid(tx, rx, &freqs)
        .into_iter()
        .map(|db| Complex::real(10f64.powf(db / 20.0)))
        .collect();
    let impulse = plan.inverse_half(&half_spec);
    // center the impulse response and window it
    let half = taps / 2;
    let mut fir = vec![0.0; taps];
    for (i, tap) in fir.iter_mut().enumerate() {
        let idx = (i as isize - half as isize).rem_euclid(n as isize) as usize;
        let w = aqua_dsp::window::Window::Hann.value(i, taps);
        *tap = impulse[idx] * w;
    }
    fir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environments::{Environment, Site};
    use aqua_dsp::chirp::{linear_chirp, tone};
    use aqua_dsp::goertzel::goertzel_power;

    fn quiet_cfg(dist: f64) -> LinkConfig {
        let mut cfg = LinkConfig::s9_pair(
            Environment::preset(Site::Bridge),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(dist, 0.0, 1.0),
            42,
        );
        cfg.noise = false;
        cfg
    }

    #[test]
    fn transmission_arrives_after_propagation_delay() {
        let mut link = Link::new(quiet_cfg(7.5));
        let tx = tone(2000.0, 4800, SAMPLE_RATE);
        let rx = link.transmit(&tx, 0.0);
        // delay = 7.5 m / 1500 m/s = 5 ms = 240 samples
        let energy_before: f64 = rx[..180].iter().map(|v| v * v).sum();
        let energy_after: f64 = rx[260..1000].iter().map(|v| v * v).sum();
        assert!(energy_after > 100.0 * energy_before.max(1e-30));
    }

    #[test]
    fn received_level_decreases_with_distance() {
        let rms = |dist: f64| -> f64 {
            let mut link = Link::new(quiet_cfg(dist));
            let tx = tone(2000.0, 9600, SAMPLE_RATE);
            let rx = link.transmit(&tx, 0.0);
            (rx.iter().map(|v| v * v).sum::<f64>() / rx.len() as f64).sqrt()
        };
        let r5 = rms(5.0);
        let r20 = rms(20.0);
        assert!(r5 > 2.0 * r20, "5 m rms {r5}, 20 m rms {r20}");
    }

    #[test]
    fn frequency_response_shows_multipath_notches() {
        let mut link = Link::new(quiet_cfg(10.0));
        let freqs: Vec<f64> = (20..80).map(|k| k as f64 * 50.0).collect();
        let resp = link.frequency_response_db(&freqs, 0.0);
        let max = resp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = resp.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min > 8.0,
            "expected notches, swing only {}",
            max - min
        );
    }

    #[test]
    fn forward_and_backward_responses_differ_underwater() {
        // Fig. 3d: speaker/mic offsets sample different points of the
        // interference pattern.
        let env = Environment::preset(Site::Lake);
        let a = Pos::new(0.0, 0.0, 1.0);
        let b = Pos::new(2.0, 0.0, 1.0);
        let mut fwd = Link::new(LinkConfig {
            noise: false,
            ..LinkConfig::s9_pair(env.clone(), a, b, 10)
        });
        let mut cfg_back = LinkConfig::s9_pair(env, b, a, 10);
        cfg_back.noise = false;
        // swap devices so it's the same physical pair reversed
        std::mem::swap(&mut cfg_back.tx_device, &mut cfg_back.rx_device);
        let mut back = Link::new(cfg_back);
        let freqs: Vec<f64> = (20..60).map(|k| k as f64 * 50.0).collect();
        let rf = fwd.frequency_response_db(&freqs, 0.0);
        let rb = back.frequency_response_db(&freqs, 0.0);
        let mean_abs_diff: f64 =
            rf.iter().zip(&rb).map(|(x, y)| (x - y).abs()).sum::<f64>() / rf.len() as f64;
        assert!(
            mean_abs_diff > 1.5,
            "forward/backward too similar: {mean_abs_diff}"
        );
    }

    #[test]
    fn air_is_more_reciprocal_than_water() {
        let pos_a = Pos::new(0.0, 0.0, 1.0);
        let pos_b = Pos::new(2.0, 0.0, 1.0);
        let diff_for = |site: Site| -> f64 {
            let env = Environment::preset(site);
            let mut cfg_f = LinkConfig::s9_pair(env.clone(), pos_a, pos_b, 5);
            cfg_f.noise = false;
            let mut cfg_b = LinkConfig::s9_pair(env, pos_b, pos_a, 5);
            cfg_b.noise = false;
            std::mem::swap(&mut cfg_b.tx_device, &mut cfg_b.rx_device);
            let mut fwd = Link::new(cfg_f);
            let mut back = Link::new(cfg_b);
            let freqs: Vec<f64> = (20..60).map(|k| k as f64 * 50.0).collect();
            let rf = fwd.frequency_response_db(&freqs, 0.0);
            let rb = back.frequency_response_db(&freqs, 0.0);
            rf.iter().zip(&rb).map(|(x, y)| (x - y).abs()).sum::<f64>() / rf.len() as f64
        };
        assert!(diff_for(Site::Air) < diff_for(Site::Lake));
    }

    #[test]
    fn noise_is_added_when_enabled() {
        let mut cfg = quiet_cfg(5.0);
        cfg.noise = true;
        let mut link = Link::new(cfg);
        let rx = link.transmit(&vec![0.0; 4800], 0.0);
        let rms = (rx.iter().map(|v| v * v).sum::<f64>() / rx.len() as f64).sqrt();
        assert!(rms > 1e-4, "noise floor missing: {rms}");
    }

    #[test]
    fn moving_link_produces_doppler_shift() {
        // Transmitter swims toward the receiver: tone should arrive
        // slightly high. Use a constant-velocity-ish oscillation segment.
        let env = Environment::preset(Site::Air); // single path isolates Doppler
        let mut cfg =
            LinkConfig::s9_pair(env, Pos::new(0.0, 0.0, 1.0), Pos::new(30.0, 0.0, 1.0), 3);
        cfg.noise = false;
        cfg.tx_traj = Trajectory::Oscillating {
            base: Pos::new(0.0, 0.0, 1.0),
            azimuth: 0.0,
            rms_accel: 5.1,
            seed: 77,
        };
        let mut link = Link::new(cfg);
        let tx = tone(2000.0, 48000, SAMPLE_RATE);
        let rx = link.transmit(&tx, 0.0);
        // Doppler spreads energy off the carrier: compare total power near
        // the carrier (±20 Hz) in moving vs static case.
        let window = &rx[10000..40000];
        let on = goertzel_power(window, 2000.0, SAMPLE_RATE);
        let off = goertzel_power(window, 2012.0, SAMPLE_RATE)
            + goertzel_power(window, 1988.0, SAMPLE_RATE);
        // moving: sidebands contain non-trivial energy
        assert!(off > on * 1e-4, "no spectral spread: on {on} off {off}");
    }

    #[test]
    fn device_fir_matches_requested_response_in_band() {
        let tx = Device::default_rig(1);
        let rx = Device::default_rig(2);
        let fir = design_device_fir(&tx, &rx, SAMPLE_RATE, 511);
        for f in [1200.0, 2000.0, 3000.0, 3800.0] {
            let got = aqua_dsp::fir::freq_response_db(&fir, f, SAMPLE_RATE);
            let want = Device::link_response_db(&tx, &rx, f);
            assert!((got - want).abs() < 3.0, "f {f}: got {got} want {want}");
        }
    }

    #[test]
    fn chirp_sounding_recovers_band_shape() {
        let mut link = Link::new(quiet_cfg(5.0));
        let tx = linear_chirp(1000.0, 5000.0, 0.5, SAMPLE_RATE);
        let rx = link.transmit(&tx, 0.0);
        assert!(rx.len() >= tx.len());
        let e: f64 = rx.iter().map(|v| v * v).sum();
        assert!(e > 0.0);
    }

    #[test]
    fn empty_transmission_yields_empty_output() {
        let mut link = Link::new(quiet_cfg(5.0));
        assert!(link.transmit(&[], 0.0).is_empty());
    }

    #[test]
    fn delay_spread_exceeds_cp_in_reflector_rich_sites() {
        // The motivation for the 480-tap equalizer: the lake's dock
        // wall/pillar echoes spread the channel past the 67-sample
        // (1.4 ms) cyclic prefix.
        let mut cfg = LinkConfig::s9_pair(
            Environment::preset(Site::Lake),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(10.0, 0.0, 1.0),
            3,
        );
        cfg.noise = false;
        let mut lake = Link::new(cfg);
        let spread = lake.rms_delay_spread_s(0.0);
        assert!(
            spread > 67.0 / 48000.0,
            "lake RMS delay spread {:.2} ms should exceed the 1.4 ms CP",
            spread * 1e3
        );
        // and the beach (no reflectors, shallow) is tighter
        let mut cfg2 = LinkConfig::s9_pair(
            Environment::preset(Site::Beach),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(10.0, 0.0, 1.0),
            3,
        );
        cfg2.noise = false;
        let mut beach = Link::new(cfg2);
        assert!(beach.rms_delay_spread_s(0.0) < spread);
    }
}
