//! Deterministic fault injection: time-varying link impairments layered
//! on top of the physical channel model (DESIGN.md §13).
//!
//! The link renderer models a *stationary* channel: geometry, device
//! responses and the ambient noise statistics are fixed for the duration
//! of a run. Real deployments are not stationary — a boat crosses the
//! acoustic path (a hard blackout), a swimmer or thermal front shadows it
//! (a slow fade), snapping shrimp pepper the band with amplitude spikes.
//! A [`FaultSchedule`] describes such transients on an absolute timeline,
//! fully determined at construction from explicit windows and a seed, so
//! every run — and every retransmission within a run — sees the identical
//! impairment sequence.
//!
//! Faults apply at a precise point in the render pipeline: fades and
//! blackouts attenuate the **signal before ambient noise is added**
//! (shadowing blocks the acoustic path, not the sea around the receiver —
//! attenuating signal and noise together would leave the SNR unchanged
//! and make a fade a decode no-op), while impulsive bursts add on top of
//! the final received waveform like the environment's own impulses. The
//! zero-fault path is byte-for-byte the plain
//! [`Link::transmit`](crate::link::Link::transmit) code: passing no
//! schedule changes nothing, which the determinism suite pins.

/// One hard blackout: the acoustic path carries nothing in `[t0_s, t1_s)`.
/// Ambient noise persists — the receiver hears the sea, just not the
/// transmitter.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Blackout {
    /// Start of the outage (absolute seconds).
    t0_s: f64,
    /// End of the outage (absolute seconds, exclusive).
    t1_s: f64,
}

/// One slow shadowing fade: signal attenuation ramps linearly from 0 dB
/// at `t0_s` up to `depth_db` over `ramp_s`, holds, and ramps back down
/// to end at `t1_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fade {
    /// Fade onset (absolute seconds).
    t0_s: f64,
    /// Fade end (absolute seconds).
    t1_s: f64,
    /// Plateau attenuation in dB (positive = loss).
    depth_db: f64,
    /// Ramp duration at each edge, seconds.
    ramp_s: f64,
}

impl Fade {
    /// Attenuation in dB at time `t_s` (0 outside the fade window).
    fn depth_at_db(&self, t_s: f64) -> f64 {
        if t_s < self.t0_s || t_s >= self.t1_s {
            return 0.0;
        }
        let ramp = self.ramp_s.max(1e-9);
        let up = ((t_s - self.t0_s) / ramp).min(1.0);
        let down = ((self.t1_s - t_s) / ramp).min(1.0);
        self.depth_db * up.min(down)
    }
}

/// One impulsive burst: a snapping-shrimp-style click — an amplitude
/// spike with an exponential decay envelope over wideband pseudo-noise.
/// The click waveform is a pure function of the burst's own seed, so a
/// burst straddling two transmit buffers renders the identical samples
/// into each.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Burst {
    /// Click onset (absolute seconds).
    t_s: f64,
    /// Peak amplitude of the click envelope.
    peak: f64,
    /// Envelope decay constant in samples (click length ≈ 8 decays).
    decay_samples: f64,
    /// Per-burst waveform seed.
    seed: u64,
}

/// Envelope decays rendered before a click is considered over.
const BURST_DECAYS: f64 = 8.0;

/// A deterministic schedule of link impairments on an absolute timeline.
///
/// Built once from explicit windows plus seeded trains; two schedules
/// constructed with the same calls and seed are `==` (and render
/// bit-identical impairments), which the determinism tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    blackouts: Vec<Blackout>,
    fades: Vec<Fade>,
    bursts: Vec<Burst>,
    /// Builder RNG state for seeded trains (splitmix64 sequence).
    rng_state: u64,
}

impl FaultSchedule {
    /// An empty schedule with the given seed for subsequently added
    /// seeded trains. An empty schedule injects nothing.
    pub fn seeded(seed: u64) -> Self {
        Self {
            blackouts: Vec::new(),
            fades: Vec::new(),
            bursts: Vec::new(),
            rng_state: seed,
        }
    }

    /// True when the schedule contains no impairments at all.
    pub fn is_empty(&self) -> bool {
        self.blackouts.is_empty() && self.fades.is_empty() && self.bursts.is_empty()
    }

    /// Adds a hard blackout of `dur_s` seconds starting at `t0_s`.
    pub fn with_blackout(mut self, t0_s: f64, dur_s: f64) -> Self {
        self.blackouts.push(Blackout {
            t0_s,
            t1_s: t0_s + dur_s,
        });
        self
    }

    /// Adds a shadowing fade: `depth_db` of attenuation between `t0_s`
    /// and `t0_s + dur_s`, with `ramp_s` linear ramps at both edges.
    pub fn with_fade(mut self, t0_s: f64, dur_s: f64, depth_db: f64, ramp_s: f64) -> Self {
        self.fades.push(Fade {
            t0_s,
            t1_s: t0_s + dur_s,
            depth_db,
            ramp_s,
        });
        self
    }

    /// Adds a seeded train of impulsive bursts over `[t0_s, t1_s)` with
    /// exponentially distributed inter-arrival times at `rate_hz` and the
    /// given peak amplitude — the snapping-shrimp model. Arrival times,
    /// decay constants and click waveforms all derive from the schedule
    /// seed, so the train is identical on every run.
    pub fn with_burst_train(mut self, t0_s: f64, t1_s: f64, rate_hz: f64, peak: f64) -> Self {
        if rate_hz <= 0.0 || t1_s <= t0_s {
            return self;
        }
        let mut t = t0_s;
        loop {
            let u = Self::unit(self.next_u64()).max(1e-12);
            t += -u.ln() / rate_hz;
            if t >= t1_s {
                break;
            }
            let seed = self.next_u64();
            let decay = 20.0 + 100.0 * Self::unit(seed ^ 0x5EED);
            self.bursts.push(Burst {
                t_s: t,
                peak,
                decay_samples: decay,
                seed,
            });
        }
        self
    }

    /// Applies fades and blackouts to a **pre-noise** signal buffer whose
    /// sample 0 corresponds to absolute time `t0_s`. Regions outside any
    /// impairment window are left untouched (bit-identical).
    pub fn apply_signal(&self, y: &mut [f64], t0_s: f64, fs: f64) {
        if y.is_empty() {
            return;
        }
        let len = y.len();
        let span = move |a: f64, b: f64| -> (usize, usize) {
            let i0 = ((a - t0_s) * fs).ceil().max(0.0) as usize;
            let i1 = (((b - t0_s) * fs).ceil().max(0.0) as usize).min(len);
            (i0.min(len), i1)
        };
        for f in &self.fades {
            let (i0, i1) = span(f.t0_s, f.t1_s);
            for (i, v) in y[i0..i1].iter_mut().enumerate() {
                let db = f.depth_at_db(t0_s + (i0 + i) as f64 / fs);
                if db != 0.0 {
                    *v *= 10f64.powf(-db / 20.0);
                }
            }
        }
        for b in &self.blackouts {
            let (i0, i1) = span(b.t0_s, b.t1_s);
            y[i0..i1].fill(0.0);
        }
    }

    /// Adds impulsive bursts to a **post-noise** received buffer whose
    /// sample 0 corresponds to absolute time `t0_s`. A burst straddling
    /// the buffer edge contributes exactly the samples that fall inside.
    pub fn add_bursts(&self, y: &mut [f64], t0_s: f64, fs: f64) {
        if y.is_empty() {
            return;
        }
        let t_end = t0_s + y.len() as f64 / fs;
        for b in &self.bursts {
            let click_len = (b.decay_samples * BURST_DECAYS).ceil() as usize;
            let b_end = b.t_s + click_len as f64 / fs;
            if b.t_s >= t_end || b_end <= t0_s {
                continue;
            }
            let start = ((b.t_s - t0_s) * fs).round() as i64;
            let mut s = b.seed | 1;
            for j in 0..click_len as i64 {
                // xorshift64 — drawn for every click sample so the
                // waveform is identical regardless of buffer alignment
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let idx = start + j;
                if idx < 0 || idx >= y.len() as i64 {
                    continue;
                }
                let u = s as f64 / u64::MAX as f64;
                let env = (-(j as f64) / b.decay_samples).exp();
                y[idx as usize] += b.peak * env * (2.0 * u - 1.0);
            }
        }
    }

    /// splitmix64 step on the builder state.
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        rand::mix64(self.rng_state)
    }

    /// Uniform in [0, 1) from a 64-bit value.
    fn unit(v: u64) -> f64 {
        (v >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultSchedule {
        /// Adds one explicit impulsive burst at `t_s` with the given peak.
        fn with_burst(mut self, t_s: f64, peak: f64) -> Self {
            let seed = self.next_u64();
            let decay = 20.0 + 100.0 * Self::unit(seed ^ 0x5EED);
            self.bursts.push(Burst {
                t_s,
                peak,
                decay_samples: decay,
                seed,
            });
            self
        }

        /// True when `[t0_s, t1_s)` overlaps any blackout window.
        fn blackout_overlaps(&self, t0_s: f64, t1_s: f64) -> bool {
            self.blackouts
                .iter()
                .any(|b| t0_s < b.t1_s && t1_s > b.t0_s)
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let build = || {
            FaultSchedule::seeded(99)
                .with_burst_train(0.0, 30.0, 2.0, 1.5)
                .with_fade(5.0, 4.0, 12.0, 1.0)
                .with_blackout(12.0, 3.0)
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same seed must produce an identical schedule");
        assert!(!a.is_empty());
        assert!(!a.bursts.is_empty(), "2 Hz over 30 s draws bursts");
    }

    #[test]
    fn different_seed_different_train() {
        let a = FaultSchedule::seeded(1).with_burst_train(0.0, 50.0, 1.0, 1.0);
        let b = FaultSchedule::seeded(2).with_burst_train(0.0, 50.0, 1.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn blackout_zeroes_exactly_its_window() {
        let sched = FaultSchedule::seeded(0).with_blackout(1.0, 0.5);
        let fs = 1000.0;
        let mut y = vec![1.0; 2000]; // 2 s from t=0
        sched.apply_signal(&mut y, 0.0, fs);
        assert_eq!(y[999], 1.0, "just before the blackout");
        assert_eq!(y[1000], 0.0, "first blacked-out sample");
        assert_eq!(y[1499], 0.0, "last blacked-out sample");
        assert_eq!(y[1500], 1.0, "just after the blackout");
        assert_eq!(y[1200], 0.0, "inside the blackout");
        assert!(sched.blackout_overlaps(1.4, 9.0));
        assert!(!sched.blackout_overlaps(1.5, 9.0));
    }

    #[test]
    fn fade_ramps_and_holds() {
        let sched = FaultSchedule::seeded(0).with_fade(10.0, 10.0, 20.0, 2.0);
        let fs = 1000.0;
        let mut y = vec![1.0; 25_000]; // 25 s from t=0
        sched.apply_signal(&mut y, 0.0, fs);
        assert_eq!(y[9_900], 1.0, "before the fade");
        let mid = y[15_000]; // plateau: -20 dB
        assert!((mid - 0.1).abs() < 1e-12, "plateau gain {mid}");
        let edge = y[11_000]; // half-way up the ramp
        assert!((edge - 10f64.powf(-0.5)).abs() < 1e-12);
        assert_eq!(y[20_000], 1.0, "after the fade");
    }

    #[test]
    fn empty_schedule_is_a_no_op() {
        let sched = FaultSchedule::seeded(7);
        let fs = 48_000.0;
        let orig: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut y = orig.clone();
        sched.apply_signal(&mut y, 3.0, fs);
        sched.add_bursts(&mut y, 3.0, fs);
        assert_eq!(y, orig, "empty schedule must not touch a single bit");
    }

    #[test]
    fn burst_waveform_is_buffer_alignment_invariant() {
        // Render the same burst into two buffers with different start
        // times; the overlapping samples must agree exactly.
        let sched = FaultSchedule::seeded(3).with_burst(1.0, 2.0);
        let fs = 48_000.0;
        let mut a = vec![0.0; 48_000]; // covers [0.5, 1.5)
        sched.add_bursts(&mut a, 0.5, fs);
        let mut b = vec![0.0; 48_000]; // covers [0.9, 1.9)
        sched.add_bursts(&mut b, 0.9, fs);
        // burst starts at t=1.0: sample 24000 in a, sample 4800 in b
        let wa = &a[24_000..28_000];
        let wb = &b[4_800..8_800];
        assert_eq!(wa, wb, "click must not depend on buffer alignment");
        assert!(wa.iter().any(|&v| v.abs() > 0.5), "click has energy");
    }
}
