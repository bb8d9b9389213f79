//! Property-based tests on the DSP substrate's invariants.

use aqua_dsp::complex::Complex;
use aqua_dsp::correlate::{xcorr_valid, xcorr_valid_fft};
use aqua_dsp::fft::{planner, Fft, RealFft};
use aqua_dsp::fir::{convolve, fft_convolve, PlannedConvolver};
use aqua_dsp::goertzel::goertzel;
use aqua_dsp::stats::{percentile, qfunc};
use aqua_dsp::window::Window;
use proptest::prelude::*;

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, 1..max_len)
}

/// Whether the FFT plans length `n`: no prime factor above 5.
fn plannable(mut n: usize) -> bool {
    for p in [2, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// Uniform draws from a fixed list of lengths.
struct Lengths(Vec<usize>);

impl Strategy for Lengths {
    type Value = usize;
    fn sample(&self, rng: &mut TestRng) -> usize {
        self.0[(0..self.0.len()).sample(rng)]
    }
}

/// The lengths in `range` that the complex FFT plans.
fn fft_len(range: std::ops::Range<usize>) -> Lengths {
    Lengths(range.filter(|&n| plannable(n)).collect())
}

/// Random signals whose length is drawn from `Lengths`.
struct SignalOf(Lengths);

impl Strategy for SignalOf {
    type Value = Vec<f64>;
    fn sample(&self, rng: &mut TestRng) -> Vec<f64> {
        let n = self.0.sample(rng);
        proptest::collection::vec(-1.0f64..1.0, n).sample(rng)
    }
}

/// Random signals shorter than `max_len` whose length the real FFT plans:
/// even, with no prime factor above 5.
fn real_fft_signal(max_len: usize) -> SignalOf {
    SignalOf(Lengths(
        (2..max_len).step_by(2).filter(|&n| plannable(n)).collect(),
    ))
}

/// The full spectrum of a real signal by the complex FFT: the oracle the
/// half-spectrum real path must match on bins `0..=n/2`.
fn complex_oracle(x: &[f64]) -> Vec<Complex> {
    let mut spec: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
    planner(x.len()).forward(&mut spec);
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FFT is linear: F(a·x + y) = a·F(x) + F(y).
    #[test]
    fn fft_linearity(len in fft_len(2..128), a in -3.0f64..3.0, seed in 0u64..100) {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let x: Vec<Complex> = (0..len).map(|_| Complex::new(rnd(), rnd())).collect();
        let y: Vec<Complex> = (0..len).map(|_| Complex::new(rnd(), rnd())).collect();
        let plan = Fft::new(len);
        let mut fx = x.clone();
        let mut fy = y.clone();
        plan.forward(&mut fx);
        plan.forward(&mut fy);
        let mut combined: Vec<Complex> = x.iter().zip(&y).map(|(p, q)| p.scale(a) + *q).collect();
        plan.forward(&mut combined);
        for k in 0..len {
            let want = fx[k].scale(a) + fy[k];
            prop_assert!((combined[k] - want).abs() < 1e-7 * len as f64);
        }
    }

    /// Parseval: time-domain and frequency-domain energies agree. On the
    /// half spectrum every bin but 0 and n/2 also stands for its mirror.
    #[test]
    fn fft_parseval(x in real_fft_signal(256)) {
        let n = x.len();
        let spec = RealFft::new(n).forward_half(&x);
        let et: f64 = x.iter().map(|v| v * v).sum();
        let mirrored = |k: usize| if k == 0 || 2 * k == n { 1.0 } else { 2.0 };
        let ef: f64 = spec
            .iter()
            .enumerate()
            .map(|(k, c)| mirrored(k) * c.norm_sqr())
            .sum::<f64>()
            / n as f64;
        prop_assert!((et - ef).abs() <= 1e-8 * et.max(1.0));
    }

    /// Real-signal spectra are Hermitian-symmetric: each half-spectrum bin
    /// is the conjugate of the full spectrum's mirrored bin.
    #[test]
    fn fft_real_hermitian(x in real_fft_signal(128)) {
        let half = RealFft::new(x.len()).forward_half(&x);
        let full = complex_oracle(&x);
        let n = x.len();
        prop_assert!(half[0].im.abs() < 1e-8 * n as f64);
        for k in 1..half.len() {
            let a = half[k];
            let b = full[n - k].conj();
            prop_assert!((a - b).abs() < 1e-8 * n as f64);
        }
    }

    /// Convolution is commutative and FFT convolution matches direct.
    #[test]
    fn convolution_properties(x in signal_strategy(64), h in signal_strategy(32)) {
        let a = convolve(&x, &h);
        let b = convolve(&h, &x);
        let c = fft_convolve(&x, &h);
        prop_assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            prop_assert!((a[i] - b[i]).abs() < 1e-9);
            prop_assert!((a[i] - c[i]).abs() < 1e-6);
        }
    }

    /// The planned convolver is bit-identical to `fft_convolve` and agrees
    /// with naive convolution, at arbitrary (odd, prime, mismatched)
    /// lengths. One convolver instance serves every input length.
    #[test]
    fn planned_convolver_equivalences(x in signal_strategy(97), h in signal_strategy(41)) {
        let planned_filter = PlannedConvolver::new(h.clone());
        let planned = planned_filter.convolve(&x);
        let fft = fft_convolve(&x, &h);
        let naive = convolve(&x, &h);
        prop_assert_eq!(planned.len(), fft.len());
        prop_assert_eq!(planned.len(), naive.len());
        for i in 0..planned.len() {
            prop_assert_eq!(planned[i].to_bits(), fft[i].to_bits(),
                "bit mismatch vs fft_convolve at {} (x {}, h {})", i, x.len(), h.len());
            prop_assert!((planned[i] - naive[i]).abs() < 1e-6);
        }
        // second call through the now-warm spectrum cache: still identical
        let again = planned_filter.convolve(&x);
        for i in 0..planned.len() {
            prop_assert_eq!(again[i].to_bits(), planned[i].to_bits());
        }
    }

    /// Planned convolution of an empty input (either side) is empty, like
    /// the free functions.
    #[test]
    fn planned_convolver_empty_inputs(h in signal_strategy(16)) {
        prop_assert!(PlannedConvolver::new(h.clone()).convolve(&[]).is_empty());
        prop_assert!(PlannedConvolver::new(Vec::new()).convolve(&h).is_empty());
        prop_assert!(fft_convolve(&[], &h).is_empty());
    }

    /// FFT cross-correlation equals the direct form.
    #[test]
    fn xcorr_fft_matches_direct(x in signal_strategy(128), t_len in 1usize..32) {
        prop_assume!(x.len() >= t_len);
        let template: Vec<f64> = x.iter().take(t_len).map(|v| v * 0.7 + 0.1).collect();
        let a = xcorr_valid(&x, &template);
        let b = xcorr_valid_fft(&x, &template);
        prop_assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            prop_assert!((a[i] - b[i]).abs() < 1e-6);
        }
    }

    /// Goertzel at an exact bin frequency matches the FFT bin.
    #[test]
    fn goertzel_matches_fft_bin(x in real_fft_signal(200), bin_frac in 0.05f64..0.45) {
        let n = x.len();
        let bin = ((bin_frac * n as f64) as usize).max(1).min(n - 1);
        let fs = 48_000.0;
        let freq = bin as f64 * fs / n as f64;
        let g = goertzel(&x, freq, fs);
        let spec = RealFft::new(n).forward_half(&x);
        prop_assert!((g.abs() - spec[bin].abs()).abs() < 1e-6 * n as f64);
    }

    /// Window values stay in [0, 1] and windows are symmetric.
    #[test]
    fn window_bounds(len in 2usize..256) {
        for w in [Window::Hann, Window::Hamming, Window::Blackman, Window::Kaiser(9.0)] {
            let taps = w.build(len);
            for (i, &t) in taps.iter().enumerate() {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&t), "{w:?}[{i}] = {t}");
                prop_assert!((t - taps[len - 1 - i]).abs() < 1e-12);
            }
        }
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentile_monotone(xs in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
        let lo = percentile(&xs, 10.0);
        let mid = percentile(&xs, 50.0);
        let hi = percentile(&xs, 90.0);
        prop_assert!(lo <= mid && mid <= hi);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo >= min - 1e-12 && hi <= max + 1e-12);
    }

    /// Q-function is a valid decreasing tail probability.
    #[test]
    fn qfunc_is_decreasing_probability(x in -6.0f64..6.0) {
        let q = qfunc(x);
        prop_assert!((0.0..=1.0).contains(&q));
        let q2 = qfunc(x + 0.1);
        prop_assert!(q2 <= q + 1e-12);
    }

    /// Real-FFT fast path ≡ the complex-path oracle at random plannable
    /// lengths (the modem sizes and powers of two are pinned in
    /// `real_fft_fixed_lengths_match_oracle` below).
    #[test]
    fn real_fft_matches_complex_oracle(x in real_fft_signal(300)) {
        let fast = RealFft::new(x.len()).forward_half(&x);
        let oracle = complex_oracle(&x);
        prop_assert_eq!(fast.len(), x.len() / 2 + 1);
        for k in 0..fast.len() {
            prop_assert!((fast[k] - oracle[k]).abs() < 1e-9 * x.len().max(16) as f64,
                "len {} bin {}", x.len(), k);
        }
    }

    /// forward_half → inverse_half is the identity on real signals.
    #[test]
    fn real_fft_roundtrip(x in real_fft_signal(257)) {
        let plan = RealFft::new(x.len());
        let back = plan.inverse_half(&plan.forward_half(&x));
        prop_assert_eq!(back.len(), x.len());
        for k in 0..x.len() {
            prop_assert!((back[k] - x[k]).abs() < 1e-10);
        }
    }
}

/// A fixed length set: powers of two, the modem sizes 960, 1920 and 4800,
/// and short lengths with factors of 3 and 5.
#[test]
fn real_fft_fixed_lengths_match_oracle() {
    for &n in &[2usize, 4, 64, 1024, 4096, 960, 1920, 4800, 6, 30, 100, 240] {
        let mut s = n as u64 | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let x: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let plan = RealFft::new(n);
        let fast = plan.forward_half(&x);
        let oracle = complex_oracle(&x);
        for k in 0..=n / 2 {
            assert!(
                (fast[k] - oracle[k]).abs() < 1e-9 * n as f64,
                "forward len {n} bin {k}"
            );
        }
        let back = plan.inverse_half(&fast);
        for k in 0..n {
            assert!(
                (back[k] - x[k]).abs() < 1e-9,
                "roundtrip len {n} sample {k}"
            );
        }
    }
}
