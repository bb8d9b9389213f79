//! Mixed-radix FFT with a real-input fast path.
//!
//! The modem's OFDM symbol lengths are not powers of two: 960 samples at
//! 50 Hz subcarrier spacing, 1920 at 25 Hz and 4800 at 10 Hz. At 48 kHz
//! any whole-sample symbol length 48 000/Δf divides 48 000 = 2^7·3·5^3,
//! and every other transform in the workspace (convolution, correlation,
//! Welch/STFT, noise blocks, the device-FIR design) is a power of two. So
//! the FFT plans exactly the **5-smooth** lengths 2^a·3^b·5^c and rejects
//! any other ([`Fft::new`]). It implements a **Stockham autosort**
//! decomposition over radices 4/2/3/5. The Stockham formulation ping-pongs
//! between the data buffer and one scratch buffer, absorbing the
//! reordering into each butterfly pass — no bit-reversal permutation and
//! no per-recursion-level copies, which is what brought the 960-point
//! transform from ~26 µs to under the ~15 µs target (see EXPERIMENTS.md
//! bench table).
//!
//! Each pass owns a contiguous table of the twiddles it multiplies by, in
//! the order its butterflies read them, and walks its source and
//! destination as `chunks_exact`/`zip` slices of one known length, so the
//! butterfly loops stream memory without bounds checks. The tables are
//! built at plan time from the same `e^{-2πik/len}` values one shared
//! `len`-entry table used to serve at stride `p·s`, and every output is
//! the same IEEE operations on the same operands in the same order. Rust
//! never contracts a multiply and an add into an FMA, so no bit of any
//! result depends on how the loops are laid out (`dsp/tests/fft_pinned.rs`
//! pins them).
//!
//! Nearly every signal in this codebase is real-valued (audio in, audio
//! out), so [`RealFft`] additionally provides the classic half-size
//! trick: an N-point real FFT via one N/2-point complex FFT plus O(N)
//! untangling, and the matching Hermitian inverse. The convolution engine
//! ([`crate::fir::fft_convolve`]), Welch PSD, OFDM synthesis/analysis and
//! the channel renderer all ride this path.
//!
//! Conventions: [`Fft::forward`] computes the unnormalized DFT
//! `X[k] = Σ x[n]·e^{-2πi kn/N}`; [`Fft::inverse`] applies the `1/N`
//! normalization so `inverse(forward(x)) == x`. [`RealFft`] half-spectra
//! hold bins `0..=N/2` of the same unnormalized transform.

use crate::complex::{Complex, ZERO};
use crate::memo::Memo;
use std::cell::RefCell;
use std::sync::Arc;

/// A planned FFT for a fixed size. Create via [`Fft::new`] or [`planner`];
/// reuse for many transforms of the same length. A plan is immutable, so
/// one plan serves every thread at once.
pub struct Fft {
    len: usize,
    /// Stockham passes applied in order (pairs of 2s fused into 4s), empty
    /// for `len == 1`.
    passes: Vec<Pass>,
}

/// One Stockham pass: `src` viewed as `s` interleaved sequences of length
/// `r·m` is decimated by `r`; outputs land at
/// `dst[q + s·(r·p + j)] = (Σ_l src[q + s·(p + l·m)]·ω_r^{lj})·w^{pj}`
/// with `w = e^{-2πi s / len}`.
struct Pass {
    /// The radix `r`.
    radix: usize,
    /// The stride `s`: the product of the radices of the earlier passes.
    stride: usize,
    /// `w^{pj} = e^{-2πi·pjs/len}` in the order the butterflies read
    /// them: `p`-major, then `j = 1..r`.
    twiddles: Vec<Complex>,
}

/// Builds the radix schedule from a prime factorization: fuse 2·2 → 4
/// (radix-4 butterflies do the work of two radix-2 passes in one sweep),
/// keeping any leftover 2, then the 3s and 5s.
fn radix_plan(factors: &[usize]) -> Vec<usize> {
    let twos = factors.iter().filter(|&&f| f == 2).count();
    let mut radices = vec![4; twos / 2];
    if twos % 2 == 1 {
        radices.push(2);
    }
    radices.extend(factors.iter().filter(|&&f| f != 2));
    radices
}

/// Plans the Stockham passes for `radices` (whose product is `len`). Each
/// table entry is `e^{-2πi k/len}` computed for its exponent `k` exactly
/// as the full `len`-entry table of roots was, so the butterflies
/// multiply by the same bits; the tables together hold `len − 1` entries.
fn plan_passes(len: usize, radices: &[usize]) -> Vec<Pass> {
    let root = |k: usize| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / len as f64);
    let mut stride = 1;
    radices
        .iter()
        .map(|&radix| {
            let s = stride;
            let m = len / (s * radix);
            let pass = Pass {
                radix,
                stride: s,
                twiddles: (0..m)
                    .flat_map(|p| (1..radix).map(move |j| root(p * j * s)))
                    .collect(),
            };
            stride *= radix;
            pass
        })
        .collect()
}

impl Fft {
    /// Plans an FFT of length `len`. Panics unless `len` is 5-smooth
    /// (`2^a·3^b·5^c`, so `len ≥ 1`): the modem's symbol lengths divide
    /// 48 000 = 2^7·3·5^3 and every other transform is a power of two.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "FFT length must be positive");
        let Some(factors) = factorize(len) else {
            panic!("FFT length {len} has a prime factor above 5; only 2^a·3^b·5^c are planned");
        };
        Self {
            len,
            passes: plan_passes(len, &radix_plan(&factors)),
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the planned length is zero (never: length is >= 1).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forward DFT (unnormalized). `data.len()` must equal the plan length.
    pub fn forward(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.len, "FFT length mismatch");
        if self.len == 1 {
            return;
        }
        // The thread's buffer only grows: every pass writes all of the
        // `len` entries it later reads.
        let mut buf = SCRATCH.take();
        if buf.len() < self.len {
            buf.resize(self.len, ZERO);
        }
        let scratch = &mut buf[..self.len];
        // Stockham autosort: each pass reads one buffer and writes the
        // other with the next decimation already in place.
        let mut in_data = true;
        for pass in &self.passes {
            if in_data {
                pass.run(data, scratch);
            } else {
                pass.run(scratch, data);
            }
            in_data = !in_data;
        }
        if !in_data {
            data.copy_from_slice(scratch);
        }
        SCRATCH.set(buf);
    }

    /// Inverse DFT with `1/N` normalization.
    pub fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.len, "FFT length mismatch");
        for c in data.iter_mut() {
            *c = c.conj();
        }
        self.forward(data);
        let scale = 1.0 / self.len as f64;
        for c in data.iter_mut() {
            *c = c.conj().scale(scale);
        }
    }
}

impl Pass {
    /// Runs the pass from `src` into `dst` (both the plan length). Every
    /// butterfly walks `src` as `r` blocks of `m·s` and `dst` as `m` groups
    /// of `r·s`, one `s`-long run per input and output, so its inner loop
    /// indexes slices of one known length.
    fn run(&self, src: &[Complex], dst: &mut [Complex]) {
        match self.radix {
            2 => self.pass2(src, dst),
            3 => self.pass3(src, dst),
            4 => self.pass4(src, dst),
            5 => self.pass5(src, dst),
            r => unreachable!("radix {r} is never planned"),
        }
    }

    fn pass2(&self, src: &[Complex], dst: &mut [Complex]) {
        let s = self.stride;
        let (src0, src1) = src.split_at(src.len() / 2);
        let groups = dst
            .chunks_exact_mut(2 * s)
            .zip(&self.twiddles)
            .zip(src0.chunks_exact(s).zip(src1.chunks_exact(s)));
        for ((d, &w), (a0, a1)) in groups {
            let (d0, d1) = d.split_at_mut(s);
            for (((d0, d1), &a), &b) in d0.iter_mut().zip(d1).zip(a0).zip(a1) {
                *d0 = a + b;
                *d1 = (a - b) * w;
            }
        }
    }

    fn pass3(&self, src: &[Complex], dst: &mut [Complex]) {
        // ω_3 = −1/2 − i·√3/2
        const S3: f64 = 0.866_025_403_784_438_6; // sin(π/3)
        let s = self.stride;
        let ms = src.len() / 3;
        let (src0, rest) = src.split_at(ms);
        let (src1, src2) = rest.split_at(ms);
        let groups = dst
            .chunks_exact_mut(3 * s)
            .zip(self.twiddles.chunks_exact(2))
            .zip(src0.chunks_exact(s))
            .zip(src1.chunks_exact(s).zip(src2.chunks_exact(s)));
        for (((d, w), a0), (a1, a2)) in groups {
            let (d0, rest) = d.split_at_mut(s);
            let (d1, d2) = rest.split_at_mut(s);
            // Every slice the loop indexes is `s` long, visibly to the compiler.
            let (d2, a1, a2) = (&mut d2[..s], &a1[..s], &a2[..s]);
            let (w1, w2) = (w[0], w[1]);
            for q in 0..s {
                let (a0, a1, a2) = (a0[q], a1[q], a2[q]);
                let t = a1 + a2;
                let v = (a1 - a2).scale(S3);
                let mid = a0 - t.scale(0.5);
                d0[q] = a0 + t;
                d1[q] = sub_i(mid, v) * w1;
                d2[q] = add_i(mid, v) * w2;
            }
        }
    }

    fn pass4(&self, src: &[Complex], dst: &mut [Complex]) {
        let s = self.stride;
        let ms = src.len() / 4;
        let (src0, rest) = src.split_at(ms);
        let (src1, rest) = rest.split_at(ms);
        let (src2, src3) = rest.split_at(ms);
        let groups = dst
            .chunks_exact_mut(4 * s)
            .zip(self.twiddles.chunks_exact(3))
            .zip(src0.chunks_exact(s).zip(src1.chunks_exact(s)))
            .zip(src2.chunks_exact(s).zip(src3.chunks_exact(s)));
        for (((d, w), (a0, a1)), (a2, a3)) in groups {
            let (d0, rest) = d.split_at_mut(s);
            let (d1, rest) = rest.split_at_mut(s);
            let (d2, d3) = rest.split_at_mut(s);
            // Every slice the loop indexes is `s` long, visibly to the compiler.
            let (d3, a1, a2, a3) = (&mut d3[..s], &a1[..s], &a2[..s], &a3[..s]);
            let (w1, w2, w3) = (w[0], w[1], w[2]);
            for q in 0..s {
                let (a0, a1, a2, a3) = (a0[q], a1[q], a2[q], a3[q]);
                let sum02 = a0 + a2;
                let dif02 = a0 - a2;
                let sum13 = a1 + a3;
                let dif13 = a1 - a3;
                d0[q] = sum02 + sum13;
                d1[q] = sub_i(dif02, dif13) * w1;
                d2[q] = (sum02 - sum13) * w2;
                d3[q] = add_i(dif02, dif13) * w3;
            }
        }
    }

    fn pass5(&self, src: &[Complex], dst: &mut [Complex]) {
        // ω_5^k = C_k − i·S_k
        const C1: f64 = 0.309_016_994_374_947_45; // cos(2π/5)
        const S1: f64 = 0.951_056_516_295_153_5; // sin(2π/5)
        const C2: f64 = -0.809_016_994_374_947_5; // cos(4π/5)
        const S2: f64 = 0.587_785_252_292_473_1; // sin(4π/5)
        let s = self.stride;
        let ms = src.len() / 5;
        let (src0, rest) = src.split_at(ms);
        let (src1, rest) = rest.split_at(ms);
        let (src2, rest) = rest.split_at(ms);
        let (src3, src4) = rest.split_at(ms);
        let groups = dst
            .chunks_exact_mut(5 * s)
            .zip(self.twiddles.chunks_exact(4))
            .zip(src0.chunks_exact(s))
            .zip(src1.chunks_exact(s).zip(src2.chunks_exact(s)))
            .zip(src3.chunks_exact(s).zip(src4.chunks_exact(s)));
        for ((((d, w), a0), (a1, a2)), (a3, a4)) in groups {
            let (d0, rest) = d.split_at_mut(s);
            let (d1, rest) = rest.split_at_mut(s);
            let (d2, rest) = rest.split_at_mut(s);
            let (d3, d4) = rest.split_at_mut(s);
            // Every slice the loop indexes is `s` long, visibly to the compiler.
            let (d4, a1, a2, a3, a4) = (&mut d4[..s], &a1[..s], &a2[..s], &a3[..s], &a4[..s]);
            let (w1, w2, w3, w4) = (w[0], w[1], w[2], w[3]);
            for q in 0..s {
                let (a0, a1, a2, a3, a4) = (a0[q], a1[q], a2[q], a3[q], a4[q]);
                let t1 = a1 + a4;
                let t2 = a1 - a4;
                let t3 = a2 + a3;
                let t4 = a2 - a3;
                let m1 = a0 + t1.scale(C1) + t3.scale(C2);
                let m2 = a0 + t1.scale(C2) + t3.scale(C1);
                let v1 = t2.scale(S1) + t4.scale(S2);
                let v2 = t2.scale(S2) - t4.scale(S1);
                d0[q] = a0 + t1 + t3;
                d1[q] = sub_i(m1, v1) * w1;
                d2[q] = sub_i(m2, v2) * w2;
                d3[q] = add_i(m2, v2) * w3;
                d4[q] = add_i(m1, v1) * w4;
            }
        }
    }
}

/// `a − i·v`.
#[inline]
fn sub_i(a: Complex, v: Complex) -> Complex {
    Complex::new(a.re + v.im, a.im - v.re)
}

/// `a + i·v`.
#[inline]
fn add_i(a: Complex, v: Complex) -> Complex {
    Complex::new(a.re - v.im, a.im + v.re)
}

/// A planned FFT for **real-valued** signals of a fixed even length N:
/// forward via one N/2-point complex FFT plus untangling, inverse from a
/// Hermitian half-spectrum by the reverse construction. N/2 must be a
/// length [`Fft::new`] plans, so N is 2^a·3^b·5^c with `a ≥ 1`: the
/// modem's 960-, 1920- and 4800-sample symbols and the power-of-two
/// blocks. Like [`Fft`], a plan is immutable and serves every thread at
/// once.
///
/// The half-spectrum convention is bins `0..=N/2` of the unnormalized
/// DFT; the remaining bins of a real signal's spectrum are the mirror
/// `X[N−k] = conj(X[k])` and are never materialized on this path.
pub struct RealFft {
    len: usize,
    /// The `len/2`-point complex plan the packed sample pairs run through.
    half: Arc<Fft>,
    /// Untangling twiddles `e^{-2πi k/len}` for `k < len/2`.
    w: Vec<Complex>,
}

impl RealFft {
    /// Plans a real FFT of length `len`. Panics unless `len` is even and
    /// positive and `len/2` is a length [`Fft::new`] plans.
    pub fn new(len: usize) -> Self {
        assert!(
            len > 0 && len.is_multiple_of(2),
            "real FFT length {len} must be even and positive"
        );
        let m = len / 2;
        Self {
            len,
            half: planner(m),
            w: (0..m)
                .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / len as f64))
                .collect(),
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the planned length is zero (never: length is >= 1).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of half-spectrum bins: `len/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.len / 2 + 1
    }

    /// Forward DFT of a real signal, returning bins `0..=len/2`.
    pub fn forward_half(&self, signal: &[f64]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.forward_half_into(signal, &mut out);
        out
    }

    /// [`forward_half`](RealFft::forward_half) into a caller-owned buffer:
    /// `out` is cleared and refilled, and the packed-pair work buffer is
    /// reused across calls — no allocation on the steady state. Produces
    /// bit-identical values to the allocating form.
    pub fn forward_half_into(&self, signal: &[f64], out: &mut Vec<Complex>) {
        assert_eq!(signal.len(), self.len, "FFT length mismatch");
        // Pack adjacent samples into complex pairs: z[n] = x[2n] + i·x[2n+1].
        let mut z = PACK.take();
        z.clear();
        z.extend(
            signal
                .chunks_exact(2)
                .map(|pair| Complex::new(pair[0], pair[1])),
        );
        self.half.forward(&mut z);
        // Untangle: E[k] = (Z[k]+conj(Z[M−k]))/2 is the even-sample DFT,
        // O[k] = −i·(Z[k]−conj(Z[M−k]))/2 the odd-sample DFT, and
        // X[k] = E[k] + w^k·O[k]. Bins 1..M pair Z[1..] with its reverse.
        let inner = &z[1..];
        out.clear();
        out.reserve(self.spectrum_len());
        out.push(Complex::real(z[0].re + z[0].im));
        out.extend(inner.iter().zip(inner.iter().rev()).zip(&self.w[1..]).map(
            |((&zk, zr), &w)| {
                let zc = zr.conj();
                let even = (zk + zc).scale(0.5);
                let half_dif = (zk - zc).scale(0.5);
                let odd = Complex::new(half_dif.im, -half_dif.re); // −i·(Z[k]−conj(Z[M−k]))/2
                even + w * odd
            },
        ));
        out.push(Complex::real(z[0].re - z[0].im));
        PACK.set(z);
    }

    /// Inverse DFT (normalized by `1/len`) of a Hermitian half-spectrum
    /// (`len/2 + 1` bins; bins 0 and `len/2` must be real up to rounding),
    /// returning the real signal. Exact inverse of
    /// [`forward_half`](RealFft::forward_half).
    pub fn inverse_half(&self, half_spec: &[Complex]) -> Vec<f64> {
        let mut out = Vec::new();
        self.inverse_half_into(half_spec, &mut out);
        out
    }

    /// [`inverse_half`](RealFft::inverse_half) into a caller-owned buffer:
    /// `out` is cleared and refilled, and the packed-pair work buffer is
    /// reused across calls. Produces bit-identical values to the
    /// allocating form.
    pub fn inverse_half_into(&self, half_spec: &[Complex], out: &mut Vec<f64>) {
        assert_eq!(
            half_spec.len(),
            self.spectrum_len(),
            "half-spectrum length mismatch"
        );
        // Reverse the untangling: Z[k] = E[k] + i·O[k] with
        // E[k] = (X[k]+conj(X[M−k]))/2, O[k] = (X[k]−conj(X[M−k]))·w̄^k/2.
        // Bins 0..M pair X[..M] with the reverse of X[1..]. The inverse of
        // Z is conj(forward(conj(Z)))/M: this loop stores conj(Z[k]) and the
        // unpack loop conjugates and scales, the exact operations of
        // `Fft::inverse`'s two sweeps folded into these loops.
        let mut z = PACK.take();
        z.clear();
        let m = self.len / 2;
        let (lower, upper) = (&half_spec[..m], &half_spec[1..]);
        z.extend(
            lower
                .iter()
                .zip(upper.iter().rev())
                .zip(&self.w)
                .map(|((&xk, xr), &w)| {
                    let xc = xr.conj();
                    let even = (xk + xc).scale(0.5);
                    let odd = ((xk - xc) * w.conj()).scale(0.5);
                    add_i(even, odd).conj()
                }),
        );
        self.half.forward(&mut z);
        // Unpack: x[2n] = Re z[n], x[2n+1] = Im z[n].
        let scale = 1.0 / m as f64;
        out.clear();
        out.resize(self.len, 0.0);
        for (pair, c) in out.chunks_exact_mut(2).zip(z.iter()) {
            let c = c.conj().scale(scale);
            pair[0] = c.re;
            pair[1] = c.im;
        }
        PACK.set(z);
    }
}

/// The prime factors of `n ≥ 1`, smallest first, or `None` when one of
/// them is above 5.
fn factorize(mut n: usize) -> Option<Vec<usize>> {
    let mut factors = Vec::new();
    for p in [2, 3, 5] {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
    }
    (n == 1).then_some(factors)
}

// One thread's FFT workspace: the Stockham ping-pong buffer and `RealFft`'s
// packed pairs, the only mutable state of a transform, so plans are shared.
thread_local! {
    static SCRATCH: RefCell<Vec<Complex>> = const { RefCell::new(Vec::new()) };
    static PACK: RefCell<Vec<Complex>> = const { RefCell::new(Vec::new()) };
}

static PLANS: Memo<usize, Fft> = Memo::new();
static REAL_PLANS: Memo<usize, RealFft> = Memo::new();

/// The process-wide FFT plan for `len`, built on first use.
pub fn planner(len: usize) -> Arc<Fft> {
    PLANS.get(len, || Fft::new(len))
}

/// The process-wide real-FFT plan for `len`, built on first use.
pub fn real_planner(len: usize) -> Arc<RealFft> {
    REAL_PLANS.get(len, || RealFft::new(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = ZERO;
                for (j, &v) in x.iter().enumerate() {
                    acc +=
                        v * Complex::cis(-2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex> {
        // Simple xorshift so the dsp crate stays dependency-free.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft_for_mixed_radix_sizes() {
        for &n in &[
            1usize,
            2,
            3,
            4,
            5,
            6,
            8,
            12,
            15,
            16,
            20,
            30,
            60,
            64,
            96,
            960 / 8,
        ] {
            let x = rand_signal(n, n as u64);
            let mut y = x.clone();
            Fft::new(n).forward(&mut y);
            let want = naive_dft(&x);
            assert!(max_err(&y, &want) < 1e-8 * n as f64, "size {n}");
        }
    }

    /// Lengths with a prime factor above 5 (7, the prime 37, and 1027 =
    /// 13·79, a 960-sample symbol with its 67-sample cyclic prefix) are not
    /// planned, and the panic names the length; nor is any odd real length.
    #[test]
    fn rejects_unplannable_lengths() {
        for n in [7usize, 37, 1027] {
            let Err(panic) = std::panic::catch_unwind(|| Fft::new(n)) else {
                panic!("length {n} was planned");
            };
            let msg = panic.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains(&format!("length {n} ")), "{msg}");
        }
        for n in [1usize, 15, 1027] {
            assert!(
                std::panic::catch_unwind(|| RealFft::new(n)).is_err(),
                "real length {n} was planned"
            );
        }
    }

    #[test]
    fn roundtrip_on_modem_sizes() {
        for &n in &[960usize, 1920, 4800, 2400] {
            let x = rand_signal(n, 7);
            let mut y = x.clone();
            let plan = Fft::new(n);
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 1e-9, "size {n}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 960;
        let x = rand_signal(n, 3);
        let mut y = x.clone();
        Fft::new(n).forward(&mut y);
        let et: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let ef: f64 = y.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((et - ef).abs() / et < 1e-10);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let n = 60;
        let mut x = vec![ZERO; n];
        x[0] = Complex::real(1.0);
        Fft::new(n).forward(&mut x);
        for c in x {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 960;
        let k0 = 25;
        let x: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        let mut y = x;
        Fft::new(n).forward(&mut y);
        for (k, c) in y.iter().enumerate() {
            if k == k0 {
                assert!((c.abs() - n as f64).abs() < 1e-6);
            } else {
                assert!(c.abs() < 1e-6, "leakage at bin {k}: {}", c.abs());
            }
        }
    }

    #[test]
    fn factorize_decomposes_into_primes() {
        assert_eq!(factorize(960), Some(vec![2, 2, 2, 2, 2, 2, 3, 5]));
        assert_eq!(factorize(1), Some(Vec::new()));
        assert_eq!(factorize(97), None);
        assert_eq!(factorize(4 * 7), None);
    }

    #[test]
    fn radix_plan_fuses_twos_into_fours() {
        let plan = |n| radix_plan(&factorize(n).unwrap());
        assert_eq!(plan(960), vec![4, 4, 4, 3, 5]);
        assert_eq!(plan(32), vec![4, 4, 2]);
        assert_eq!(plan(4800), vec![4, 4, 4, 3, 5, 5]);
    }

    #[test]
    fn planner_reuses_plans() {
        let a = planner(960);
        let b = planner(960);
        assert!(Arc::ptr_eq(&a, &b));
        let ra = real_planner(960);
        let rb = real_planner(960);
        assert!(Arc::ptr_eq(&ra, &rb));
        // Plans are process-wide: another thread gets the same ones.
        let other = std::thread::spawn(|| (planner(960), real_planner(960)));
        let (c, rc) = other.join().unwrap();
        assert!(Arc::ptr_eq(&a, &c) && Arc::ptr_eq(&ra, &rc));
    }

    /// The complex-path oracle the real fast path must match.
    fn fft_real_oracle(signal: &[f64]) -> Vec<Complex> {
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::real(x)).collect();
        planner(signal.len()).forward(&mut buf);
        buf
    }

    #[test]
    fn fft_real_of_cosine_has_symmetric_peaks() {
        let n = 480;
        let k0 = 10;
        let signal: Vec<f64> = (0..n)
            .map(|j| (2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64).cos())
            .collect();
        let half = RealFft::new(n).forward_half(&signal);
        let full = fft_real_oracle(&signal);
        assert!(max_err(&half, &full[..=n / 2]) < 1e-9);
        assert!((half[k0].abs() - n as f64 / 2.0).abs() < 1e-6);
        assert!((full[n - k0].abs() - n as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn real_forward_matches_complex_oracle() {
        for &n in &[2usize, 4, 6, 10, 16, 36, 60, 960, 1024, 4800] {
            let x: Vec<f64> = rand_signal(n, 11 + n as u64).iter().map(|c| c.re).collect();
            let fast = RealFft::new(n).forward_half(&x);
            let want = fft_real_oracle(&x);
            assert!(
                max_err(&fast, &want[..=n / 2]) < 1e-9 * n as f64,
                "size {n}"
            );
        }
    }

    #[test]
    fn real_half_spectrum_roundtrips() {
        for &n in &[2usize, 8, 10, 960, 1920, 4800, 30] {
            let x: Vec<f64> = rand_signal(n, 23 + n as u64).iter().map(|c| c.im).collect();
            let plan = RealFft::new(n);
            let half = plan.forward_half(&x);
            assert_eq!(half.len(), plan.spectrum_len());
            let back = plan.inverse_half(&half);
            let err = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "size {n}: err {err}");
        }
    }
}
