//! Pins the bits of every FFT-backed transform.
//!
//! Each case hashes the outputs (floats by bit pattern, FNV-1a) of one
//! transform on fixed xorshift inputs, so a change to the FFT kernel that
//! moves any rounding, even one ulp in one bin, fails here. The FFT plans
//! only 5-smooth lengths 2^a·3^b·5^c: the modem's symbol lengths divide
//! 48 000 = 2^7·3·5^3 and every other transform is a power of two. The
//! lengths cover every pass kind of the Stockham schedule: radix-4 only
//! (1024, 4096), a trailing radix-2 (2048, 32768), radices 3 and 5 (960,
//! 1920, 2400, 4800) and the channel renderer's block sizes (16384,
//! 65536). Above the kernel, the real-input path, the convolution engine
//! and the noise generator are pinned on the same footing.

use aqua_channel::noise::{NoiseGenerator, NoiseProfile};
use aqua_dsp::fft::{Fft, RealFft};
use aqua_dsp::fir::{fft_convolve, PlannedConvolver};
use aqua_dsp::Complex;

/// Transform lengths covering every pass kind (see the module doc).
const LENGTHS: [usize; 10] = [1024, 4096, 2048, 32768, 960, 1920, 2400, 4800, 16384, 65536];

/// FNV-1a over 64-bit words: stable across toolchains, unlike `std`'s
/// default hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn hash_real(x: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.word(x.len() as u64);
    for v in x {
        h.word(v.to_bits());
    }
    h.0
}

fn hash_complex(x: &[Complex]) -> u64 {
    let mut h = Fnv::new();
    h.word(x.len() as u64);
    for c in x {
        h.word(c.re.to_bits());
        h.word(c.im.to_bits());
    }
    h.0
}

/// Uniform deviates in `[-1, 1]` from a xorshift64 stream.
fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

fn real_input(n: usize, seed: u64) -> Vec<f64> {
    let mut next = xorshift(seed);
    (0..n).map(|_| next()).collect()
}

fn complex_input(n: usize, seed: u64) -> Vec<Complex> {
    let mut next = xorshift(seed);
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

/// Compares computed `(case, hash)` pairs against the pinned table and,
/// on any mismatch, fails listing every computed pair in table form.
fn check(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let matches = got.len() == pinned.len()
        && got
            .iter()
            .zip(pinned)
            .all(|((gn, gh), (pn, ph))| gn == pn && gh == ph);
    if !matches {
        let table: String = got
            .iter()
            .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
            .collect();
        panic!("transform bits moved; computed:\n{table}");
    }
}

#[test]
fn complex_forward_and_inverse_bits() {
    let mut got = Vec::new();
    for n in LENGTHS {
        let plan = Fft::new(n);
        let mut x = complex_input(n, n as u64);
        plan.forward(&mut x);
        got.push((format!("forward {n}"), hash_complex(&x)));
        let mut y = complex_input(n, 0xF00D + n as u64);
        plan.inverse(&mut y);
        got.push((format!("inverse {n}"), hash_complex(&y)));
    }
    check(&got, COMPLEX_PINS);
}

#[test]
fn real_half_spectrum_bits() {
    let mut got = Vec::new();
    for n in LENGTHS {
        let plan = RealFft::new(n);
        let spec = plan.forward_half(&real_input(n, 3 * n as u64));
        got.push((format!("forward_half {n}"), hash_complex(&spec)));
        let mut half = complex_input(plan.spectrum_len(), 5 * n as u64);
        half[0].im = 0.0;
        half[n / 2].im = 0.0;
        got.push((
            format!("inverse_half {n}"),
            hash_real(&plan.inverse_half(&half)),
        ));
    }
    check(&got, REAL_PINS);
}

#[test]
fn convolution_bits() {
    // (signal, filter) lengths: the 0.5 s render through a 2048-tap
    // multipath FIR (32768-point plan), a 0.1 s packet section through the
    // receiver's 511-tap bandpass, and a short block that `filter_same`
    // convolves directly.
    let mut got = Vec::new();
    for (nx, nh) in [(24_000usize, 2_048usize), (4_800, 511), (100, 31)] {
        let x = real_input(nx, nx as u64);
        let h = real_input(nh, 7 + nh as u64);
        got.push((
            format!("fft_convolve {nx}x{nh}"),
            hash_real(&fft_convolve(&x, &h)),
        ));
        let planned = PlannedConvolver::new(h);
        got.push((
            format!("planned convolve {nx}x{nh}"),
            hash_real(&planned.convolve(&x)),
        ));
        got.push((
            format!("planned filter_same {nx}x{nh}"),
            hash_real(&planned.filter_same(&x)),
        ));
    }
    check(&got, CONVOLUTION_PINS);
}

#[test]
fn noise_generator_bits() {
    // Block lengths landing on 1024-, 16384-, 32768- and 65536-point
    // plans, drawn one after another from each generator so the gains
    // tables and the white stream both carry across calls.
    let mut got = Vec::new();
    for (name, profile) in [
        ("underwater", NoiseProfile::underwater(0.01)),
        ("lf_heavy", NoiseProfile::underwater_lf_heavy(0.02)),
        ("white", NoiseProfile::white(0.005)),
    ] {
        let mut gen = NoiseGenerator::new(profile, 48_000.0, 11);
        for n in [1_000usize, 16_384, 24_000, 40_000] {
            got.push((format!("noise {name} {n}"), hash_real(&gen.generate(n))));
        }
    }
    check(&got, NOISE_PINS);
}

const COMPLEX_PINS: &[(&str, u64)] = &[
    ("forward 1024", 0xbd20a2ff36b11422),
    ("inverse 1024", 0xa59ecf1f39724ed3),
    ("forward 4096", 0xa406f863a6534c84),
    ("inverse 4096", 0xc730e8fd18ac49ef),
    ("forward 2048", 0xcabe86485bbfc018),
    ("inverse 2048", 0x5875ff6e8e321ba3),
    ("forward 32768", 0xfc2aaf01cc448c24),
    ("inverse 32768", 0x6f185663e0ea4107),
    ("forward 960", 0x7e79197e62010de5),
    ("inverse 960", 0xd0450f5b647ace72),
    ("forward 1920", 0xf28d8b3092ce8bdc),
    ("inverse 1920", 0x8911103e1bf03be6),
    ("forward 2400", 0x58cb6702dd57b176),
    ("inverse 2400", 0x75c95529f878ae4f),
    ("forward 4800", 0xcad686a3032372a7),
    ("inverse 4800", 0xafe53b9a0ee23cb9),
    ("forward 16384", 0xacb6246558cb4f6c),
    ("inverse 16384", 0xda7dbd99d522b717),
    ("forward 65536", 0xba2a9f67d7d7f9b9),
    ("inverse 65536", 0xff5bcebed91c24ea),
];

const REAL_PINS: &[(&str, u64)] = &[
    ("forward_half 1024", 0x523201d5a8abccad),
    ("inverse_half 1024", 0xf034d12b999bac3a),
    ("forward_half 4096", 0x5f4dedfe413c2ab3),
    ("inverse_half 4096", 0xb05a50b4797e815b),
    ("forward_half 2048", 0x0f608648988c495a),
    ("inverse_half 2048", 0xe84b2b24ad242dc2),
    ("forward_half 32768", 0x619b941ef7ebbe4b),
    ("inverse_half 32768", 0x8b95f2669f22e6c5),
    ("forward_half 960", 0x500cbb18a349891f),
    ("inverse_half 960", 0x63d11c37ffbd6ef4),
    ("forward_half 1920", 0xf7718d4e249e5128),
    ("inverse_half 1920", 0x31f2c2553aa3113a),
    ("forward_half 2400", 0x48da87bc6997b286),
    ("inverse_half 2400", 0x1c84bfd54086f1ae),
    ("forward_half 4800", 0x91aa53b21eaeadd3),
    ("inverse_half 4800", 0x288b886f60df5f25),
    ("forward_half 16384", 0x118550472d1ca219),
    ("inverse_half 16384", 0x73eb5baa54a519d9),
    ("forward_half 65536", 0x687ccf7a83ed5c7a),
    ("inverse_half 65536", 0x2c23e2232f3ea620),
];

const CONVOLUTION_PINS: &[(&str, u64)] = &[
    ("fft_convolve 24000x2048", 0x59ccfdc3c09eb929),
    ("planned convolve 24000x2048", 0x59ccfdc3c09eb929),
    ("planned filter_same 24000x2048", 0xb226ac854ecfd6f8),
    ("fft_convolve 4800x511", 0x682b5751a1cf6f93),
    ("planned convolve 4800x511", 0x682b5751a1cf6f93),
    ("planned filter_same 4800x511", 0xfeffda82c7fe1168),
    ("fft_convolve 100x31", 0xef44e06f2bdb08ae),
    ("planned convolve 100x31", 0xef44e06f2bdb08ae),
    ("planned filter_same 100x31", 0x18bf8aa9fe6413cc),
];

const NOISE_PINS: &[(&str, u64)] = &[
    ("noise underwater 1000", 0x581bb609d881e085),
    ("noise underwater 16384", 0x77245c6a751ebbae),
    ("noise underwater 24000", 0xc670dcd6fa987eb4),
    ("noise underwater 40000", 0x434ad0e1837b2a35),
    ("noise lf_heavy 1000", 0xa8609f7f84a3b2ee),
    ("noise lf_heavy 16384", 0xd66a09c3165dc3a9),
    ("noise lf_heavy 24000", 0xd3fbe934a440ff7a),
    ("noise lf_heavy 40000", 0x523cf34731672286),
    ("noise white 1000", 0x3ed7968b6675a243),
    ("noise white 16384", 0x528f3ce3ffb11a5f),
    ("noise white 24000", 0xadf07c5a2b5fdfac),
    ("noise white 40000", 0xfd00389c51ff2c3d),
];
