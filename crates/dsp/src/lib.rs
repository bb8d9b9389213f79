//! # aqua-dsp
//!
//! Digital-signal-processing substrate for the AquaModem underwater acoustic
//! modem (a Rust reproduction of *Underwater Messaging Using Mobile
//! Devices*, SIGCOMM 2022).
//!
//! Everything here is implemented from scratch so the workspace has no
//! external DSP dependencies:
//!
//! - [`complex`]: `f64` complex arithmetic.
//! - [`fft`]: mixed-radix FFT over the 5-smooth lengths 2^a·3^b·5^c: the
//!   modem's OFDM sizes (960 / 1920 / 4800 samples) divide
//!   48 000 = 2^7·3·5^3, and every other transform is a power of two.
//! - [`window`], [`fir`]: window functions, windowed-sinc FIR design, and
//!   batch/streaming filtering (the receiver's 1–4 kHz front-end bandpass).
//! - [`correlate`]: naive-reference, FFT-accelerated, and normalized
//!   cross-correlation for preamble detection.
//! - [`stream`]: streaming overlap-save correlation — block FFT convolution
//!   with carry-over state, for continuous real-time preamble scanning.
//! - [`cazac`]: Zadoff–Chu sequences for the preamble (unit PAPR, ideal
//!   autocorrelation).
//! - [`chirp`]: LFM chirps and tones for channel sounding, FSK, IDs, ACKs.
//! - [`goertzel`]: single-bin DFT for feedback/ACK/FSK detection.
//! - [`resample`]: band-limited fractional-delay interpolation (physical
//!   Doppler rendering in the channel simulator).
//! - [`polyphase`]: precomputed polyphase fractional-delay table + blocked
//!   ramp evaluators — the hot-path engine behind the moving-channel
//!   renderer and resampler, property-tested against [`resample`]'s exact
//!   interpolator.
//! - [`memo`]: process-wide memoization of pure functions (FFT plans and
//!   the channel's device and calibration tables), shared by every thread.
//! - [`linalg`]: Levinson–Durbin Toeplitz solver (the MMSE equalizer's
//!   normal equations).
//! - [`spectrum`]: Welch PSD and STFT (Figs. 3/4/9).
//! - [`stats`]: means and percentiles, Q-function, theoretical BPSK BER.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cazac;
pub mod chirp;
pub mod complex;
pub mod correlate;
pub mod fft;
pub mod fir;
pub mod goertzel;
pub mod linalg;
pub mod memo;
pub mod polyphase;
pub mod resample;
pub mod spectrum;
pub mod stats;
pub mod stream;
pub mod window;

pub use complex::Complex;
pub use fft::Fft;
