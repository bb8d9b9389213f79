//! Streaming overlap-save correlation.
//!
//! The batch [`crate::correlate::xcorr_valid_fft`] re-transforms the whole
//! capture every call, which is fine offline but hopeless inside a live
//! audio callback: the receiver would redo O(N log N) work per buffer over
//! an ever-growing history. This module implements the classic
//! *overlap-save* decomposition instead — the template spectrum is computed
//! once, the incoming stream is processed in fixed FFT blocks with
//! `template_len − 1` samples of carry-over, and each pushed chunk costs
//! O(log B) per sample regardless of how the stream is chopped up.
//!
//! Two layers are provided:
//!
//! - [`OverlapSaveCorrelator`] emits the raw "valid"-lag cross-correlation,
//!   bit-for-bit independent of the chunk sizes used to feed it (block
//!   boundaries are fixed by absolute stream position, not by push
//!   boundaries). A mid-stream [`OverlapSaveCorrelator::flush`] realigns
//!   the following blocks, so values after it match an uninterrupted
//!   stream only to FFT rounding (≈1e-12), not bitwise.
//! - [`StreamingNormalizedXcorr`] divides by the template norm and the
//!   local signal energy, matching [`crate::correlate::xcorr_normalized`].
//!
//! Outputs are emitted as soon as every sample of their window has
//! arrived *and* a full FFT block is available; [`OverlapSaveCorrelator::flush`]
//! forces the remaining computable outputs out (zero-padding the final
//! block) at end of stream or when a latency deadline expires.

use crate::complex::Complex;
use crate::fft::{real_planner, RealFft};
use std::sync::Arc;

/// Streaming overlap-save FFT cross-correlator for a fixed template.
///
/// Semantics match [`crate::correlate::xcorr_valid`]: after pushing the
/// whole signal (in any chunking) and flushing, the concatenated outputs
/// equal `xcorr_valid(signal, template)` up to FFT rounding (≈1e-12
/// relative). Output `i` is `Σ_j signal[i+j]·template[j]` and is emitted
/// exactly once, in order.
pub struct OverlapSaveCorrelator {
    /// Template length `M`.
    m: usize,
    /// FFT block size `B` (power of two, ≥ 2·M rounded up).
    block: usize,
    /// Valid outputs per full block: `B − M + 1`.
    l_per_block: usize,
    /// Half-size real-FFT plan: signal and template are both real, so
    /// each block costs one half-spectrum forward, a pointwise product
    /// over `B/2 + 1` bins, and one Hermitian inverse.
    plan: Arc<RealFft>,
    /// Half-spectrum of the reversed, zero-padded template (computed once).
    template_fd: Vec<Complex>,
    /// Block time-domain / spectrum scratch, reused across blocks.
    seg: Vec<f64>,
    spec: Vec<Complex>,
    inv: Vec<f64>,
    /// Sample history `[base, total)`; samples below `emitted` are dropped.
    history: Vec<f64>,
    /// Absolute stream index of `history[0]`.
    base: usize,
    /// Number of correlation outputs emitted so far.
    emitted: usize,
    /// Total samples pushed so far.
    total: usize,
}

impl OverlapSaveCorrelator {
    /// Plans a correlator for `template`. Panics on an empty template (an
    /// empty template has no valid-lag output — mirror the batch API's
    /// empty return by not constructing a correlator at all).
    pub fn new(template: &[f64]) -> Self {
        assert!(!template.is_empty(), "empty correlation template");
        let m = template.len();
        let block = (2 * m).next_power_of_two().max(64);
        let plan = real_planner(block);
        let mut reversed: Vec<f64> = template.iter().rev().copied().collect();
        reversed.resize(block, 0.0);
        let template_fd = plan.forward_half(&reversed);
        Self {
            m,
            block,
            l_per_block: block - m + 1,
            plan,
            template_fd,
            seg: Vec::new(),
            spec: Vec::new(),
            inv: Vec::new(),
            history: Vec::new(),
            base: 0,
            emitted: 0,
            total: 0,
        }
    }

    /// Template length `M` this correlator was planned for.
    fn template_len(&self) -> usize {
        self.m
    }

    /// FFT block size (diagnostic; outputs are emitted `block − M + 1` at a
    /// time once the stream warms up).
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// Feeds a chunk (any length, including empty) and returns the
    /// correlation outputs that became computable as full FFT blocks.
    ///
    /// History is trimmed lazily (at the *start* of the next call), so
    /// immediately after a call returns, the samples covering the returned
    /// outputs' windows are still resident — the normalized wrapper reads
    /// them instead of keeping its own copy of the stream.
    pub fn push(&mut self, chunk: &[f64]) -> Vec<f64> {
        self.trim();
        self.history.extend_from_slice(chunk);
        self.total += chunk.len();
        let mut out = Vec::new();
        while self.total >= self.emitted + self.block {
            self.process_block(self.l_per_block, &mut out);
        }
        out
    }

    /// Emits every output whose window is fully buffered, zero-padding the
    /// final partial FFT block. Call at end of stream or on a latency
    /// deadline; pushing more samples afterwards is fine (already-emitted
    /// outputs never depended on padding).
    pub fn flush(&mut self) -> Vec<f64> {
        self.trim();
        let available = (self.total + 1).saturating_sub(self.m);
        let mut out = Vec::new();
        if available > self.emitted {
            let count = available - self.emitted;
            self.process_block(count, &mut out);
        }
        out
    }

    /// Clears stream state but keeps the plan and template spectrum, so a
    /// long-lived detector can rescan from scratch without re-planning.
    pub fn reset(&mut self) {
        self.history.clear();
        self.base = 0;
        self.emitted = 0;
        self.total = 0;
    }

    /// Runs one FFT block starting at output index `emitted`, appending
    /// `count` valid outputs (`count ≤ B − M + 1`).
    fn process_block(&mut self, count: usize, out: &mut Vec<f64>) {
        let start = self.emitted - self.base;
        let have = self.history.len() - start;
        self.seg.clear();
        self.seg
            .extend_from_slice(&self.history[start..start + have.min(self.block)]);
        self.seg.resize(self.block, 0.0);
        self.plan.forward_half_into(&self.seg, &mut self.spec);
        for (p, q) in self.spec.iter_mut().zip(&self.template_fd) {
            *p *= *q;
        }
        self.plan.inverse_half_into(&self.spec, &mut self.inv);
        // circular-convolution indices m−1.. are alias-free; index m−1+i is
        // valid lag emitted+i
        out.extend_from_slice(&self.inv[self.m - 1..self.m - 1 + count]);
        self.emitted += count;
    }

    /// Drops history below the next unemitted output's window start.
    fn trim(&mut self) {
        if self.emitted > self.base {
            let drop = (self.emitted - self.base).min(self.history.len());
            self.history.drain(..drop);
            self.base = self.emitted;
        }
    }
}

/// Streaming equivalent of [`crate::correlate::xcorr_normalized`]: raw
/// overlap-save correlation divided by `‖template‖ · ‖window‖`, with the
/// same `0.0` guard for near-silent windows.
///
/// Window energies are read from the inner correlator's (lazily trimmed)
/// history — no second copy of the stream — and recomputed from a fresh
/// local prefix sum at every emission, so there is no long-run
/// accumulation drift.
pub struct StreamingNormalizedXcorr {
    corr: OverlapSaveCorrelator,
    t_norm: f64,
    /// Number of normalized outputs emitted so far.
    emitted: usize,
}

impl StreamingNormalizedXcorr {
    /// Plans a normalized streaming correlator for `template` (non-empty).
    pub fn new(template: &[f64]) -> Self {
        Self {
            corr: OverlapSaveCorrelator::new(template),
            t_norm: template.iter().map(|v| v * v).sum::<f64>().sqrt(),
            emitted: 0,
        }
    }

    /// Feeds a chunk; returns newly computable normalized correlations.
    pub fn push(&mut self, chunk: &[f64]) -> Vec<f64> {
        let raw = self.corr.push(chunk);
        self.normalize(raw)
    }

    /// Forces out the remaining computable outputs (see
    /// [`OverlapSaveCorrelator::flush`]).
    pub fn flush(&mut self) -> Vec<f64> {
        let raw = self.corr.flush();
        self.normalize(raw)
    }

    /// Clears stream state, keeping the plan and template spectrum.
    pub fn reset(&mut self) {
        self.corr.reset();
        self.emitted = 0;
    }

    fn normalize(&mut self, raw: Vec<f64>) -> Vec<f64> {
        if raw.is_empty() {
            return raw;
        }
        let m = self.corr.template_len();
        // the inner correlator trims lazily, so the samples spanning this
        // batch's windows are still in its history
        let start = self.emitted - self.corr.base;
        let span = raw.len() + m - 1;
        let window = &self.corr.history[start..start + span];
        let mut prefix = vec![0.0; span + 1];
        for (i, &v) in window.iter().enumerate() {
            prefix[i + 1] = prefix[i] + v * v;
        }
        let out = raw
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let e = prefix[i + m] - prefix[i];
                let denom = self.t_norm * e.sqrt();
                if denom > 1e-30 {
                    r / denom
                } else {
                    0.0
                }
            })
            .collect();
        self.emitted += span - (m - 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::{xcorr_normalized, xcorr_valid};

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37) % 19) as f64 - 9.0 + 0.25)
            .collect()
    }

    fn template(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 11) % 7) as f64 - 3.0).collect()
    }

    #[test]
    fn matches_batch_xcorr_for_single_push() {
        let sig = signal(1000);
        let tpl = template(64);
        let want = xcorr_valid(&sig, &tpl);
        let mut os = OverlapSaveCorrelator::new(&tpl);
        let mut got = os.push(&sig);
        got.extend(os.flush());
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn chunking_does_not_change_output() {
        let sig = signal(700);
        let tpl = template(100);
        let mut whole = OverlapSaveCorrelator::new(&tpl);
        let mut want = whole.push(&sig);
        want.extend(whole.flush());
        for chunk in [1usize, 7, 128, 1024] {
            let mut os = OverlapSaveCorrelator::new(&tpl);
            let mut got = Vec::new();
            for c in sig.chunks(chunk) {
                got.extend(os.push(c));
            }
            got.extend(os.flush());
            // block boundaries are fixed by absolute position, so outputs
            // are bit-identical across chunkings
            assert_eq!(got, want, "chunk size {chunk}");
        }
    }

    #[test]
    fn flush_mid_stream_then_continue() {
        let sig = signal(900);
        let tpl = template(50);
        let want = xcorr_valid(&sig, &tpl);
        let mut os = OverlapSaveCorrelator::new(&tpl);
        let mut got = os.push(&sig[..300]);
        got.extend(os.flush()); // deadline-style early flush
        got.extend(os.push(&sig[300..]));
        got.extend(os.flush());
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn short_signal_yields_no_output() {
        let tpl = template(80);
        let mut os = OverlapSaveCorrelator::new(&tpl);
        assert!(os.push(&signal(79)).is_empty());
        assert!(os.flush().is_empty());
        // one more sample completes the first window
        let extra = os.push(&[1.0]);
        let flushed = os.flush();
        assert_eq!(extra.len() + flushed.len(), 1);
    }

    #[test]
    fn empty_pushes_are_noops() {
        let tpl = template(16);
        let mut os = OverlapSaveCorrelator::new(&tpl);
        assert!(os.push(&[]).is_empty());
        assert!(os.flush().is_empty());
        assert_eq!(os.emitted, 0);
    }

    #[test]
    fn reset_allows_reuse() {
        let tpl = template(32);
        let sig = signal(200);
        let want = xcorr_valid(&sig, &tpl);
        let mut os = OverlapSaveCorrelator::new(&tpl);
        os.push(&sig);
        os.flush();
        os.reset();
        let mut got = os.push(&sig);
        got.extend(os.flush());
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn normalized_matches_batch() {
        let mut sig = signal(1200);
        // quiet stretch exercises the denominator guard
        for v in sig[300..420].iter_mut() {
            *v = 0.0;
        }
        let tpl = template(96);
        let want = xcorr_normalized(&sig, &tpl);
        for chunk in [1usize, 13, 480] {
            let mut os = StreamingNormalizedXcorr::new(&tpl);
            let mut got = Vec::new();
            for c in sig.chunks(chunk) {
                got.extend(os.push(c));
            }
            got.extend(os.flush());
            assert_eq!(got.len(), want.len(), "chunk {chunk}");
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9, "chunk {chunk} idx {i}: {a} vs {b}");
            }
        }
    }
}
