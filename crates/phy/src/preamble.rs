//! Preamble construction and detection (§2.2.1).
//!
//! The preamble is eight identical CAZAC-filled OFDM symbol cores
//! multiplied by the PN sign pattern `[-1,1,1,1,1,1,-1,1]`. Detection is
//! two-stage: cheap normalized cross-correlation proposes candidates, then
//! the normalized sliding segment correlation — whose peak height is
//! SNR-insensitive and near zero for impulsive noise — accepts (≥ 0.6) or
//! rejects (< 0.2 for noise) and refines symbol timing.

use crate::params::OfdmParams;
use crate::symbol::synthesize_core;
use aqua_dsp::cazac::zadoff_chu;
use aqua_dsp::complex::Complex;
use aqua_dsp::correlate::{argmax, inner, silence_non_finite, xcorr_normalized};
use aqua_dsp::stream::StreamingNormalizedXcorr;
use std::collections::VecDeque;

/// Number of OFDM symbols in the preamble.
pub const PREAMBLE_SYMBOLS: usize = 8;
/// PN sign pattern applied per preamble symbol (from the paper).
pub const PN_SIGNS: [f64; PREAMBLE_SYMBOLS] = [-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0];

/// A constructed preamble for a given numerology.
#[derive(Debug, Clone)]
pub struct Preamble {
    params: OfdmParams,
    /// Zadoff–Chu values loaded into the usable bins (amplitude-scaled).
    pub bin_values: Vec<Complex>,
    /// Time-domain preamble: `PREAMBLE_SYMBOLS × n_fft` samples.
    pub samples: Vec<f64>,
}

impl Preamble {
    /// Builds the preamble: ZC sequence over the full usable band at full
    /// transmit power, eight cores concatenated with PN signs.
    pub fn new(params: OfdmParams) -> Self {
        let root = zc_root(params.num_bins);
        let amp = params.bin_amplitude(params.num_bins);
        let bin_values: Vec<Complex> = zadoff_chu(root, params.num_bins)
            .into_iter()
            .map(|c| c.scale(amp))
            .collect();
        let core = synthesize_core(&params, &bin_values);
        let mut samples = Vec::with_capacity(PREAMBLE_SYMBOLS * params.n_fft);
        for sign in PN_SIGNS {
            samples.extend(core.iter().map(|&v| v * sign));
        }
        Self {
            params,
            bin_values,
            samples,
        }
    }

    /// Total preamble length in samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if the preamble is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The numerology this preamble was built for.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }

    /// The transmitted bin value for preamble symbol `sym` and usable bin
    /// `k` (ZC value times the PN sign).
    pub fn tx_bin(&self, sym: usize, k: usize) -> Complex {
        self.bin_values[k].scale(PN_SIGNS[sym])
    }
}

/// Smallest Zadoff–Chu root coprime with `len`.
fn zc_root(len: usize) -> usize {
    (2..len)
        .find(|&r| aqua_dsp::cazac::gcd(r, len) == 1)
        .unwrap_or(1)
}

/// Detector thresholds and search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Normalized cross-correlation level that makes a sample a candidate.
    pub coarse_threshold: f64,
    /// Sliding-correlation metric required to accept a detection (paper:
    /// real preambles exceed 0.6).
    pub accept_threshold: f64,
    /// Sliding-correlation search step in samples (paper: 8).
    pub step: usize,
    /// Maximum number of coarse candidates examined per buffer.
    pub max_candidates: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            coarse_threshold: 0.08,
            accept_threshold: 0.40,
            step: 8,
            max_candidates: 6,
        }
    }
}

/// A successful preamble detection.
#[derive(Debug, Clone, Copy)]
pub struct Detection {
    /// Sample offset of the preamble start within the searched buffer.
    pub offset: usize,
    /// Sliding-correlation metric at the detection point (≈1 for clean
    /// preambles, < 0.2 for noise).
    pub metric: f64,
    /// Peak normalized cross-correlation of the coarse stage.
    pub coarse_corr: f64,
}

/// Normalized sliding segment correlation at a specific offset: divides the
/// eight-symbol window into segments, removes the PN signs, correlates
/// adjacent segments and normalizes by window energy. Returns ≈1 at a true
/// preamble start regardless of SNR scale.
pub fn sliding_metric(rx: &[f64], offset: usize, params: &OfdmParams) -> f64 {
    let n = params.n_fft;
    let need = PREAMBLE_SYMBOLS * n;
    if offset + need > rx.len() {
        return 0.0;
    }
    let seg = |i: usize| &rx[offset + i * n..offset + (i + 1) * n];
    let mut corr = 0.0;
    for i in 0..PREAMBLE_SYMBOLS - 1 {
        corr += PN_SIGNS[i] * PN_SIGNS[i + 1] * inner(seg(i), seg(i + 1));
    }
    let energy: f64 = rx[offset..offset + need].iter().map(|v| v * v).sum();
    if energy < 1e-30 {
        return 0.0;
    }
    // 7 adjacent pairs vs 8 segments of energy: rescale so a clean
    // preamble scores 1.0.
    (corr / energy) * (PREAMBLE_SYMBOLS as f64 / (PREAMBLE_SYMBOLS - 1) as f64)
}

/// Precomputed O(1)-per-offset evaluation of [`sliding_metric`] over a
/// buffer.
///
/// The metric's seven segment-pair inner products are all sums of the
/// lag-`n_fft` product sequence `c[t] = rx[t]·rx[t+n_fft]`, so one prefix
/// sum over `c` (plus one over `rx²` for the energy terms) turns every
/// metric evaluation into a handful of subtractions. A candidate scan that
/// cost O(preamble · positions) becomes O(buffer + positions) — this is
/// what both the batch and streaming detectors run their stage-2 scans on.
///
/// Values match [`sliding_metric`] up to prefix-sum rounding (≈1e-12
/// relative), which the property suite pins down.
pub struct MetricScan {
    n: usize,
    len: usize,
    /// `lag[i] = Σ_{t<i} rx[t]·rx[t+n]`.
    lag: Vec<f64>,
    /// `energy[i] = Σ_{t<i} rx[t]²`.
    energy: Vec<f64>,
}

impl MetricScan {
    /// Builds the prefix sums for `rx` under the given numerology.
    pub fn new(rx: &[f64], params: &OfdmParams) -> Self {
        let n = params.n_fft;
        let lag_terms = rx.len().saturating_sub(n);
        let mut lag = vec![0.0; lag_terms + 1];
        for t in 0..lag_terms {
            lag[t + 1] = lag[t] + rx[t] * rx[t + n];
        }
        let mut energy = vec![0.0; rx.len() + 1];
        for (t, &v) in rx.iter().enumerate() {
            energy[t + 1] = energy[t] + v * v;
        }
        Self {
            n,
            len: rx.len(),
            lag,
            energy,
        }
    }

    /// The sliding segment-correlation metric at `offset` — same contract
    /// as [`sliding_metric`] (0.0 past the buffer end or in silence).
    pub fn metric(&self, offset: usize) -> f64 {
        let n = self.n;
        let need = PREAMBLE_SYMBOLS * n;
        if offset + need > self.len {
            return 0.0;
        }
        let mut corr = 0.0;
        for i in 0..PREAMBLE_SYMBOLS - 1 {
            let a = offset + i * n;
            corr += PN_SIGNS[i] * PN_SIGNS[i + 1] * (self.lag[a + n] - self.lag[a]);
        }
        let energy = self.energy[offset + need] - self.energy[offset];
        if energy < 1e-30 {
            return 0.0;
        }
        (corr / energy) * (PREAMBLE_SYMBOLS as f64 / (PREAMBLE_SYMBOLS - 1) as f64)
    }

    /// Rejects detections whose eight segments carry grossly unequal
    /// energy.
    ///
    /// A true preamble (even through fading) puts comparable energy in
    /// every symbol; a *partially buffered* preamble against near-silence
    /// can still score a high sliding metric from its few matching
    /// segments, which this check catches. In noise the silent segments
    /// fill with noise energy, so genuine low-SNR detections are
    /// unaffected.
    pub fn segments_uniform(&self, offset: usize) -> bool {
        let n = self.n;
        if offset + PREAMBLE_SYMBOLS * n > self.len {
            return false;
        }
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        for i in 0..PREAMBLE_SYMBOLS {
            let e = self.energy[offset + (i + 1) * n] - self.energy[offset + i * n];
            sum += e;
            min = min.min(e);
        }
        min > 0.15 * (sum / PREAMBLE_SYMBOLS as f64)
    }
}

/// Two-stage preamble detection over a buffer. Returns the best accepted
/// detection, or `None`. NaN and ±inf samples are silenced first
/// ([`silence_non_finite`]).
pub fn detect(rx: &[f64], preamble: &Preamble, cfg: &DetectorConfig) -> Option<Detection> {
    let silenced = silence_non_finite(rx);
    let rx: &[f64] = &silenced;
    let params = &preamble.params;
    if rx.len() < preamble.len() {
        return None;
    }
    // Stage 1: coarse normalized cross-correlation.
    let corr = xcorr_normalized(rx, &preamble.samples);
    let mut candidates: Vec<(usize, f64)> = Vec::new();
    // local maxima above threshold, separated by at least one symbol
    let guard = params.n_fft;
    let mut i = 0;
    while i < corr.len() {
        if corr[i].abs() >= cfg.coarse_threshold {
            // find the local peak within the next symbol
            let end = (i + guard).min(corr.len());
            let local = &corr[i..end];
            let peak_rel = argmax(&local.iter().map(|v| v.abs()).collect::<Vec<_>>()).unwrap();
            candidates.push((i + peak_rel, corr[i + peak_rel].abs()));
            i += guard;
        } else {
            i += 1;
        }
    }
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    candidates.truncate(cfg.max_candidates);

    // Stage 2: sliding correlation around each candidate (step `cfg.step`,
    // then refine to single-sample resolution) on the prefix-sum scan.
    let scan = MetricScan::new(rx, params);
    let mut accepted: Vec<Detection> = Vec::new();
    for (cand, coarse) in candidates {
        let lo = cand.saturating_sub(params.n_fft / 2);
        let hi = (cand + params.n_fft / 2).min(rx.len().saturating_sub(preamble.len()));
        if let Some(det) = stage2_evaluate(&scan, lo, hi, coarse, cfg) {
            accepted.push(det);
        }
    }
    // A strong far reflector delivers a *clean delayed copy* of the
    // preamble that can out-score the first arrival; synchronizing to the
    // echo turns the direct path into pre-cursor ISI. Take the earliest
    // acceptable arrival whose metric is within 75 % of the best.
    earliest_within_75pct(&accepted)
}

/// The echo-suppression rule shared by the batch and streaming detectors:
/// among accepted arrivals, the earliest whose metric is within 75 % of
/// the strongest.
fn earliest_within_75pct(accepted: &[Detection]) -> Option<Detection> {
    let best_metric = accepted
        .iter()
        .map(|d| d.metric)
        .fold(f64::NEG_INFINITY, f64::max);
    accepted
        .iter()
        .filter(|d| d.metric >= 0.75 * best_metric)
        .min_by_key(|d| d.offset)
        .copied()
}

/// Stage-2 evaluation shared by the batch and streaming detectors: coarse
/// step scan over `[lo, hi]`, ±step single-sample refinement, accept
/// threshold, and the segment-energy uniformity guard. Offsets are in the
/// scan's own coordinates.
fn stage2_evaluate(
    scan: &MetricScan,
    lo: usize,
    hi: usize,
    coarse: f64,
    cfg: &DetectorConfig,
) -> Option<Detection> {
    let mut local_best = (0usize, f64::NEG_INFINITY);
    let mut pos = lo;
    while pos <= hi {
        let m = scan.metric(pos);
        if m > local_best.1 {
            local_best = (pos, m);
        }
        pos += cfg.step;
    }
    // refine ±step at single-sample resolution
    let refine_lo = local_best.0.saturating_sub(cfg.step);
    let refine_hi = (local_best.0 + cfg.step).min(hi);
    for p in refine_lo..=refine_hi {
        let m = scan.metric(p);
        if m > local_best.1 {
            local_best = (p, m);
        }
    }
    (local_best.1 >= cfg.accept_threshold && scan.segments_uniform(local_best.0)).then_some(
        Detection {
            offset: local_best.0,
            metric: local_best.1,
            coarse_corr: coarse,
        },
    )
}

/// Continuously-running preamble detector: the streaming counterpart of
/// [`detect`] for the phone's live audio path.
///
/// Feed arbitrary-sized sample chunks (any chopping, including empty
/// chunks) with [`push`](StreamingDetector::push); accepted detections
/// come back with offsets in *absolute stream coordinates*. Internally the
/// coarse stage runs on an overlap-save FFT correlator whose block
/// boundaries are fixed by absolute stream position, so for a given
/// sequence of [`push`](StreamingDetector::push) samples ending in one
/// [`flush`](StreamingDetector::flush) the emitted detections are
/// bit-identical regardless of chunk sizes ([`poll`](StreamingDetector::poll)
/// trades this for latency — see there); the fine stage evaluates the
/// same two-stage accept/reject decisions as [`detect`] on a local
/// [`MetricScan`].
///
/// Differences from the batch API, by design:
///
/// - The batch call returns at most one detection per buffer; the stream
///   emits one detection per *echo group* (acceptances within one symbol
///   core of each other compete under the same earliest-within-75 % rule),
///   so multiple packets in one stream each produce a detection.
/// - Outputs lag the input by up to one FFT block (≈`2·preamble` samples)
///   plus the stage-1 peak-search guard; [`flush`](StreamingDetector::flush)
///   forces everything computable out at end of stream or on a latency
///   deadline.
/// - The batch detector ranks coarse candidates buffer-wide and keeps the
///   top [`DetectorConfig::max_candidates`]; the stream, which has no
///   buffer notion, instead budgets `max_candidates` stage-2 evaluations
///   per preamble-length region in arrival order.
pub struct StreamingDetector {
    preamble: Preamble,
    cfg: DetectorConfig,
    xcorr: StreamingNormalizedXcorr,
    /// Raw sample history `[sample_base, total)` for stage-2 windows.
    samples: Vec<f64>,
    sample_base: usize,
    /// Total samples pushed.
    total: usize,
    /// Normalized correlation history `[corr_base, ..)`.
    corr: Vec<f64>,
    corr_base: usize,
    /// Next correlation index the stage-1 scan will examine.
    scan_pos: usize,
    /// Coarse candidates (index, |corr|) awaiting stage-2, in stream order.
    pending: VecDeque<(usize, f64)>,
    /// Start of the current stage-2 budget region and evaluations spent.
    region_start: usize,
    region_spent: usize,
    /// Accepted detections of the current echo group.
    group: Vec<Detection>,
}

impl StreamingDetector {
    /// Creates a detector for `preamble` (plans the overlap-save engine
    /// and caches the template spectrum once).
    pub fn new(preamble: Preamble, cfg: DetectorConfig) -> Self {
        let xcorr = StreamingNormalizedXcorr::new(&preamble.samples);
        Self {
            preamble,
            cfg,
            xcorr,
            samples: Vec::new(),
            sample_base: 0,
            total: 0,
            corr: Vec::new(),
            corr_base: 0,
            scan_pos: 0,
            pending: VecDeque::new(),
            region_start: 0,
            region_spent: 0,
            group: Vec::new(),
        }
    }

    /// The preamble this detector scans for.
    pub fn preamble(&self) -> &Preamble {
        &self.preamble
    }

    /// Smallest absolute sample index a future detection can still refer
    /// to. Callers that keep their own stream history (e.g. the receiver's
    /// packet buffer) may discard everything below this.
    pub fn low_watermark(&self) -> usize {
        let back = self.preamble.params.n_fft / 2 + self.cfg.step;
        let mut low = self.scan_pos.saturating_sub(back);
        if let Some(&(cand, _)) = self.pending.front() {
            low = low.min(cand.saturating_sub(back));
        }
        for d in &self.group {
            low = low.min(d.offset);
        }
        low
    }

    /// Feeds one chunk of samples (any length); returns the detections
    /// that became final.
    pub fn push(&mut self, chunk: &[f64]) -> Vec<Detection> {
        self.samples.extend_from_slice(chunk);
        self.total += chunk.len();
        let emitted = self.xcorr.push(chunk);
        self.corr.extend(emitted);
        let mut out = Vec::new();
        self.advance(false, &mut out);
        self.trim();
        out
    }

    /// Forces out everything computable from the samples pushed so far:
    /// flushes the overlap-save engine (zero-padding its final block),
    /// resolves candidates with end-of-stream clamping exactly like the
    /// batch detector, and finalizes the open echo group. Pushing more
    /// samples afterwards is fine.
    pub fn flush(&mut self) -> Vec<Detection> {
        let emitted = self.xcorr.flush();
        self.corr.extend(emitted);
        let mut out = Vec::new();
        self.advance(true, &mut out);
        self.finalize_group(&mut out);
        self.trim();
        out
    }

    /// Correlation outputs that are computable from the pushed samples but
    /// still parked inside the overlap-save engine waiting for a full FFT
    /// block.
    fn pending_lag(&self) -> usize {
        let computable = (self.total + 1).saturating_sub(self.preamble.len());
        computable.saturating_sub(self.corr_base + self.corr.len())
    }

    /// Deadline-driven progress: when more than `max_lag` computable
    /// correlation outputs are parked in the overlap-save engine, forces
    /// the engine forward (one partial FFT block) and resolves whatever
    /// the normal lookahead rules allow — *without* the end-of-stream
    /// clamping that [`flush`](StreamingDetector::flush) applies, so the
    /// decision *rules* match an uninterrupted stream exactly.
    ///
    /// Forcing a partial block changes the FFT-block alignment of later
    /// correlation outputs, so their values differ from the uninterrupted
    /// stream's at rounding level (≈1e-12) — a threshold crossing sitting
    /// exactly on [`DetectorConfig::coarse_threshold`] could in principle
    /// resolve differently. Polling therefore trades the bit-identical
    /// chunking guarantee for bounded latency; decisions on real signals
    /// (which clear thresholds by orders of magnitude) are unaffected.
    ///
    /// This is what bounds detection latency for a live receiver: the
    /// paper's feedback protocol gives the receiver only the inter-frame
    /// gap (≈0.1 s) to answer, while a full FFT block is ≈2 preamble
    /// lengths (≈0.36 s at 50 Hz spacing). Call it after
    /// [`push`](StreamingDetector::push) with the latency budget you can
    /// afford (one `n_fft` is a good default); the cost is one extra block
    /// FFT per call.
    pub fn poll(&mut self, max_lag: usize) -> Vec<Detection> {
        if self.pending_lag() <= max_lag {
            return Vec::new();
        }
        let emitted = self.xcorr.flush();
        self.corr.extend(emitted);
        let mut out = Vec::new();
        self.advance(false, &mut out);
        self.trim();
        out
    }

    /// Clears all stream state, keeping the FFT plan and the cached
    /// template spectrum, so a long-lived detector can start a new scan.
    pub fn reset(&mut self) {
        self.xcorr.reset();
        self.samples.clear();
        self.sample_base = 0;
        self.total = 0;
        self.corr.clear();
        self.corr_base = 0;
        self.scan_pos = 0;
        self.pending.clear();
        self.region_start = 0;
        self.region_spent = 0;
        self.group.clear();
    }

    /// Runs stage 1 over newly available correlation, stage 2 over
    /// resolvable candidates, and group finalization. With `at_end` the
    /// remaining lookahead windows are clamped to the stream end, exactly
    /// as the batch detector clamps to its buffer end.
    fn advance(&mut self, at_end: bool, out: &mut Vec<Detection>) {
        let n = self.preamble.params.n_fft;
        let m = self.preamble.len();
        let guard = n;
        let corr_end = self.corr_base + self.corr.len();

        // Stage 1: threshold crossings + local peak within `guard`.
        while self.scan_pos < corr_end {
            let v = self.corr[self.scan_pos - self.corr_base].abs();
            if v < self.cfg.coarse_threshold {
                self.scan_pos += 1;
                continue;
            }
            if !at_end && self.scan_pos + guard > corr_end {
                break; // peak search needs more lookahead
            }
            let end = (self.scan_pos + guard).min(corr_end);
            let mut peak = (self.scan_pos, 0.0f64);
            for i in self.scan_pos..end {
                let a = self.corr[i - self.corr_base].abs();
                if a > peak.1 {
                    peak = (i, a);
                }
            }
            self.pending.push_back(peak);
            self.scan_pos += guard;
        }

        // Stage 2: resolve candidates whose sample lookahead has arrived.
        while let Some(&(cand, coarse)) = self.pending.front() {
            let hi_raw = cand + n / 2;
            if !at_end && self.total < hi_raw + m {
                break;
            }
            self.pending.pop_front();
            if cand >= self.region_start + m {
                self.region_start = cand;
                self.region_spent = 0;
            }
            self.region_spent += 1;
            if self.region_spent > self.cfg.max_candidates {
                continue;
            }
            let lo = cand.saturating_sub(n / 2);
            let hi = hi_raw.min(self.total.saturating_sub(m));
            if hi < lo || hi + m > self.total {
                continue;
            }
            // local scan window, padded one `step` below `lo` so the ±step
            // refinement can reach the same positions as the batch scan
            let win_lo = lo.saturating_sub(self.cfg.step).max(self.sample_base);
            let window = &self.samples[win_lo - self.sample_base..hi + m - self.sample_base];
            let scan = MetricScan::new(window, &self.preamble.params);
            if let Some(det) = stage2_evaluate(&scan, lo - win_lo, hi - win_lo, coarse, &self.cfg) {
                let det = Detection {
                    offset: det.offset + win_lo,
                    ..det
                };
                if let Some(first) = self.group.first() {
                    if det.offset > first.offset + n {
                        self.finalize_group(out);
                    }
                }
                self.group.push(det);
            }
        }

        // Finalize the open echo group once nothing can join it: every
        // future acceptance lies at or above the scan frontier minus the
        // stage-2 search back-reach. The echo horizon is one symbol core —
        // a reflector 30 m longer than the direct path at 48 kHz — so a
        // detection is final ≈20 ms after its preamble ends, inside the
        // protocol's feedback gap.
        if let Some(first) = self.group.first() {
            let back = n / 2 + self.cfg.step;
            let frontier = self
                .pending
                .front()
                .map(|&(c, _)| c)
                .unwrap_or(self.scan_pos)
                .min(self.scan_pos);
            if frontier.saturating_sub(back) > first.offset + n {
                self.finalize_group(out);
            }
        }
    }

    /// Applies the earliest-within-75 % echo rule to the open group.
    fn finalize_group(&mut self, out: &mut Vec<Detection>) {
        if let Some(d) = earliest_within_75pct(&self.group) {
            out.push(d);
        }
        self.group.clear();
    }

    /// Drops history no future decision can reference.
    fn trim(&mut self) {
        let low = self.low_watermark();
        if low > self.sample_base {
            let drop = (low - self.sample_base).min(self.samples.len());
            self.samples.drain(..drop);
            self.sample_base += drop;
        }
        if self.scan_pos > self.corr_base {
            let drop = (self.scan_pos - self.corr_base).min(self.corr.len());
            self.corr.drain(..drop);
            self.corr_base += drop;
        }
    }
}

/// Convenience one-shot run of the streaming detector over a full capture:
/// push, flush, first detection. The streaming analogue of [`detect`] —
/// used by the evaluation harness and the equivalence test suite. Like
/// [`detect`], it silences NaN and ±inf samples first.
///
/// Each worker thread keeps one long-lived [`StreamingDetector`] per
/// (numerology, config) and `reset`s it per capture, so the overlap-save
/// engine and template spectrum are planned once instead of per call.
/// `reset` restores the exact post-construction state (the golden suite
/// pins this), so decisions are identical to a fresh detector; a change
/// of numerology or thresholds rebuilds.
pub fn detect_streaming(
    rx: &[f64],
    preamble: &Preamble,
    cfg: &DetectorConfig,
) -> Option<Detection> {
    use std::cell::RefCell;
    thread_local! {
        static DETECTOR: RefCell<Option<(OfdmParams, DetectorConfig, StreamingDetector)>> =
            const { RefCell::new(None) };
    }
    DETECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        // `Preamble::new` is a pure function of its numerology, but the
        // sample buffer is a `pub` field — compare it outright (a cheap
        // memcmp next to the scan) so a caller-modified template can
        // never alias a cached detector planned from the original.
        let stale = !matches!(&*slot, Some((p, c, d))
            if *p == preamble.params && c == cfg && d.preamble.samples == preamble.samples);
        if stale {
            *slot = Some((
                preamble.params,
                *cfg,
                StreamingDetector::new(preamble.clone(), *cfg),
            ));
        }
        let det = &mut slot.as_mut().unwrap().2;
        det.reset();
        let mut found = det.push(&silence_non_finite(rx));
        found.extend(det.flush());
        found.into_iter().next()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noise(n: usize, rms: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                rms * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn preamble_has_expected_length_and_sign_pattern() {
        let p = Preamble::new(OfdmParams::default());
        assert_eq!(p.len(), 8 * 960);
        // symbols 0 and 6 are negated copies of symbol 1
        let n = 960;
        for j in 0..n {
            assert!((p.samples[j] + p.samples[n + j]).abs() < 1e-12);
            assert!((p.samples[6 * n + j] + p.samples[n + j]).abs() < 1e-12);
        }
    }

    #[test]
    fn sliding_metric_is_one_at_true_offset() {
        let p = Preamble::new(OfdmParams::default());
        let mut rx = vec![0.0; 2000];
        rx.extend_from_slice(&p.samples);
        rx.extend(vec![0.0; 2000]);
        let m = sliding_metric(&rx, 2000, p.params());
        assert!((m - 1.0).abs() < 1e-9, "metric {m}");
    }

    #[test]
    fn detects_clean_preamble_at_exact_offset() {
        let p = Preamble::new(OfdmParams::default());
        let mut rx = noise(3000, 0.001, 1);
        rx.extend_from_slice(&p.samples);
        rx.extend(noise(3000, 0.001, 2));
        let det = detect(&rx, &p, &DetectorConfig::default()).expect("detection");
        assert_eq!(det.offset, 3000);
        assert!(det.metric > 0.9);
    }

    #[test]
    fn detects_preamble_in_heavy_noise() {
        // preamble rms is target_rms=0.2; noise rms 0.1 => +6 dB wideband
        // SNR (the sliding metric's theoretical value is 1/(1+N/S) ≈ 0.8,
        // comfortably above the 0.5 accept threshold; at 0 dB it sits at
        // exactly 0.5, the detector's design limit)
        let p = Preamble::new(OfdmParams::default());
        let mut rx = noise(1000 + p.len() + 4000, 0.1, 3);
        for (i, &s) in p.samples.iter().enumerate() {
            rx[1000 + i] += s;
        }
        let det = detect(&rx, &p, &DetectorConfig::default()).expect("detection at 0 dB");
        assert!(
            det.offset.abs_diff(1000) <= 4,
            "offset {} (expected ≈1000)",
            det.offset
        );
    }

    #[test]
    fn rejects_pure_noise() {
        let p = Preamble::new(OfdmParams::default());
        let rx = noise(20000, 0.3, 4);
        assert!(detect(&rx, &p, &DetectorConfig::default()).is_none());
    }

    #[test]
    fn rejects_impulsive_bursts() {
        // Spiky noise can fool raw cross-correlation; the sliding metric
        // must stay below the accept threshold.
        let p = Preamble::new(OfdmParams::default());
        let mut rx = noise(20000, 0.01, 5);
        for burst in 0..10 {
            let pos = 1500 + burst * 1700;
            for i in 0..60 {
                rx[pos + i] +=
                    3.0 * ((-(i as f64)) / 15.0).exp() * if i % 2 == 0 { 1.0 } else { -1.0 };
            }
        }
        assert!(detect(&rx, &p, &DetectorConfig::default()).is_none());
    }

    #[test]
    fn detects_attenuated_preamble() {
        let p = Preamble::new(OfdmParams::default());
        let mut rx = noise(30000, 0.0005, 6);
        for (i, &s) in p.samples.iter().enumerate() {
            rx[12000 + i] += s * 0.01; // 40 dB below full scale
        }
        let det = detect(&rx, &p, &DetectorConfig::default()).expect("weak preamble");
        assert!(det.offset.abs_diff(12000) <= 4);
    }

    #[test]
    fn metric_of_noise_is_low() {
        let p = Preamble::new(OfdmParams::default());
        let rx = noise(20000, 0.5, 7);
        let mut worst: f64 = 0.0;
        let mut pos = 0;
        while pos + p.len() <= rx.len() {
            worst = worst.max(sliding_metric(&rx, pos, p.params()));
            pos += 64;
        }
        assert!(worst < 0.2, "noise metric reached {worst}");
    }

    #[test]
    fn short_buffer_returns_none() {
        let p = Preamble::new(OfdmParams::default());
        assert!(detect(&[0.0; 100], &p, &DetectorConfig::default()).is_none());
    }

    #[test]
    fn partial_preamble_in_quiet_water_is_not_accepted() {
        // Only the first 3 of 8 symbols have arrived: the self-similarity
        // of the repeated cores must not produce a (wrong) detection.
        let p = Preamble::new(OfdmParams::default());
        let mut rx = noise(9000, 0.0005, 11);
        let partial = &p.samples[..3 * 960];
        let pos = rx.len() - partial.len();
        for (i, &s) in partial.iter().enumerate() {
            rx[pos + i] += s;
        }
        assert!(
            detect(&rx, &p, &DetectorConfig::default()).is_none(),
            "partial preamble must be rejected until fully buffered"
        );
    }
}
