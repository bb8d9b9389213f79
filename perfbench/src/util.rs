//! Small shared helpers: seed derivation, order statistics, process
//! memory, and the in-memory span log the traced runs write.

use std::time::Instant;

/// SplitMix64 finalizer: derives decorrelated sub-seeds from the run seed.
pub fn derive(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of the samples (mean of the middle pair for even counts), 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile by linear interpolation between closest ranks, 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - rank.floor())
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Resets this process's peak RSS to its current RSS (Linux
/// `clear_refs` mode 5), so the next `peak_rss_mb` covers only what runs
/// after it. Where the kernel refuses, the peak stays cumulative; it is
/// printed, not gated.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// One timed call at a layer boundary, relative to the log's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `phy.detect`.
    pub name: &'static str,
    /// Identifier of the unit of work the span belongs to (a trial, a
    /// transfer, a pool call).
    pub unit: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory during a traced run and written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span start times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f`, records it as a span, and returns its value.
    pub fn time<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.push(name, unit, t0);
        r
    }

    /// Records a span that started at `t0` and ends now.
    pub fn push(&mut self, name: &'static str, unit: u64, t0: Instant) {
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let start_ns = t0.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            unit,
            start_ns,
            dur_ns,
        });
    }

    /// Total milliseconds over spans with this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// Number of spans with this name.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes the spans as JSON lines: `{"name", "unit", "start_ns", "dur_ns"}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.unit, s.start_ns, s.dur_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn derive_separates_labels() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_eq!(derive(5, 9), derive(5, 9));
    }
}
