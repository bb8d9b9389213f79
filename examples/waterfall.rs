//! ASCII waterfall: watch a packet exchange on the air.
//!
//! Renders the spectrogram of what Bob's microphone hears during one
//! adaptive exchange — preamble, ID tone, the silent feedback gap, and the
//! band-limited data section are all visible.
//!
//! ```sh
//! cargo run --release --example waterfall
//! ```

use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};
use aqua_dsp::spectrum::stft;
use aqua_dsp::window::Window;
use aqua_phy::bandselect::Band;
use aqua_phy::frame::{build_header, FrameConfig};
use aqua_phy::ofdm::modulate_data;
use aqua_phy::preamble::Preamble;

const SHADES: [char; 7] = [' ', '.', ':', '-', '=', '#', '@'];

fn main() {
    let frame = FrameConfig::default();
    let preamble = Preamble::new(frame.params);
    let band = Band::new(14, 40); // the band "Bob picked" for this packet

    // Alice's transmission on her symbol clock: header, silence, data.
    let mut tx = build_header(&frame, &preamble, 7);
    tx.resize(frame.data_start_offset(), 0.0);
    tx.extend(modulate_data(&frame.params, band, &[1u8; 16]));

    let mut link = Link::new(LinkConfig::s9_pair(
        Environment::preset(Site::Lake),
        Pos::new(0.0, 0.0, 1.0),
        Pos::new(10.0, 0.0, 1.0),
        99,
    ));
    let rx = link.transmit(&tx, 0.0);

    let st = stft(&rx, 1024, 2048, SAMPLE_RATE, Window::Hann);
    // restrict to 0.5-4.5 kHz
    let lo = (500.0 / (SAMPLE_RATE / 1024.0)) as usize;
    let hi = (4500.0 / (SAMPLE_RATE / 1024.0)) as usize;

    let peak = st
        .frames
        .iter()
        .flat_map(|f| f[lo..hi].iter())
        .cloned()
        .fold(1e-30, f64::max);

    println!("What Bob hears (lake, 10 m) — time -> rows, frequency -> columns (0.5-4.5 kHz)\n");
    println!("          {}", "-".repeat(hi - lo));
    for (f, t) in st.frames.iter().zip(&st.times) {
        let row: String = f[lo..hi]
            .iter()
            .map(|&p| {
                let db = 10.0 * (p / peak).max(1e-12).log10();
                let idx =
                    (((db + 48.0) / 48.0).clamp(0.0, 1.0) * (SHADES.len() - 1) as f64) as usize;
                SHADES[idx]
            })
            .collect();
        let label = annotate(*t, &frame);
        println!("{t:>6.2} s |{row}| {label}");
    }
    println!("          {}", "-".repeat(hi - lo));
    println!(
        "\nband sent: bins {}..{} = {:.0}-{:.0} Hz",
        band.start,
        band.end,
        frame.params.bin_freq_hz(band.start),
        frame.params.bin_freq_hz(band.end)
    );
}

fn annotate(t: f64, frame: &FrameConfig) -> &'static str {
    let fs = SAMPLE_RATE;
    let preamble_end = 8.0 * 960.0 / fs;
    let header_end = frame.header_len() as f64 / fs;
    let data_start = frame.data_start_offset() as f64 / fs;
    if t < preamble_end {
        "<- preamble"
    } else if t < header_end {
        "<- receiver ID tone"
    } else if t < data_start {
        "<- silent gap (feedback happens here)"
    } else {
        "<- data section (selected band only)"
    }
}
