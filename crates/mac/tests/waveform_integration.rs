//! Waveform-level validation of carrier sensing: the energy detector runs
//! on real audio rendered through the shared medium, confirming the
//! envelope-level MAC simulator's sensing assumptions.

use aqua_channel::device::Device;
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::medium::Medium;
use aqua_channel::mobility::Trajectory;
use aqua_mac::carrier::{calibrate_threshold, CarrierSense};
use aqua_phy::bandselect::Band;
use aqua_phy::ofdm::modulate_data;
use aqua_phy::params::OfdmParams;

fn build_medium() -> (Medium, usize, usize) {
    let mut medium = Medium::new(Environment::preset(Site::Bridge), 48_000.0, 11);
    let a = medium.add_node(
        Device::default_rig(1),
        Trajectory::fixed(Pos::new(0.0, 0.0, 1.0)),
    );
    let b = medium.add_node(
        Device::default_rig(2),
        Trajectory::fixed(Pos::new(7.0, 0.0, 1.0)),
    );
    (medium, a, b)
}

#[test]
fn neighbor_packet_reads_busy_on_real_audio() {
    let (mut medium, a, b) = build_medium();
    // calibrate on ambient noise heard by node b
    let ambient = medium.capture(b, 0, 48_000);
    let threshold = calibrate_threshold(&ambient, 48_000.0, 4.0);
    let mut cs = CarrierSense::new(48_000.0, threshold);

    // a real modem packet from node a, one second into the experiment
    let params = OfdmParams::default();
    let packet = modulate_data(&params, Band::new(0, 59), &[1u8; 16]);
    medium.transmit(a, 48_000, &packet);

    // before the packet: idle
    cs.feed(&medium.capture(b, 40_000, 7_680));
    assert!(!cs.busy(), "pre-packet audio must read idle");

    // during the packet: busy — one 80 ms window starting just after the
    // ~5 ms propagation delay (a 16-bit full-band packet lasts only 43 ms,
    // so a second window would already fall past its end)
    cs.feed(&medium.capture(b, 48_400, 3_840));
    assert!(cs.busy(), "neighbor packet must read busy");

    // after the packet: idle again
    let after = 48_000 + packet.len() as u64 + 4_800;
    cs.feed(&medium.capture(b, after, 7_680));
    cs.feed(&medium.capture(b, after + 7_680, 7_680));
    assert!(!cs.busy(), "channel must go idle after the packet ends");
}

#[test]
fn narrowband_feedback_symbol_is_also_sensed() {
    // Even a 2-tone feedback symbol carries full transmit power in-band
    // and must trip the carrier sense of a nearby node.
    let (mut medium, a, b) = build_medium();
    let ambient = medium.capture(b, 0, 48_000);
    let threshold = calibrate_threshold(&ambient, 48_000.0, 4.0);
    let mut cs = CarrierSense::new(48_000.0, threshold);

    let params = OfdmParams::default();
    let fb = aqua_phy::feedback::encode_feedback(&params, Band::new(10, 40));
    medium.transmit(a, 96_000, &fb);
    cs.feed(&medium.capture(b, 96_200, 3_840));
    assert!(cs.busy(), "feedback symbol must be sensed");
}

#[test]
fn distant_transmitter_below_margin_reads_idle() {
    // A very distant transmitter falls under the 4x noise margin — the
    // hidden-node situation the envelope simulator models with low gains.
    let mut medium = Medium::new(Environment::preset(Site::Lake), 48_000.0, 13);
    let a = medium.add_node(
        Device::default_rig(1),
        Trajectory::fixed(Pos::new(0.0, 0.0, 1.0)),
    );
    let b = medium.add_node(
        Device::default_rig(2),
        Trajectory::fixed(Pos::new(150.0, 0.0, 1.0)),
    );
    let ambient = medium.capture(b, 0, 48_000);
    let threshold = calibrate_threshold(&ambient, 48_000.0, 4.0);
    let mut cs = CarrierSense::new(48_000.0, threshold);

    let params = OfdmParams::default();
    let packet = modulate_data(&params, Band::new(0, 59), &[0u8; 16]);
    medium.transmit(a, 48_000, &packet);
    cs.feed(&medium.capture(b, 53_000, 7_680));
    assert!(
        !cs.busy(),
        "150 m transmitter should sit below the sense margin"
    );
}
