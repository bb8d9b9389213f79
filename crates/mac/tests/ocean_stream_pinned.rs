//! Pins the raw event stream of the ocean event core on sparse
//! deployments.
//!
//! `ocean_determinism` and `ocean_equivalence` check aggregate outputs on
//! near-complete graphs, where every node hears almost every other. Here
//! the core runs over a `GeoMedium` of a few hundred nodes, where each
//! node hears only its spatial neighbourhood, and a recording `SimHooks`
//! hashes every transmission and every `Reception` field by field (floats
//! by bit pattern, interferers in the order the core reports them). A
//! change to which interferers are found, to their powers or overlaps, or
//! to the order they are listed in moves a hash even where no aggregate
//! moves.

use aqua_mac::ocean::churn::{ChurnConfig, ChurnSchedule};
use aqua_mac::ocean::event::{EventCore, Reception, SimHooks};
use aqua_mac::ocean::topology::{GeoMedium, OceanTopology, RangeGain, NO_DEST};
use aqua_mac::ocean::{OceanConfig, TopologyKind};

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

/// Hooks that record the stream: fixed nearest-neighbour destinations,
/// geometric propagation delays and an optional availability schedule.
struct Recorder<'a> {
    medium: &'a GeoMedium,
    dest: &'a [u32],
    down: Option<&'a ChurnSchedule>,
    transmissions: u64,
    tx_hash: Fnv,
    receptions: u64,
    /// Receptions with two or more interferers: the ones whose
    /// interferer order the hash pins.
    multi: u64,
    rx_hash: Fnv,
}

impl SimHooks for Recorder<'_> {
    fn dest(&mut self, node: usize) -> Option<u32> {
        Some(self.dest[node]).filter(|&d| d != NO_DEST)
    }
    fn prop_delay_s(&self, tx: usize, rx: usize) -> f64 {
        self.medium.prop_delay_s(tx, rx)
    }
    fn max_prop_delay_s(&self) -> f64 {
        self.medium.max_prop_delay_s()
    }
    fn on_transmit(&mut self, node: usize, t_s: f64, _access_delay_s: f64) {
        self.transmissions += 1;
        self.tx_hash.word(node as u64);
        self.tx_hash.word(t_s.to_bits());
    }
    fn on_reception(&mut self, rx: Reception) {
        self.receptions += 1;
        self.multi += u64::from(rx.interferers.len() >= 2);
        let h = &mut self.rx_hash;
        h.word(u64::from(rx.tx));
        h.word(u64::from(rx.dest));
        h.word(rx.start_s.to_bits());
        h.word(rx.arrival_s.to_bits());
        h.word(rx.access_delay_s.to_bits());
        h.word(u64::from(rx.dest_busy));
        h.word(rx.interferers.len() as u64);
        for itf in &rx.interferers {
            h.word(u64::from(itf.node));
            h.word(itf.power.to_bits());
            h.word(itf.overlap_s.to_bits());
        }
    }
    fn wake_at(&self, node: usize, slot: u64) -> Option<u64> {
        self.down.and_then(|d| d.wake_at(node, slot))
    }
}

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Stream {
    transmissions: u64,
    tx_hash: u64,
    receptions: u64,
    multi: u64,
    rx_hash: u64,
    events: u64,
    peak_heap: usize,
}

/// Runs a 30-minute deployment of `nodes` nodes of `kind` through the
/// event core, optionally gated by the sleep schedule `churn` draws.
fn stream(kind: TopologyKind, nodes: usize, seed: u64, churn: Option<ChurnConfig>) -> Stream {
    let cfg = OceanConfig::deployment(kind, nodes, 1800.0, seed);
    let rg = RangeGain::lake();
    let topo = OceanTopology::generate(kind, nodes, seed, &rg);
    let medium = GeoMedium::new(topo.positions, rg);
    let max_slots = (cfg.sim_duration_s / cfg.mac.slot_s).ceil() as u64;
    let down = churn
        .map(|c| ChurnSchedule::generate(&c, nodes, max_slots, cfg.mac.slot_s, seed ^ 0xC08A_12D5));
    let mut rec = Recorder {
        medium: &medium,
        dest: &topo.dest,
        down: down.as_ref(),
        transmissions: 0,
        tx_hash: Fnv::new(),
        receptions: 0,
        multi: 0,
        rx_hash: Fnv::new(),
    };
    let core = EventCore::new(&cfg.mac, &medium, &mut rec, seed).run(max_slots);
    Stream {
        transmissions: rec.transmissions,
        tx_hash: rec.tx_hash.0,
        receptions: rec.receptions,
        multi: rec.multi,
        rx_hash: rec.rx_hash.0,
        events: core.events,
        peak_heap: core.peak_heap,
    }
}

#[test]
fn grid_400_stream_is_pinned() {
    let s = stream(TopologyKind::Grid, 400, 21, None);
    assert_eq!(
        s,
        Stream {
            transmissions: 2557,
            tx_hash: 0xd379_628c_8813_fa0b,
            receptions: 2557,
            multi: 177,
            rx_hash: 0x3042_bc95_7b06_063b,
            events: 7865,
            peak_heap: 408,
        }
    );
}

#[test]
fn swarm_300_stream_is_pinned() {
    let s = stream(TopologyKind::Swarm, 300, 22, None);
    assert_eq!(
        s,
        Stream {
            transmissions: 1901,
            tx_hash: 0x022b_27a7_e314_316b,
            receptions: 1901,
            multi: 146,
            rx_hash: 0x9357_b9c5_db2a_cfe3,
            events: 6977,
            peak_heap: 306,
        }
    );
}

#[test]
fn fleet_300_stream_is_pinned() {
    let s = stream(TopologyKind::Fleet, 300, 23, None);
    assert_eq!(
        s,
        Stream {
            transmissions: 1901,
            tx_hash: 0x734a_e072_daea_676f,
            receptions: 1901,
            multi: 0,
            rx_hash: 0x1a41_dbd9_d43a_cbf5,
            events: 5745,
            peak_heap: 307,
        }
    );
}

#[test]
fn churned_grid_stream_is_pinned() {
    let churn = ChurnConfig {
        mtbf_s: 600.0,
        mttr_s: 120.0,
        duty_cycle: 0.7,
        duty_period_s: 90.0,
    };
    let s = stream(TopologyKind::Grid, 300, 24, Some(churn));
    assert_eq!(
        s,
        Stream {
            transmissions: 1771,
            tx_hash: 0x9080_563b_738e_6c4e,
            receptions: 1771,
            multi: 91,
            rx_hash: 0x2643_c6c6_b789_a803,
            events: 6256,
            peak_heap: 306,
        }
    );
}
