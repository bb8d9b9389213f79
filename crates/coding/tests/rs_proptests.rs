//! Property tests pinning the Reed–Solomon codec (DESIGN.md §12): exact
//! roundtrips under every erasure/error pattern inside the design distance
//! `2·errors + erasures ≤ n − k`, clean failures beyond it, and stripe-level
//! packet recovery — the contract the bulk transfer pipeline leans on.

use aqua_coding::rs::ReedSolomon;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws `count` distinct positions in `0..n`.
fn distinct_positions(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    // Fisher–Yates prefix shuffle
    for i in 0..count.min(n) {
        let j = rng.gen_range(i..n);
        all.swap(i, j);
    }
    all.truncate(count);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any erasure pattern up to the full parity budget recovers exactly.
    #[test]
    fn erasures_up_to_design_distance_roundtrip(
        n in 4usize..48,
        parity in 1usize..12,
        seed in 0u64..10_000,
    ) {
        prop_assume!(parity < n - 1);
        let k = n - parity;
        let rs = ReedSolomon::new(n, k);
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..k).map(|_| rng.gen_range(0..=255u8)).collect();
        let word = rs.encode(&data);

        let f = rng.gen_range(0..=parity);
        let erasures = distinct_positions(&mut rng, n, f);
        let mut bad = word.clone();
        for &e in &erasures {
            bad[e] = rng.gen_range(0..=255u8); // garbage, possibly unchanged
        }
        prop_assert_eq!(rs.decode(&bad, &erasures), Some(word.clone()));
        prop_assert_eq!(rs.decode_data(&bad, &erasures), Some(data));
    }

    /// Any mix with 2·errors + erasures ≤ n − k recovers exactly. Errors
    /// flip the byte (guaranteed non-trivial); erasures may be garbage.
    #[test]
    fn mixed_errors_and_erasures_roundtrip(
        n in 6usize..48,
        parity in 2usize..12,
        seed in 0u64..10_000,
    ) {
        prop_assume!(parity < n - 1);
        let k = n - parity;
        let rs = ReedSolomon::new(n, k);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE44A);
        let data: Vec<u8> = (0..k).map(|_| rng.gen_range(0..=255u8)).collect();
        let word = rs.encode(&data);

        let e = rng.gen_range(0..=(parity / 2));
        let f = rng.gen_range(0..=(parity - 2 * e));
        let positions = distinct_positions(&mut rng, n, e + f);
        let mut bad = word.clone();
        for &p in &positions[..e] {
            bad[p] ^= rng.gen_range(1..=255u8); // genuine error
        }
        let erasures = positions[e..].to_vec();
        for &p in &erasures {
            bad[p] = rng.gen_range(0..=255u8);
        }
        prop_assert_eq!(rs.decode(&bad, &erasures), Some(word));
    }

    /// One erasure past the parity budget never silently "succeeds": the
    /// decoder reports failure rather than fabricating a different word.
    #[test]
    fn erasures_beyond_budget_fail(
        n in 5usize..40,
        parity in 1usize..10,
        seed in 0u64..10_000,
    ) {
        prop_assume!(parity < n - 2);
        let rs = ReedSolomon::new(n, n - parity);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
        let data: Vec<u8> = (0..n - parity).map(|_| rng.gen_range(0..=255u8)).collect();
        let word = rs.encode(&data);
        let erasures = distinct_positions(&mut rng, n, parity + 1);
        let mut bad = word.clone();
        for &p in &erasures {
            bad[p] = rng.gen_range(0..=255u8);
        }
        prop_assert_eq!(rs.decode(&bad, &erasures), None);
    }

    /// Corruption beyond the design distance either fails or — when the
    /// noise happens to land on a codeword coset leader — decodes to *some*
    /// codeword; it must never panic and never return a non-codeword.
    #[test]
    fn overloaded_decode_never_panics_or_lies(
        n in 6usize..40,
        parity in 2usize..8,
        flips in 1usize..12,
        seed in 0u64..10_000,
    ) {
        prop_assume!(parity < n - 1);
        let k = n - parity;
        let rs = ReedSolomon::new(n, k);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0F10);
        let data: Vec<u8> = (0..k).map(|_| rng.gen_range(0..=255u8)).collect();
        let word = rs.encode(&data);
        let mut bad = word.clone();
        for &p in &distinct_positions(&mut rng, n, flips.min(n)) {
            bad[p] ^= rng.gen_range(1..=255u8);
        }
        if let Some(out) = rs.decode(&bad, &[]) {
            // whatever came back must itself be a valid codeword
            let reencoded = rs.encode(&out[..k]);
            prop_assert_eq!(out, reencoded);
        }
    }

    /// Stripe recovery over packet generations: any ≤ parity lost packets
    /// reconstruct every data packet bit-exact.
    #[test]
    fn stripe_recovery_roundtrip(
        k in 1usize..16,
        parity in 1usize..6,
        len in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let n = k + parity;
        prop_assume!(n <= 255);
        let rs = ReedSolomon::new(n, k);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57121);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..len).map(|_| rng.gen_range(0..=255u8)).collect())
            .collect();
        let parity_packets = rs.encode_stripes(&data);
        let mut slots: Vec<Option<Vec<u8>>> =
            data.iter().chain(&parity_packets).cloned().map(Some).collect();
        let lost = rng.gen_range(0..=parity);
        for &p in &distinct_positions(&mut rng, n, lost) {
            slots[p] = None;
        }
        prop_assert_eq!(rs.recover_stripes(&slots, len), Some(data));
    }
}
