//! The process-wide memo and the FFT plans shared through it: racing
//! threads read one value, a `make` may read the memo it fills, a
//! panicking `make` leaves the memo usable, and one plan transforms on
//! several threads at once with the bits of a private plan.

use aqua_dsp::complex::Complex;
use aqua_dsp::fft::{planner, real_planner, Fft, RealFft};
use aqua_dsp::memo::Memo;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

#[test]
fn plans_are_send_and_sync() {
    fn shared<T: Send + Sync>() {}
    shared::<Fft>();
    shared::<RealFft>();
}

/// Four threads miss one key at once: each `make` waits at a barrier
/// until all four are inside, so all four build, and the first insert
/// must still be the one `Arc` every reader gets.
#[test]
fn racing_readers_get_one_arc() {
    static MEMO: Memo<u32, Vec<u64>> = Memo::new();
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    let inside = Barrier::new(4);
    let got: Vec<Arc<Vec<u64>>> = thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    MEMO.get(7, || {
                        BUILDS.fetch_add(1, Ordering::Relaxed);
                        inside.wait();
                        vec![7; 64]
                    })
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(BUILDS.load(Ordering::Relaxed), 4);
    for g in &got {
        assert!(Arc::ptr_eq(g, &got[0]));
    }
    let later = MEMO.get(7, || unreachable!("a stored key is never rebuilt"));
    assert!(Arc::ptr_eq(&later, &got[0]));
}

#[test]
fn make_may_read_another_key_of_the_same_memo() {
    static MEMO: Memo<u32, u64> = Memo::new();
    let outer = MEMO.get(2, || *MEMO.get(1, || 40) + 2);
    assert_eq!(*outer, 42);
    assert_eq!(*MEMO.get(1, || unreachable!()), 40);
}

#[test]
fn panicking_make_leaves_the_memo_usable() {
    static MEMO: Memo<u32, u64> = Memo::new();
    assert_eq!(*MEMO.get(0, || 5), 5);
    let failed = std::panic::catch_unwind(|| MEMO.get(1, || panic!("make failed")));
    assert!(failed.is_err());
    assert_eq!(*MEMO.get(1, || 6), 6);
    assert_eq!(*MEMO.get(0, || unreachable!()), 5);
}

fn signal(n: usize, seed: u64) -> Vec<Complex> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

fn bits(x: &[Complex]) -> Vec<(u64, u64)> {
    x.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// Both threads run every transform of one shared plan at once, on their
/// own inputs, and must match a plan of their own bit for bit. 960 runs
/// radices 4, 3 and 5, 1920 adds a radix-2 pass, 4800 is a real plan
/// whose half-size plan is itself shared. A barrier starts each round on
/// both threads together.
#[test]
fn two_threads_through_one_shared_plan_match_a_fresh_plan() {
    let barrier = Barrier::new(2);
    thread::scope(|s| {
        for t in 0..2u64 {
            let barrier = &barrier;
            s.spawn(move || {
                for round in 0..20 {
                    barrier.wait();
                    for n in [960usize, 1920] {
                        let x = signal(n, 100 * t + round + n as u64);
                        let (mut shared, mut fresh) = (x.clone(), x.clone());
                        planner(n).forward(&mut shared);
                        Fft::new(n).forward(&mut fresh);
                        assert_eq!(bits(&shared), bits(&fresh), "forward {n}");
                        planner(n).inverse(&mut shared);
                        Fft::new(n).inverse(&mut fresh);
                        assert_eq!(bits(&shared), bits(&fresh), "inverse {n}");
                    }
                    let x: Vec<f64> = signal(4800, 7 * t + round).iter().map(|c| c.re).collect();
                    let shared = real_planner(4800).forward_half(&x);
                    let fresh = RealFft::new(4800).forward_half(&x);
                    assert_eq!(bits(&shared), bits(&fresh), "real forward");
                    let back = real_planner(4800).inverse_half(&shared);
                    let want = RealFft::new(4800).inverse_half(&fresh);
                    let back: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(back, want, "real inverse");
                }
            });
        }
    });
}
