//! Property tests for `stream_ordered`: the consumed sequence must equal
//! the serial map — same results, same order — for every worker count
//! and window, including under adversarial task-size skew.

use proptest::prelude::*;

/// Spins a deterministic amount of arithmetic, so task sizes can be
/// skewed precisely without sleeping.
fn busy(units: u64) -> u64 {
    let mut acc = 1u64;
    for i in 0..units {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc
}

proptest! {
    /// The consumed sequence equals the serial map for every worker
    /// count and window size, under task-size skew.
    #[test]
    fn stream_ordered_equals_serial(
        sizes in prop::collection::vec(0u64..200, 1..48),
        window in 1usize..12,
    ) {
        let expected: Vec<u64> = sizes.iter().map(|&units| busy(units)).collect();
        for workers in [1usize, 2, 8] {
            let mut seen = Vec::new();
            rayon::stream_ordered(
                sizes.iter().copied(),
                workers,
                window,
                busy,
                |r| { seen.push(r); Ok::<(), ()>(()) },
            ).unwrap();
            prop_assert_eq!(&seen, &expected, "workers = {}, window = {}", workers, window);
        }
    }
}

/// Adversarial skew (a huge task at the front blocks the emission
/// head): later results must buffer without ever exceeding the window,
/// then drain in order.
#[test]
fn stream_ordered_skewed_head_stays_ordered() {
    let sizes: Vec<u64> = (0..64u64)
        .map(|i| if i == 0 { 60_000 } else { 1 })
        .collect();
    let expected: Vec<u64> = sizes.iter().map(|&units| busy(units)).collect();
    for workers in [2usize, 8] {
        let mut seen = Vec::new();
        rayon::stream_ordered(sizes.iter().copied(), workers, 6, busy, |r| {
            seen.push(r);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(seen, expected, "workers = {workers}");
    }
}
