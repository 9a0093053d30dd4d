//! The uniform-perturbation kernel at the edges of its keep/redraw split.
//!
//! The batched kernel computes the redraw arm for every draw and selects
//! between it and the kept value; the scalar `RRMatrix::randomize` still
//! branches.  This suite feeds all of them chosen raw draws whose top 53
//! bits `hi` sit on the boundary (0, threshold − 1, threshold,
//! threshold + 1, 2⁵³ − 1) and checks that every path returns the same
//! code, that the code is in range, and that it matches a plain,
//! overflow-checked reference of the documented arithmetic.  In a debug
//! build an unchecked `hi − threshold` on a kept draw panics, so the
//! suite also pins that the discarded arm cannot overflow.

use mdrr_core::RRMatrix;
use rand::RngCore;

/// Draw bits behind one randomization (the top 53 of a `next_u64`).
const DRAW_BITS: u32 = 53;
const FULL: u64 = 1 << DRAW_BITS;

/// Domain sizes around every shape change: the binary case, the tally's
/// stack-bank width (64 / 65), and RR-Joint-sized domains.
const DOMAINS: [usize; 7] = [2, 3, 16, 64, 65, 1000, 90_720];

/// An RNG that replays chosen raw draws, in order.
struct Replay<'a>(std::slice::Iter<'a, u64>);

impl RngCore for Replay<'_> {
    fn next_u64(&mut self) -> u64 {
        *self.0.next().expect("the test supplied enough draws")
    }
}

/// The keep threshold `⌈diag · 2⁵³⌉` the kernel documents.
fn threshold(m: &RRMatrix) -> u64 {
    let diag = m.keep_probability();
    if diag >= 1.0 || m.size() == 1 {
        FULL
    } else {
        ((diag * FULL as f64).ceil() as u64).min(FULL)
    }
}

/// The documented keep/redraw map in plain branching, overflow-checked
/// arithmetic: keep when `hi < threshold`, otherwise map `hi − threshold`
/// through `⌊(r − 1) · 2⁶⁴ / span⌋` onto the other `r − 1` categories.
fn reference(m: &RRMatrix, true_value: u32, hi: u64) -> u32 {
    let threshold = threshold(m);
    if hi < threshold {
        return true_value;
    }
    let span = u128::from(FULL - threshold);
    let scale = ((m.size() as u128 - 1) << 64) / span;
    let product = u128::from(hi - threshold)
        .checked_mul(scale)
        .expect("a redrawn draw never overflows the fixed-point map");
    let idx = u32::try_from(product >> 64).expect("idx fits in u32");
    idx + u32::from(idx >= true_value)
}

/// The matrices under test for domain `r`: the paper's keep levels, the
/// ε-optimal matrix, and keep probabilities at both extremes, including
/// an ε so large that fewer redraw values exist than other categories
/// (the redraw scale then exceeds 2⁶⁴).
fn matrices(r: usize) -> Vec<(String, RRMatrix)> {
    let mut out = Vec::new();
    for p in [0.01, 0.7, 0.99] {
        out.push((
            format!("keep {p}, r = {r}"),
            RRMatrix::uniform_keep(p, r).unwrap(),
        ));
    }
    for eps in [1.0, 40.0] {
        out.push((
            format!("ε = {eps}, r = {r}"),
            RRMatrix::from_epsilon(eps, r).unwrap(),
        ));
    }
    out
}

/// The boundary values of `hi` for a threshold, inside `[0, 2⁵³)`.
fn boundary_draws(threshold: u64) -> Vec<u64> {
    let mut his = vec![0, FULL - 1];
    for delta in [-1i64, 0, 1] {
        if let Some(hi) = threshold.checked_add_signed(delta) {
            if hi < FULL {
                his.push(hi);
            }
        }
    }
    his.sort_unstable();
    his.dedup();
    his
}

#[test]
fn every_path_agrees_with_the_reference_at_the_keep_redraw_boundary() {
    let mut cases = 0usize;
    for r in DOMAINS {
        for (label, m) in matrices(r) {
            let prepared = m.prepared();
            let threshold = threshold(&m);
            let true_values = [0, (r / 2) as u32, (r - 1) as u32];
            for (k, hi) in boundary_draws(threshold).into_iter().enumerate() {
                // The low 11 bits of a raw draw are never used.
                let raw = (hi << (64 - DRAW_BITS)) | if k % 2 == 0 { 0 } else { 0x7FF };
                for true_value in true_values {
                    let expected = reference(&m, true_value, hi);
                    let what = format!("{label}, true value {true_value}, hi {hi}");
                    assert!((expected as usize) < r, "{what}: reference out of range");
                    assert_eq!(
                        expected == true_value,
                        hi < threshold,
                        "{what}: kept iff hi < threshold"
                    );

                    let scalar = m.randomize(true_value, &mut Replay([raw].iter())).unwrap();
                    assert_eq!(scalar, expected, "{what}: scalar randomize");
                    assert_eq!(
                        prepared.randomize_raw(true_value, raw),
                        expected,
                        "{what}: randomize_raw"
                    );

                    // Strided: the value reads draws[1 + 0·3]; the other
                    // slots hold junk that must not be read.
                    let draws = [u64::MAX, raw, 0, 0x5555_5555_5555_5555];
                    let mut codes = Vec::new();
                    prepared.randomize_strided_into(&[true_value], &draws, 1, 3, &mut codes);
                    assert_eq!(codes, [expected], "{what}: randomize_strided_into");

                    let mut tally = vec![0u64; r];
                    prepared.randomize_strided_tally(&[true_value], &draws, 1, 3, &mut tally);
                    assert_eq!(tally.iter().sum::<u64>(), 1, "{what}: one value counted");
                    assert_eq!(
                        tally[expected as usize], 1,
                        "{what}: randomize_strided_tally"
                    );

                    let mut out = Vec::new();
                    m.randomize_into(&[true_value], &mut Replay([raw].iter()), &mut out)
                        .unwrap();
                    assert_eq!(out, [expected], "{what}: randomize_into");
                    cases += 1;
                }
            }
        }
    }
    // 7 domains × 5 matrices × 3 true values × 3–5 boundary draws.
    assert!(cases >= 7 * 5 * 3 * 3, "only {cases} cases ran");
}

#[test]
fn a_column_of_boundary_draws_matches_value_by_value() {
    // Whole columns through the batched loops — including the tally's
    // four interleaved banks, which a one-value column never rotates —
    // against the per-value reference.
    for r in DOMAINS {
        for (label, m) in matrices(r) {
            let prepared = m.prepared();
            let threshold = threshold(&m);
            let true_values = [0, (r / 2) as u32, (r - 1) as u32];
            let pairs: Vec<(u32, u64)> = boundary_draws(threshold)
                .into_iter()
                .flat_map(|hi| true_values.map(|v| (v, hi)))
                .collect();
            let column: Vec<u32> = pairs.iter().map(|&(v, _)| v).collect();
            let draws: Vec<u64> = pairs
                .iter()
                .map(|&(_, hi)| hi << (64 - DRAW_BITS))
                .collect();
            let expected: Vec<u32> = pairs.iter().map(|&(v, hi)| reference(&m, v, hi)).collect();

            let mut codes = Vec::new();
            prepared.randomize_strided_into(&column, &draws, 0, 1, &mut codes);
            assert_eq!(codes, expected, "{label}: randomize_strided_into");

            let mut tally = vec![0u64; r];
            prepared.randomize_strided_tally(&column, &draws, 0, 1, &mut tally);
            let mut want = vec![0u64; r];
            for &code in &expected {
                want[code as usize] += 1;
            }
            assert_eq!(tally, want, "{label}: randomize_strided_tally");

            let mut out = Vec::new();
            m.randomize_into(&column, &mut Replay(draws.iter()), &mut out)
                .unwrap();
            assert_eq!(out, expected, "{label}: randomize_into");
            let mut replay = Replay(draws.iter());
            let scalar: Vec<u32> = column
                .iter()
                .map(|&v| m.randomize(v, &mut replay).unwrap())
                .collect();
            assert_eq!(scalar, expected, "{label}: scalar randomize");
        }
    }
}
