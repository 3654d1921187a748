//! Input mutation for fuzz properties: turn a valid input into a nearby
//! invalid one, the way a mutation fuzzer does, from a [`TestRng`] so
//! every case reproduces from its seed.

use crate::rng::TestRng;

/// Bytes that open or escape structure in JSON and HTTP: splicing them
/// in unbalances brackets, opens strings and starts escapes.
const STRUCTURAL: [u8; 4] = [b'[', b'{', b'"', b'\\'];

/// `input` after one to four random edits: a byte flip, a truncation, a
/// duplicated slice, or a run of 1–200 copies of one of `[`, `{`, `"`
/// and `\` spliced in. The result never exceeds 64 KiB.
pub fn mutate(rng: &mut TestRng, input: &[u8]) -> Vec<u8> {
    const MAX_LEN: usize = 64 << 10;
    let mut out = input.to_vec();
    for _ in 0..rng.in_range(1..5) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        match rng.below(4) {
            0 if at < out.len() => out[at] ^= rng.in_range(1..256) as u8,
            1 => out.truncate(at),
            2 => {
                let end = at + rng.below((out.len() - at) as u64 + 1) as usize;
                let slice = out[at..end].to_vec();
                out.splice(end..end, slice);
            }
            _ => {
                let byte = *rng.pick(&STRUCTURAL);
                let run = rng.len_in(1..201);
                out.splice(at..at, std::iter::repeat_n(byte, run));
            }
        }
        out.truncate(MAX_LEN);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutations_reproduce_from_the_seed_and_stay_bounded() {
        let input = br#"{"benches": ["compress"], "commits": 100}"#;
        for seed in 0..200 {
            let a = mutate(&mut TestRng::new(seed), input);
            assert_eq!(a, mutate(&mut TestRng::new(seed), input));
            assert!(a.len() <= 64 << 10);
        }
        let changed = (0..200)
            .filter(|&seed| mutate(&mut TestRng::new(seed), input) != input)
            .count();
        assert!(
            changed > 150,
            "only {changed} of 200 mutations changed the input"
        );
    }
}
