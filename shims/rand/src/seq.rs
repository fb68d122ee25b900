//! Sequence helpers (`SliceRandom`).

use crate::Rng;

/// Random operations on slices.
pub trait SliceRandom {
    /// Fisher–Yates shuffle in place.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // seeded shuffles reproduce
        let mut v2: Vec<u32> = (0..50).collect();
        v2.shuffle(&mut StdRng::seed_from_u64(5));
        assert_eq!(v, v2);
    }
}
