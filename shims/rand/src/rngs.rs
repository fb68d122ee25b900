//! Named generators.

use crate::{RngCore, SeedableRng};

/// Deterministic seeded generator (xoshiro256**). Stands in for upstream
/// `rand`'s `StdRng`; streams differ from upstream but are stable across
/// platforms and releases of this shim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        // xoshiro must not start from the all-zero state
        if s == [0; 4] {
            s = [
                0x9E37_79B9_7F4A_7C15,
                0xBF58_476D_1CE4_E5B9,
                0x94D0_49BB_1331_11EB,
                1,
            ];
        }
        Self { s }
    }
}
