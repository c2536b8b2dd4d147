//! Seeded input generation. The benchmark draws every graph, angle and shot
//! seed from this generator so the same `--seed` always yields the same
//! inputs; it shares no code with the program's own `rand` stand-in.

/// SplitMix64: small, fast, and good enough for generating test inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `tag`, so adding draws to one part of the
    /// benchmark does not shift the inputs of another.
    pub fn derive(seed: u64, tag: u64) -> Self {
        let mut mix = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
