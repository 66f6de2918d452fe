//! Seeded input generation: the only place randomness enters a run.
//!
//! Every stream is derived from the run's `--seed` and a stream label, so
//! the same seed reproduces the same requests in the same order and two
//! streams of one run never share a sequence.

/// A small, fast, deterministic generator (xoshiro256** seeded through
/// splitmix64). Statistical quality is ample for workload synthesis.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut x = seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93);
        Rng {
            s: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Multiply-shift keeps the bias below 2^-32 for the sizes used here.
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// A rank sampler over `0..n`: Zipf(θ) through a precomputed CDF, or
/// uniform when θ is zero.
#[derive(Debug, Clone)]
pub struct Ranks {
    n: usize,
    cdf: Vec<f64>,
}

impl Ranks {
    /// A sampler over `n` ranks with skew `theta` (`0.0` = uniform).
    pub fn new(n: usize, theta: f64) -> Ranks {
        assert!(n > 0, "rank domain must be non-empty");
        if theta == 0.0 {
            return Ranks { n, cdf: Vec::new() };
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Ranks { n, cdf }
    }

    /// Draws one rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        if self.cdf.is_empty() {
            return rng.below(self.n);
        }
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.n - 1)
    }
}

/// Hex digits of the version that lead every KV value.
const VERSION_DIGITS: usize = 8;

/// The `len`-byte value stored under `key` at version `ver` in a run with
/// seed `seed`: the version in hex, then lowercase letters derived from a
/// hash of all three. The oracle reads the version off a reply and
/// regenerates the rest, so no expected value is ever stored.
pub fn kv_value(seed: u64, key: u64, ver: u32, len: usize) -> String {
    let mut x = seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(ver) << 40);
    let mut out = format!("{ver:0width$x}", width = VERSION_DIGITS);
    let mut word = 0u64;
    for i in 0..len.saturating_sub(VERSION_DIGITS) {
        if i % 12 == 0 {
            word = splitmix64(&mut x);
        }
        out.push((b'g' + (word % 20) as u8) as char);
        word /= 20;
    }
    out.truncate(len);
    out
}

/// The version a [`kv_value`] claims to be.
pub fn kv_value_version(value: &str) -> Option<u32> {
    u32::from_str_radix(value.get(..VERSION_DIGITS)?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, stream: u64, n: usize) -> Vec<u64> {
        let mut r = Rng::new(seed, stream);
        (0..n).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_stream_reproduces() {
        assert_eq!(take(7, 1, 64), take(7, 1, 64));
    }

    #[test]
    fn seed_and_stream_both_change_the_sequence() {
        assert_ne!(take(7, 1, 16), take(8, 1, 16));
        assert_ne!(take(7, 1, 16), take(7, 2, 16));
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(3, 0);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_not() {
        let mut r = Rng::new(11, 0);
        let zipf = Ranks::new(100, 0.99);
        let flat = Ranks::new(100, 0.0);
        let (mut z, mut f) = ([0usize; 100], [0usize; 100]);
        for _ in 0..20_000 {
            z[zipf.sample(&mut r)] += 1;
            f[flat.sample(&mut r)] += 1;
        }
        assert!(z[0] > 5 * z[50], "{} vs {}", z[0], z[50]);
        assert!(f.iter().all(|&c| (100..300).contains(&c)), "{f:?}");
    }

    #[test]
    fn kv_values_are_reproducible_sized_and_distinct() {
        let a = kv_value(1, 42, 0, 64);
        assert_eq!(a.len(), 64);
        assert!(a
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
        assert_eq!(kv_value_version(&a), Some(0));
        assert_eq!(kv_value_version(&kv_value(1, 42, 0xbeef, 64)), Some(0xbeef));
        assert_eq!(kv_value_version("short"), None);
        assert_eq!(a, kv_value(1, 42, 0, 64));
        assert_ne!(a, kv_value(2, 42, 0, 64));
        assert_ne!(a, kv_value(1, 43, 0, 64));
        assert_ne!(a, kv_value(1, 42, 1, 64));
    }
}
