//! Seeded input generation: the RNG, the key choosers, and the value
//! codec the correctness oracle decodes.

/// Number of keys loaded at set-up and touched by every workload.
pub const KEYS: u64 = 200_000;
/// Key length in bytes: `k` and 13 decimal digits.
pub const KEY_LEN: usize = 14;
/// Value length in bytes: key index, generation, and a filler derived
/// from both, so a value served for the wrong key or from a damaged page
/// never decodes as correct.
pub const VALUE_LEN: usize = 100;

/// SplitMix64: small, fast, and good enough to drive a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for `(seed, lane)`.
    pub fn stream(seed: u64, lane: u64) -> Self {
        let mut r = Self(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// YCSB's scrambled Zipfian chooser (Gray et al., "Quickly generating
/// billion-record synthetic databases"): rank 0 is the most popular, and
/// ranks are hashed over the key space so hot keys spread across leaves.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zeta_n = zeta(n);
        let zeta_2 = zeta(2);
        Self {
            n,
            theta,
            zeta_n,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n),
        }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        fnv1a(rank.min(self.n - 1)) % self.n
    }
}

fn fnv1a(x: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

pub fn key(k: u64) -> [u8; KEY_LEN] {
    let mut out = [0u8; KEY_LEN];
    out[0] = b'k';
    let mut v = k;
    for slot in out[1..].iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out
}

/// The key index of an encoded key, if it is one.
pub fn key_index(bytes: &[u8]) -> Option<u64> {
    if bytes.len() != KEY_LEN || bytes[0] != b'k' {
        return None;
    }
    bytes[1..].iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

pub fn value(k: u64, generation: u32) -> [u8; VALUE_LEN] {
    let mut out = [0u8; VALUE_LEN];
    out[0..4].copy_from_slice(&(k as u32).to_le_bytes());
    out[4..8].copy_from_slice(&generation.to_le_bytes());
    let mut filler = Rng::new((k << 32) | u64::from(generation));
    for chunk in out[8..].chunks_mut(8) {
        let bytes = filler.next_u64().to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    out
}

/// The generation stored in `bytes` if it is a well-formed value of key
/// `k`, or why not.
pub fn decode(k: u64, bytes: &[u8]) -> Result<u32, String> {
    if bytes.len() != VALUE_LEN {
        return Err(format!("key {k}: value of {} bytes", bytes.len()));
    }
    let stored_key = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let generation = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if u64::from(stored_key) != k || bytes != value(k, generation) {
        return Err(format!(
            "key {k}: value does not decode to its own key (holds key {stored_key})"
        ));
    }
    Ok(generation)
}
