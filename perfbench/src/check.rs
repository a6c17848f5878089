//! Correctness fingerprints: the deterministic outputs of one workload
//! iteration, compared across iterations, across traced and untraced
//! runs, and against the values recorded in `fingerprints.txt`.

use iiot_stream::WindowResult;
use std::fmt;

/// Ordered `name = value` pairs of deterministic outputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint(Vec<(&'static str, u64)>);

impl Fingerprint {
    /// Appends one value.
    pub fn put(&mut self, name: &'static str, v: u64) -> &mut Self {
        self.0.push((name, v));
        self
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// Fingerprints recorded for known (workload, shape, seed) triples,
/// one per line: `<workload> <shape> <seed> <fingerprint>`.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// The recorded fingerprint of `workload` at `shape` under `seed`.
pub fn recorded(workload: &str, shape: &str, seed: u64) -> Option<&'static str> {
    RECORDED.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let hit = it.next() == Some(workload)
            && it.next() == Some(shape)
            && it.next().and_then(|s| s.parse::<u64>().ok()) == Some(seed);
        if hit {
            it.next()
        } else {
            None
        }
    })
}

/// Table-driven CRC-32 (IEEE, reflected), the checksum the event log
/// frames use, applied here to whole log images.
pub fn crc32(data: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut c = !0u32;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// FNV-1a over a stream of 64-bit words: an order-sensitive digest of
/// structured outputs (closed windows, readings).
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Order-sensitive digest of closed windows: key, start, count and sum.
pub fn window_digest(closed: &[WindowResult]) -> u64 {
    let mut d = Digest::default();
    for r in closed {
        d.word(((r.key.tenant as u64) << 32) | r.key.metric as u64);
        d.word(r.start.as_micros());
        d.word(r.count);
        d.word(r.sum.to_bits());
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fingerprint_renders_in_insertion_order() {
        let mut f = Fingerprint::default();
        f.put("b", 2).put("a", 1);
        assert_eq!(f.to_string(), "b=2,a=1");
    }
}
