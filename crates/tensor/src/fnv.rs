//! Incremental 64-bit FNV-1a — the one stable, dependency-free hash
//! behind the dataset, clip and alert fingerprints. Digests are printed
//! as 16 lowercase hex digits and must never change: they join records
//! across runs and dedup alerts.

/// An incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_writes_match_one_shot() {
        let mut whole = Fnv1a::new();
        whole.write(b"hello world");
        assert_eq!(whole.hex(), "779a65e7023cd2e7");
        let mut parts = Fnv1a::new();
        parts.write(b"hello");
        parts.write(b" world");
        assert_eq!(parts.hex(), whole.hex());
        assert_eq!(Fnv1a::new().hex(), "cbf29ce484222325");
    }
}
