//! The crate's one FNV-1a: the byte and word forms behind every
//! fingerprint, cache stamp, checksum and search seed, and a minimal
//! `BuildHasher` for the planner's hot-loop hash maps.
//!
//! The MCTS evaluation cache and the per-query featurization caches are
//! hit on every rollout with short keys (packed action vectors, alias
//! bitmasks, `(bit, op)` pairs). SipHash's per-key setup cost dominates at
//! those lengths, and none of these keys are attacker-controlled — they are
//! derived from the query the caller already chose to plan — so the DoS
//! resistance the default hasher buys is not needed here.

pub(crate) const OFFSET: u64 = 0xcbf29ce484222325;
pub(crate) const PRIME: u64 = 0x100000001b3;

#[inline(always)]
fn step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(PRIME)
}

/// FNV-1a over a byte slice.
pub(crate) fn bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(OFFSET, |h, &b| step(h, b))
}

/// FNV-1a over a word sequence (each word's little-endian bytes), for
/// compact structural stamps; order-dependent.
pub(crate) fn words(words: &[u64]) -> u64 {
    let mut h = OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h = step(h, b);
        }
    }
    h
}

/// Streaming FNV-1a state.
pub(crate) struct FnvState(u64);

impl std::hash::Hasher for FnvState {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = step(self.0, b);
        }
    }
}

/// `BuildHasher` handing out [`FnvState`]s with the standard offset basis.
#[derive(Default, Clone)]
pub(crate) struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvState;

    fn build_hasher(&self) -> FnvState {
        FnvState(OFFSET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn matches_reference_fnv1a() {
        // FNV-1a of "a" is a published test vector.
        assert_ne!(FnvBuild.hash_one(b"a".as_slice()), 0);
        let mut h = FnvBuild.build_hasher();
        std::hash::Hasher::write(&mut h, b"a");
        assert_eq!(std::hash::Hasher::finish(&h), 0xaf63dc4c8601ec8c);
        assert_eq!(bytes(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(bytes(b""), OFFSET);
        // The word form is the byte form over little-endian words.
        assert_eq!(words(&[0x61, 7]), bytes(&[0x61, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn distinct_keys_distinct_hashes() {
        let keys: Vec<Vec<u64>> = (0..64u64).map(|i| vec![i, i * 3]).collect();
        let hashes: std::collections::HashSet<u64> =
            keys.iter().map(|k| FnvBuild.hash_one(k)).collect();
        assert_eq!(hashes.len(), keys.len());
    }
}
