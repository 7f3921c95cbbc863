use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed by [`MulHasher`].
pub type MulHashMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// A small multiplicative hasher (add each 64-bit word, multiply by an odd
/// constant, rotate on finish) for the short-lived maps of the synthesis
/// path: the structural-hash map of a [`crate::Network`] and the per-call
/// memo of the recursive synthesizer.
///
/// The std default, SipHash-1-3, is keyed per map so that an adversary who
/// picks the keys cannot force collisions. These maps gain nothing from
/// that: a network's keys are node kinds over its own node ids, and a memo
/// holds about ten ISFs per decomposition node (at most `2^depth − 1`
/// nodes) and is dropped when its call returns, so even a full collision
/// costs one scan of a few dozen entries. What they do pay for is the
/// hashing itself, once per node built and once per memo probe.
///
/// ```rust
/// use techmap::MulHashMap;
///
/// let mut map: MulHashMap<u64, &str> = MulHashMap::default();
/// map.insert(7, "seven");
/// assert_eq!(map.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher {
    state: u64,
}

impl MulHasher {
    /// An odd constant with well-spread bits (the one `rustc-hash` uses).
    const SEED: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("eight-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits are its best mixed; the table indexes
    /// buckets by the low bits, so they are rotated down.
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<MulHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_values_hash_equal_and_neighbors_differ() {
        assert_eq!(hash_of(&vec![1u64, 2, 3]), hash_of(&vec![1u64, 2, 3]));
        assert_ne!(hash_of(&vec![1u64, 2, 3]), hash_of(&vec![1u64, 2, 4]));
        assert_ne!(hash_of(&vec![1u64, 2]), hash_of(&vec![1u64, 2, 0]), "length is hashed");
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)), "order is hashed");
    }

    #[test]
    fn byte_tails_are_hashed() {
        let hash = |bytes: &[u8]| {
            let mut h = MulHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(&[1, 2, 3, 4, 5, 6, 7, 8, 9]), hash(&[1, 2, 3, 4, 5, 6, 7, 8, 10]));
    }

    #[test]
    fn small_keys_spread_over_the_low_bits() {
        // A map of 2^10 buckets indexes by the low ten bits: consecutive
        // node-id pairs must not pile into a few of them.
        let buckets: std::collections::HashSet<u64> =
            (0..1024u32).map(|i| hash_of(&(i, i + 1)) & 1023).collect();
        assert!(buckets.len() > 512, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn maps_work_with_the_hasher() {
        let mut map: MulHashMap<Vec<u64>, usize> = MulHashMap::default();
        for i in 0..1000u64 {
            map.insert(vec![i, i * 3], i as usize);
        }
        assert!((0..1000u64).all(|i| map.get(&vec![i, i * 3]) == Some(&(i as usize))));
        assert_eq!(map.get(&vec![1, 4]), None);
    }
}
