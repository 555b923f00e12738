//! # tq-fasthash — a fast non-cryptographic hasher for hot maps
//!
//! The simulator's inner loop is hash-map-bound: every object fetch
//! touches the handle table and (in the hash joins) a join table (the
//! page caches find their pages by position instead, see
//! [`LruCache`]). With the standard library's default SipHash-1-3
//! those lookups dominate host CPU at paper scale (millions of objects
//! per figure cell).
//!
//! This crate vendors the Firefox/rustc "FxHash" multiply-fold hash:
//! for the small fixed-size keys we hash (`PageId`, `Rid` — a handful
//! of integer words) it is several times cheaper than SipHash while
//! distributing well enough for `std::collections::HashMap`.
//!
//! It is **not** HashDoS-resistant. Keys in this workspace come from
//! the deterministic simulation itself, never from untrusted input, so
//! flood resistance buys nothing here.
//!
//! Nothing simulated depends on hash values: swapping hashers changes
//! host-side wall clock only. The figure harness's byte-identical
//! determinism oracle (`parallel_matches_serial`) guards that.
//!
//! [`LruCache`]: https://docs.rs (see `tq_pagestore::LruCache`)

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// `BuildHasher` producing [`FxHasher`]s (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// 64-bit multiply constant: floor(2^64 / phi), the usual Fibonacci
/// hashing multiplier (odd, high bits well mixed).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc/Firefox "Fx" hash function.
///
/// State folds each input word in with `rotate-left, xor, multiply`.
/// Small integer keys hash in a couple of cycles; there is no
/// finalization step (the multiply's high bits are already mixed, and
/// `HashMap` uses the high 7 bits for its control bytes).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Byte-slice path: folds 8 bytes at a time, then the tail. Only
    /// string/byte keys take this route; the hot keys (`PageId`, `Rid`)
    /// are integer tuples and use the `write_uNN` fast paths below.
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add_to_hash(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add_to_hash(u32::from_le_bytes(bytes[..4].try_into().unwrap()) as u64);
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Hashes one value with [`FxHasher`] (convenience for tests and for
/// callers that need a raw hash rather than a map).
pub fn hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let a = hash_one(&(17u32, 42u64));
        let b = hash_one(&(17u32, 42u64));
        assert_eq!(a, b);
        assert_ne!(a, hash_one(&(18u32, 42u64)));
    }

    #[test]
    fn maps_and_sets_round_trip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i * i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * i)));
        }
        let mut s: FxHashSet<(u32, u16)> = FxHashSet::default();
        assert!(s.insert((7, 9)));
        assert!(!s.insert((7, 9)));
        assert!(s.contains(&(7, 9)));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(
            hash_one(&b"hello world!"[..]),
            hash_one(&b"hello world!"[..])
        );
        assert_ne!(
            hash_one(&b"hello world!"[..]),
            hash_one(&b"hello world?"[..])
        );
        // Exercise every tail length of the byte path: equal content
        // hashes equal, one flipped trailing byte does not.
        for n in 1..24usize {
            let v: Vec<u8> = (0..n as u8).collect();
            assert_eq!(hash_one(&v), hash_one(&v.clone()));
            let mut w = v.clone();
            w[n - 1] ^= 1;
            assert_ne!(hash_one(&v), hash_one(&w));
        }
    }

    /// Distribution sanity: bucketing sequential and strided keys into
    /// 1024 buckets stays near-uniform (no catastrophic clustering for
    /// the page-number/slot patterns the simulator produces).
    #[test]
    fn sequential_keys_spread_over_buckets() {
        for stride in [1u64, 2, 4096] {
            let mut buckets = [0u32; 1024];
            let n = 64 * 1024u64;
            for i in 0..n {
                buckets[(hash_one(&(i * stride)) >> 54) as usize] += 1;
            }
            let expected = (n / 1024) as f64;
            let worst = buckets.iter().copied().max().unwrap() as f64;
            assert!(
                worst < expected * 4.0,
                "stride {stride}: worst bucket {worst} vs expected {expected}"
            );
        }
    }
}
