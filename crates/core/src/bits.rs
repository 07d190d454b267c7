//! Dense key-id bitset backing the prefix analysis and the report's
//! ever-active key sets.
//!
//! The prefix analysis tracks *membership* per [`KeyId`] — which keys
//! were ever active, which were ever elephants. Key ids are dense
//! (first-seen order from the measurement pipeline), so a flat `u64`
//! word array beats a hash set on every axis that matters here: an O(1)
//! branch-free insert, and ordered iteration is a word scan that yields
//! keys already ascending.

use eleph_flow::KeyId;

/// A growable bitset over dense [`KeyId`]s.
#[derive(Debug, Clone, Default)]
pub struct KeyBitset {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally.
    len: usize,
}

impl KeyBitset {
    /// Empty set sized for keys `0..n_keys` (grows on demand beyond).
    pub fn with_capacity(n_keys: usize) -> Self {
        KeyBitset {
            words: vec![0; n_keys.div_ceil(64)],
            len: 0,
        }
    }

    /// Whether no bit is set.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `key`; grows the word array as needed.
    #[inline]
    pub fn insert(&mut self, key: KeyId) {
        let w = (key / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (key % 64);
        self.len += usize::from(self.words[w] & bit == 0);
        self.words[w] |= bit;
    }

    /// Iterate set keys in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = KeyId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let base = (w as u32) * 64;
            BitIter { word, base }
        })
    }
}

/// Iterator over the set bits of one word.
struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = KeyId;

    #[inline]
    fn next(&mut self) -> Option<KeyId> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_is_idempotent_and_counted() {
        let mut s = KeyBitset::with_capacity(10);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(64);
        s.insert(3); // idempotent
        assert_eq!(s.len, 2);
        assert!(!s.is_empty());
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
    }

    #[test]
    fn grows_on_demand() {
        let mut s = KeyBitset::default();
        s.insert(1000);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1000]);
        assert_eq!(s.len, 1);
    }

    #[test]
    fn iterates_ascending() {
        let mut s = KeyBitset::with_capacity(0);
        for k in [300u32, 0, 63, 64, 65, 7, 129] {
            s.insert(k);
        }
        let got: Vec<KeyId> = s.iter().collect();
        assert_eq!(got, vec![0, 7, 63, 64, 65, 129, 300]);
    }
}
