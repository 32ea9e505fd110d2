//! A set of rule positions, one bit per rule, visited in id order.

/// A set of rule positions (ids − 1) below a fixed bound.
#[derive(Debug, Clone)]
pub(crate) struct RuleBits(Vec<u64>);

impl RuleBits {
    /// An empty set of positions below `rules`.
    pub(crate) fn new(rules: usize) -> RuleBits {
        RuleBits(vec![0; rules.div_ceil(64)])
    }

    pub(crate) fn insert(&mut self, pos: usize) {
        self.0[pos / 64] |= 1 << (pos % 64);
    }

    pub(crate) fn remove(&mut self, pos: usize) {
        self.0[pos / 64] &= !(1 << (pos % 64));
    }

    pub(crate) fn contains(&self, pos: usize) -> bool {
        self.0[pos / 64] & (1 << (pos % 64)) != 0
    }

    /// The first position in the set at or after `from`.
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = *self.0.get(word)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            bits = *self.0.get(word)?;
        }
    }
}
