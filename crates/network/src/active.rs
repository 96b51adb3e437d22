//! Word-packed active sets for the cycle loop's activity scheduler.
//!
//! One bit per component (router or NIC), packed into `u64` words so a
//! 256-node mesh's entire schedule is four words: testing "anything to
//! do?" is a handful of OR instructions and iteration visits only set
//! bits, in ascending index order — the same order a full scan would use,
//! which is what keeps active-set stepping equivalent to stepping every
//! component.

/// A fixed-capacity bitset over component indices.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// An empty set over `n` indices.
    pub fn new(n: usize) -> ActiveSet {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Marks index `i` active.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Marks index `i` inactive.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether index `i` is active.
    #[cfg(test)]
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of words backing the set.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The `w`-th word. Iterating a snapshot of each word while clearing
    /// bits in the live set is safe as long as no bits are *inserted*
    /// during the walk (the cycle loop's phases guarantee that).
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Active indices, ascending (test/diagnostic use; the hot loop walks
    /// words directly).
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            std::iter::successors(Some(bits), |&b| (b != 0).then(|| b & (b - 1)))
                .take_while(|&b| b != 0)
                .map(move |b| w * 64 + b.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(130);
        assert_eq!(s.word_count(), 3);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 129]);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = ActiveSet::new(200);
        for i in [199, 5, 70, 6, 64] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 6, 64, 70, 199]);
    }

    #[test]
    fn reinsertion_is_idempotent() {
        let mut s = ActiveSet::new(64);
        s.insert(7);
        s.insert(7);
        assert_eq!(s.iter().count(), 1);
    }
}
