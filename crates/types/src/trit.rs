//! Three-valued link annotations ("trits") and trit vectors.
//!
//! Link matching annotates every node of the parallel search tree with a
//! vector of trits, one per outgoing link of the broker (§3.1 of the paper):
//!
//! - **Yes** — a search reaching this node is guaranteed to match a
//!   subscriber reachable through the link;
//! - **No** — no subsearch from this node leads to such a subscriber;
//! - **Maybe** — further searching is required to decide.
//!
//! Two operators propagate annotations bottom-up (paper Fig. 4):
//!
//! - [`Trit::alternative`] takes the *least specific* result (`Maybe`
//!   dominates), used across sibling value branches — an event follows at
//!   most one of them;
//! - [`Trit::parallel`] takes the *most liberal* result (`Yes` dominates
//!   `Maybe` dominates `No`), used to merge the value branches with the `*`
//!   branch — an event follows the `*` branch in parallel.
//!
//! [`TritVec`] stores trits packed two bits per element and implements the
//! operators word-parallel, since the engine applies them on every node
//! visit of every event.

use std::fmt;

/// A three-valued annotation: Yes, No, or Maybe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Trit {
    /// Definitely no subscriber along this link.
    #[default]
    No,
    /// Not yet determined; continue searching.
    Maybe,
    /// Definitely a subscriber along this link.
    Yes,
}

impl Trit {
    const ENC_NO: u64 = 0b00;
    const ENC_MAYBE: u64 = 0b01;
    const ENC_YES: u64 = 0b10;

    /// *Alternative Combine* (paper Fig. 4, left): the least specific of the
    /// two — equal inputs pass through, differing inputs yield `Maybe`.
    ///
    /// ```
    /// use linkcast_types::Trit;
    /// assert_eq!(Trit::Yes.alternative(Trit::Yes), Trit::Yes);
    /// assert_eq!(Trit::Yes.alternative(Trit::No), Trit::Maybe);
    /// assert_eq!(Trit::No.alternative(Trit::No), Trit::No);
    /// ```
    #[must_use]
    pub fn alternative(self, other: Trit) -> Trit {
        if self == other {
            self
        } else {
            Trit::Maybe
        }
    }

    /// *Parallel Combine* (paper Fig. 4, right): the most liberal of the two
    /// — `Yes` dominates `Maybe` dominates `No`.
    ///
    /// ```
    /// use linkcast_types::Trit;
    /// assert_eq!(Trit::Yes.parallel(Trit::No), Trit::Yes);
    /// assert_eq!(Trit::Maybe.parallel(Trit::No), Trit::Maybe);
    /// assert_eq!(Trit::No.parallel(Trit::No), Trit::No);
    /// ```
    #[must_use]
    pub fn parallel(self, other: Trit) -> Trit {
        self.max_by_liberality(other)
    }

    fn max_by_liberality(self, other: Trit) -> Trit {
        if self.rank() >= other.rank() {
            self
        } else {
            other
        }
    }

    const fn rank(self) -> u8 {
        match self {
            Trit::No => 0,
            Trit::Maybe => 1,
            Trit::Yes => 2,
        }
    }

    const fn encode(self) -> u64 {
        match self {
            Trit::No => Self::ENC_NO,
            Trit::Maybe => Self::ENC_MAYBE,
            Trit::Yes => Self::ENC_YES,
        }
    }

    const fn decode(bits: u64) -> Trit {
        match bits & 0b11 {
            Self::ENC_MAYBE => Trit::Maybe,
            Self::ENC_YES => Trit::Yes,
            _ => Trit::No,
        }
    }

    /// Single-letter form used in the paper's figures (`Y`, `N`, `M`).
    pub const fn letter(self) -> char {
        match self {
            Trit::Yes => 'Y',
            Trit::No => 'N',
            Trit::Maybe => 'M',
        }
    }
}

impl fmt::Display for Trit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

impl From<bool> for Trit {
    /// `true` maps to `Yes`, `false` to `No` (never `Maybe`).
    fn from(b: bool) -> Self {
        if b {
            Trit::Yes
        } else {
            Trit::No
        }
    }
}

const TRITS_PER_WORD: usize = 32;
/// `01` repeated — a `Maybe` in every lane / the low bit of every lane.
const LO: u64 = 0x5555_5555_5555_5555;
/// `10` repeated — a `Yes` in every lane / the high bit of every lane.
const HI: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// A fixed-length vector of [`Trit`]s, packed two bits per element.
///
/// One `TritVec` per search-tree node annotates all outgoing links of a
/// broker at once; the combine and refinement operators work word-parallel
/// across 32 links per `u64`.
///
/// # Example
///
/// The annotation computation of paper Fig. 5:
///
/// ```
/// use linkcast_types::{Trit, TritVec};
///
/// let left: TritVec = "MYY".parse().unwrap();
/// let right: TritVec = "NYN".parse().unwrap();
/// let star: TritVec = "YYN".parse().unwrap();
///
/// let alt = left.alternative(&right);
/// assert_eq!(alt.to_string(), "MYM");
/// let ann = alt.parallel(&star);
/// assert_eq!(ann.to_string(), "YYM");
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct TritVec {
    words: Vec<u64>,
    len: usize,
}

impl Clone for TritVec {
    fn clone(&self) -> Self {
        TritVec {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Reuses the existing word buffer (the derived impl would allocate a
    /// fresh `Vec`); the match walk leans on this to copy masks into
    /// long-lived scratch slots.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl TritVec {
    /// Creates a vector of `len` trits, all set to `fill`.
    pub fn filled(len: usize, fill: Trit) -> Self {
        let pattern = match fill {
            Trit::No => 0,
            Trit::Maybe => LO,
            Trit::Yes => HI,
        };
        let n_words = len.div_ceil(TRITS_PER_WORD);
        let mut v = TritVec {
            words: vec![pattern; n_words],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates an all-`No` vector of `len` trits.
    pub fn no(len: usize) -> Self {
        Self::filled(len, Trit::No)
    }

    /// Creates an all-`Maybe` vector of `len` trits.
    pub fn maybe(len: usize) -> Self {
        Self::filled(len, Trit::Maybe)
    }

    /// Creates an all-`Yes` vector of `len` trits.
    pub fn yes(len: usize) -> Self {
        Self::filled(len, Trit::Yes)
    }

    /// Number of trits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has no trits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The trit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> Trit {
        assert!(
            index < self.len,
            "trit index {index} out of range {}",
            self.len
        );
        let word = self.words[index / TRITS_PER_WORD];
        Trit::decode(word >> (2 * (index % TRITS_PER_WORD)))
    }

    /// Sets the trit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set(&mut self, index: usize, trit: Trit) {
        assert!(
            index < self.len,
            "trit index {index} out of range {}",
            self.len
        );
        let shift = 2 * (index % TRITS_PER_WORD);
        let word = &mut self.words[index / TRITS_PER_WORD];
        *word = (*word & !(0b11 << shift)) | (trit.encode() << shift);
    }

    /// Element-wise *Alternative Combine* with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn alternative(&self, other: &TritVec) -> TritVec {
        self.check_len(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| {
                let d = a ^ b;
                // Per-lane equality: low bit set iff both bits of the lane agree.
                let eq = !(d | (d >> 1)) & LO;
                let keep = eq | (eq << 1);
                (a & keep) | (LO & !keep)
            })
            .collect();
        let mut out = TritVec {
            words,
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Element-wise *Parallel Combine* with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn parallel(&self, other: &TritVec) -> TritVec {
        self.check_len(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| {
                let or = a | b;
                let y = or & HI;
                // A lane with a Yes keeps only its high bit; otherwise any
                // Maybe survives.
                y | (or & LO & !(y >> 1))
            })
            .collect();
        TritVec {
            words,
            len: self.len,
        }
    }

    /// Refinement step of the matching search (§3.3, step 2): every `Maybe`
    /// in `self` is replaced by the corresponding trit of `annotation`;
    /// `Yes` and `No` entries are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn refine(&self, annotation: &TritVec) -> TritVec {
        self.check_len(annotation);
        let words = self
            .words
            .iter()
            .zip(&annotation.words)
            .map(|(&a, &b)| {
                let m = (a & LO) & !((a >> 1) & LO); // lanes that are Maybe
                let sel = m | (m << 1);
                (a & !sel) | (b & sel)
            })
            .collect();
        TritVec {
            words,
            len: self.len,
        }
    }

    /// Subsearch merge (§3.3, step 3): every `Maybe` in `self` whose
    /// corresponding trit in `subresult` is `Yes` becomes `Yes`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn absorb_yes(&self, subresult: &TritVec) -> TritVec {
        self.check_len(subresult);
        let words = self
            .words
            .iter()
            .zip(&subresult.words)
            .map(|(&a, &b)| {
                let m = (a & LO) & !((a >> 1) & LO); // Maybe lanes of a
                let y = (b >> 1) & LO; // Yes lanes of b (low-bit form)
                let sel = m & y;
                let sel2 = sel | (sel << 1);
                (a & !sel2) | (sel << 1)
            })
            .collect();
        TritVec {
            words,
            len: self.len,
        }
    }

    /// Search-termination step (§3.3, end of step 3): every remaining
    /// `Maybe` becomes `No`.
    #[must_use]
    pub fn maybes_to_no(&self) -> TritVec {
        let words = self
            .words
            .iter()
            .map(|&a| {
                let m = (a & LO) & !((a >> 1) & LO);
                a & !(m | (m << 1))
            })
            .collect();
        TritVec {
            words,
            len: self.len,
        }
    }

    /// The packed backing words (two bits per trit, 32 trits per word, tail
    /// lanes canonical zero). Exposed so the flattened match arena can store
    /// annotations in a contiguous word slab and refine against slab slices
    /// without materializing `TritVec`s.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place [`refine`](Self::refine) against a raw annotation word
    /// slice (same packing as [`words`](Self::words)).
    ///
    /// # Panics
    ///
    /// Panics if `annotation` has a different word count.
    pub fn refine_in_place(&mut self, annotation: &[u64]) {
        assert_eq!(
            self.words.len(),
            annotation.len(),
            "trit vector word-count mismatch: {} vs {}",
            self.words.len(),
            annotation.len()
        );
        for (a, &b) in self.words.iter_mut().zip(annotation) {
            let m = (*a & LO) & !((*a >> 1) & LO);
            let sel = m | (m << 1);
            *a = (*a & !sel) | (b & sel);
        }
    }

    /// In-place [`absorb_yes`](Self::absorb_yes).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn absorb_yes_in_place(&mut self, subresult: &TritVec) {
        self.check_len(subresult);
        for (a, &b) in self.words.iter_mut().zip(&subresult.words) {
            let m = (*a & LO) & !((*a >> 1) & LO);
            let y = (b >> 1) & LO;
            let sel = m & y;
            let sel2 = sel | (sel << 1);
            *a = (*a & !sel2) | (sel << 1);
        }
    }

    /// In-place [`maybes_to_no`](Self::maybes_to_no).
    pub fn maybes_to_no_in_place(&mut self) {
        for a in &mut self.words {
            let m = (*a & LO) & !((*a >> 1) & LO);
            *a &= !(m | (m << 1));
        }
    }

    /// In-place [`parallel`](Self::parallel).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn parallel_in_place(&mut self, other: &TritVec) {
        self.check_len(other);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let or = *a | b;
            let y = or & HI;
            *a = y | (or & LO & !(y >> 1));
        }
    }

    /// Whether any trit is `Maybe` — i.e. the mask is not yet fully refined.
    pub fn has_maybe(&self) -> bool {
        self.words.iter().any(|&a| (a & LO) & !((a >> 1) & LO) != 0)
    }

    /// Whether every trit is `No`. `No` encodes as `00` and the tail lanes
    /// are kept canonical, so this is a zero test over the backing words.
    pub fn is_all_no(&self) -> bool {
        self.words.iter().all(|&a| a == 0)
    }

    /// Whether any trit is `Yes`.
    pub fn has_yes(&self) -> bool {
        self.words.iter().any(|&a| a & HI != 0)
    }

    /// Number of `Yes` trits.
    pub fn count_yes(&self) -> usize {
        self.words
            .iter()
            .map(|&a| (a & HI).count_ones() as usize)
            .sum()
    }

    /// Number of `Maybe` trits.
    pub fn count_maybe(&self) -> usize {
        self.words
            .iter()
            .map(|&a| ((a & LO) & !((a >> 1) & LO)).count_ones() as usize)
            .sum()
    }

    /// Iterates over the indices whose trit is `Yes`, scanning a word (32
    /// lanes) at a time and popping set bits — sparse vectors cost one
    /// `trailing_zeros` per hit instead of one decode per lane.
    pub fn yes_indices(&self) -> impl Iterator<Item = usize> + '_ {
        lane_indices(self.words.iter().map(|&a| a & HI))
    }

    /// Iterates over the indices whose trit is `Maybe` (word-at-a-time,
    /// like [`yes_indices`](Self::yes_indices)).
    pub fn maybe_indices(&self) -> impl Iterator<Item = usize> + '_ {
        lane_indices(self.words.iter().map(|&a| (a & LO) & !((a >> 1) & LO)))
    }

    /// Iterates over all trits in order.
    pub fn iter(&self) -> impl Iterator<Item = Trit> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    fn check_len(&self, other: &TritVec) {
        assert_eq!(
            self.len, other.len,
            "trit vector length mismatch: {} vs {}",
            self.len, other.len
        );
    }

    /// Clears the unused tail lanes of the last word so that `Eq`/`Hash`
    /// see a canonical representation.
    fn mask_tail(&mut self) {
        let used = self.len % TRITS_PER_WORD;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (2 * used)) - 1;
            }
        }
    }
}

/// Expands per-word lane bitmasks (one marker bit per selected 2-bit lane,
/// in either bit of the lane) into ascending trit indices.
fn lane_indices(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(word_idx, mut bits)| {
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(word_idx * TRITS_PER_WORD + bit / 2)
        })
    })
}

impl fmt::Display for TritVec {
    /// Renders in the paper's figure notation, e.g. `YYM`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.iter() {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for TritVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TritVec(\"{self}\")")
    }
}

impl FromIterator<Trit> for TritVec {
    fn from_iter<I: IntoIterator<Item = Trit>>(iter: I) -> Self {
        let trits: Vec<Trit> = iter.into_iter().collect();
        let mut v = TritVec::no(trits.len());
        for (i, t) in trits.into_iter().enumerate() {
            v.set(i, t);
        }
        v
    }
}

impl std::str::FromStr for TritVec {
    type Err = crate::Error;

    /// Parses the paper's figure notation: a string of `Y`, `N`, `M`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .map(|c| match c {
                'Y' | 'y' => Ok(Trit::Yes),
                'N' | 'n' => Ok(Trit::No),
                'M' | 'm' => Ok(Trit::Maybe),
                other => Err(crate::Error::Decode(format!(
                    "invalid trit character `{other}`"
                ))),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Trit; 3] = [Trit::No, Trit::Maybe, Trit::Yes];

    #[test]
    fn alternative_table_matches_figure_4() {
        use Trit::{Maybe as M, No as N, Yes as Y};
        assert_eq!(Y.alternative(Y), Y);
        assert_eq!(Y.alternative(M), M);
        assert_eq!(Y.alternative(N), M);
        assert_eq!(M.alternative(Y), M);
        assert_eq!(M.alternative(M), M);
        assert_eq!(M.alternative(N), M);
        assert_eq!(N.alternative(Y), M);
        assert_eq!(N.alternative(M), M);
        assert_eq!(N.alternative(N), N);
    }

    #[test]
    fn parallel_table_matches_figure_4() {
        use Trit::{Maybe as M, No as N, Yes as Y};
        assert_eq!(Y.parallel(Y), Y);
        assert_eq!(Y.parallel(M), Y);
        assert_eq!(Y.parallel(N), Y);
        assert_eq!(M.parallel(Y), Y);
        assert_eq!(M.parallel(M), M);
        assert_eq!(M.parallel(N), M);
        assert_eq!(N.parallel(Y), Y);
        assert_eq!(N.parallel(M), M);
        assert_eq!(N.parallel(N), N);
    }

    #[test]
    fn operators_are_commutative_and_associative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.alternative(b), b.alternative(a));
                assert_eq!(a.parallel(b), b.parallel(a));
                for c in ALL {
                    assert_eq!(
                        a.alternative(b).alternative(c),
                        a.alternative(b.alternative(c))
                    );
                    assert_eq!(a.parallel(b).parallel(c), a.parallel(b.parallel(c)));
                }
            }
        }
    }

    #[test]
    fn figure_5_example() {
        let left: TritVec = "MYY".parse().unwrap();
        let right: TritVec = "NYN".parse().unwrap();
        let star: TritVec = "YYN".parse().unwrap();
        let alt = left.alternative(&right);
        assert_eq!(alt.to_string(), "MYM");
        assert_eq!(alt.parallel(&star).to_string(), "YYM");
    }

    #[test]
    fn filled_constructors() {
        assert_eq!(TritVec::no(4).to_string(), "NNNN");
        assert_eq!(TritVec::maybe(4).to_string(), "MMMM");
        assert_eq!(TritVec::yes(4).to_string(), "YYYY");
        assert!(TritVec::no(0).is_empty());
    }

    #[test]
    fn get_set_roundtrip_across_word_boundary() {
        let mut v = TritVec::no(70);
        v.set(0, Trit::Yes);
        v.set(31, Trit::Maybe);
        v.set(32, Trit::Yes);
        v.set(69, Trit::Maybe);
        assert_eq!(v.get(0), Trit::Yes);
        assert_eq!(v.get(31), Trit::Maybe);
        assert_eq!(v.get(32), Trit::Yes);
        assert_eq!(v.get(69), Trit::Maybe);
        assert_eq!(v.get(1), Trit::No);
        assert_eq!(v.count_yes(), 2);
        assert_eq!(v.count_maybe(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = TritVec::no(3).get(3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = TritVec::no(3).parallel(&TritVec::no(4));
    }

    #[test]
    fn vector_ops_agree_with_scalar_ops() {
        // Exhaustive over all 9 lane combinations, replicated across a
        // word boundary.
        let len = 67;
        for (i, a0) in ALL.iter().enumerate() {
            for (j, b0) in ALL.iter().enumerate() {
                let mut a = TritVec::filled(len, *a0);
                let mut b = TritVec::filled(len, *b0);
                // Perturb one lane to a different pair to catch cross-lane leaks.
                a.set(33, ALL[(i + 1) % 3]);
                b.set(33, ALL[(j + 2) % 3]);
                let alt = a.alternative(&b);
                let par = a.parallel(&b);
                let refi = a.refine(&b);
                let abs = a.absorb_yes(&b);
                for k in 0..len {
                    let (x, y) = (a.get(k), b.get(k));
                    assert_eq!(alt.get(k), x.alternative(y), "alt lane {k}");
                    assert_eq!(par.get(k), x.parallel(y), "par lane {k}");
                    let expect_ref = if x == Trit::Maybe { y } else { x };
                    assert_eq!(refi.get(k), expect_ref, "refine lane {k}");
                    let expect_abs = if x == Trit::Maybe && y == Trit::Yes {
                        Trit::Yes
                    } else {
                        x
                    };
                    assert_eq!(abs.get(k), expect_abs, "absorb lane {k}");
                }
            }
        }
    }

    #[test]
    fn maybes_to_no() {
        let v: TritVec = "YMNMY".parse().unwrap();
        assert_eq!(v.maybes_to_no().to_string(), "YNNNY");
        assert!(!v.maybes_to_no().has_maybe());
    }

    #[test]
    fn in_place_ops_agree_with_allocating_ops() {
        // Exhaustive lane pairs across a word boundary, same shape as
        // `vector_ops_agree_with_scalar_ops`.
        let len = 67;
        for (i, a0) in ALL.iter().enumerate() {
            for (j, b0) in ALL.iter().enumerate() {
                let mut a = TritVec::filled(len, *a0);
                let mut b = TritVec::filled(len, *b0);
                a.set(33, ALL[(i + 1) % 3]);
                b.set(33, ALL[(j + 2) % 3]);

                let mut refi = a.clone();
                refi.refine_in_place(b.words());
                assert_eq!(refi, a.refine(&b));

                let mut abs = a.clone();
                abs.absorb_yes_in_place(&b);
                assert_eq!(abs, a.absorb_yes(&b));

                let mut mtn = a.clone();
                mtn.maybes_to_no_in_place();
                assert_eq!(mtn, a.maybes_to_no());

                let mut par = a.clone();
                par.parallel_in_place(&b);
                assert_eq!(par, a.parallel(&b));
            }
        }
    }

    #[test]
    fn clone_from_reuses_capacity_and_copies_content() {
        let src: TritVec = "YMNMYNM".parse().unwrap();
        let mut dst = TritVec::yes(200); // larger capacity than src needs
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.len(), 7);
        assert_eq!(dst.to_string(), "YMNMYNM");
        // And growing again works too.
        let big = TritVec::maybe(100);
        dst.clone_from(&big);
        assert_eq!(dst, big);
    }

    #[test]
    #[should_panic(expected = "word-count mismatch")]
    fn refine_in_place_rejects_mismatched_words() {
        let mut a = TritVec::no(33);
        a.refine_in_place(TritVec::no(32).words());
    }

    #[test]
    fn refinement_examples_from_section_3_3() {
        // An M in the mask is replaced by the annotation's trit; Y and N
        // are untouched.
        let mask: TritVec = "MYN".parse().unwrap();
        let ann: TritVec = "YNM".parse().unwrap();
        assert_eq!(mask.refine(&ann).to_string(), "YYN");
    }

    #[test]
    fn queries() {
        let v: TritVec = "NMY".parse().unwrap();
        assert!(v.has_maybe());
        assert!(v.has_yes());
        assert_eq!(v.count_yes(), 1);
        assert_eq!(v.count_maybe(), 1);
        assert_eq!(v.yes_indices().collect::<Vec<_>>(), vec![2]);
        assert_eq!(v.maybe_indices().collect::<Vec<_>>(), vec![1]);
        assert!(!TritVec::no(5).has_maybe());
        assert!(!TritVec::no(5).has_yes());
        assert!(TritVec::no(5).is_all_no());
        assert!(!v.is_all_no());
        assert!(TritVec::no(0).is_all_no());
    }

    #[test]
    fn index_iterators_agree_with_scalar_scan_across_word_boundaries() {
        // 97 trits spans three words with a partial tail; a pseudo-random
        // pattern hits lanes in every word.
        let mut v = TritVec::no(97);
        for i in 0..97 {
            match i % 7 {
                0 | 3 => v.set(i, Trit::Yes),
                1 | 5 => v.set(i, Trit::Maybe),
                _ => {}
            }
        }
        let scalar_yes: Vec<usize> = (0..97).filter(|&i| v.get(i) == Trit::Yes).collect();
        let scalar_maybe: Vec<usize> = (0..97).filter(|&i| v.get(i) == Trit::Maybe).collect();
        assert_eq!(v.yes_indices().collect::<Vec<_>>(), scalar_yes);
        assert_eq!(v.maybe_indices().collect::<Vec<_>>(), scalar_maybe);
        assert_eq!(v.yes_indices().count(), v.count_yes());
        assert_eq!(v.maybe_indices().count(), v.count_maybe());
        // All-Yes exercises the dense path, including the 97th lane.
        let full = TritVec::yes(97);
        assert_eq!(
            full.yes_indices().collect::<Vec<_>>(),
            (0..97).collect::<Vec<_>>()
        );
        assert!(!full.is_all_no());
    }

    #[test]
    fn canonical_equality_after_tail_writes() {
        // Two vectors with identical logical content must be equal and hash
        // the same, regardless of construction path.
        let mut a = TritVec::maybe(33);
        for i in 0..33 {
            a.set(i, Trit::Yes);
        }
        let b = TritVec::yes(33);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("YXZ".parse::<TritVec>().is_err());
        assert_eq!("".parse::<TritVec>().unwrap().len(), 0);
    }

    #[test]
    fn from_bool() {
        assert_eq!(Trit::from(true), Trit::Yes);
        assert_eq!(Trit::from(false), Trit::No);
    }

    #[test]
    fn debug_form_is_nonempty() {
        assert_eq!(format!("{:?}", TritVec::no(2)), "TritVec(\"NN\")");
        assert_eq!(format!("{:?}", Trit::Maybe), "Maybe");
    }

    #[test]
    fn from_iterator_collects() {
        let v: TritVec = [Trit::Yes, Trit::No, Trit::Maybe].into_iter().collect();
        assert_eq!(v.to_string(), "YNM");
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![Trit::Yes, Trit::No, Trit::Maybe]
        );
    }
}
