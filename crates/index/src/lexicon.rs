//! The lexicon: memory-resident per-term metadata.
//!
//! Term names live once, back to back in one string arena, and the
//! name → id index is an open-addressing table of `u32` ids that hashes
//! and compares names through the arena. A term costs its name's bytes
//! plus a 4-byte end offset, 4–8 bytes of table slot and its
//! [`TermEntry`]; no per-term heap allocation is made.

use ir_types::{IrError, IrResult, TermId};
use serde::Serialize;
use std::hash::{BuildHasher, RandomState};

/// Per-term statistics, computed at index build time. The term's name
/// is [`Lexicon::name`].
#[derive(Clone, Debug, Serialize)]
pub struct TermEntry {
    /// `f_t`: number of documents containing the term.
    pub doc_freq: u32,
    /// `idf_t = log₂(N / f_t)` (Eq. 4).
    pub idf: f64,
    /// `f_max`: the largest `f_{d,t}` in the term's inverted list —
    /// kept with the idf values so step 4b/3c of DF/BAF can skip a list
    /// without reading it (paper footnote 3).
    pub f_max: u32,
    /// Total `(d, f_{d,t})` entries in the list.
    pub n_postings: u64,
    /// Pages the list occupies on disk.
    pub n_pages: u32,
    /// Collection-derived stop words keep their lexicon slot but have
    /// no inverted list and are skipped at query time.
    pub stopped: bool,
}

/// Marks an empty slot of the name → id table.
const EMPTY: u32 = u32::MAX;

/// Term name ↔ id mapping plus per-term statistics.
#[derive(Debug, Default)]
pub struct Lexicon {
    /// Every term name, concatenated in id order.
    names: String,
    /// `ends[t]`: end offset of term `t`'s name in `names`.
    ends: Vec<u32>,
    /// Open-addressing name → id table (linear probing; a power-of-two
    /// length kept at most half full, or empty before the first
    /// intern). Slots hold a term id or [`EMPTY`].
    slots: Vec<u32>,
    /// Keyed per lexicon, since names come from outside the program;
    /// ids and iteration order never depend on it.
    hasher: RandomState,
    entries: Vec<TermEntry>,
}

impl Lexicon {
    /// Creates an empty lexicon.
    pub fn new() -> Self {
        Lexicon::default()
    }

    /// The name of term `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a term of this lexicon.
    pub fn name(&self, id: TermId) -> &str {
        let t = id.index();
        let start = if t == 0 { 0 } else { self.ends[t - 1] as usize };
        &self.names[start..self.ends[t] as usize]
    }

    /// The table slot holding `name`'s id, or the empty slot where it
    /// would go. The table must be non-empty.
    fn slot(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(name.as_bytes()) as usize & mask;
        loop {
            let id = self.slots[i];
            if id == EMPTY || self.name(TermId(id)) == name {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (or allocates the first one) and re-inserts
    /// every id.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        self.slots = vec![EMPTY; len];
        for t in 0..self.entries.len() as u32 {
            let i = self.slot(self.name(TermId(t)));
            self.slots[i] = t;
        }
    }

    /// Returns the id for `name`, inserting a fresh entry if absent.
    /// Statistics of fresh entries are zeroed until the build fills
    /// them in.
    ///
    /// # Panics
    /// Panics if the names would exceed 4 GiB in total.
    pub fn intern(&mut self, name: &str) -> TermId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.slot(name);
        let id = TermId(self.entries.len() as u32);
        self.names.push_str(name);
        let end = u32::try_from(self.names.len()).expect("term names exceed 4 GiB");
        self.ends.push(end);
        self.slots[i] = id.0;
        self.entries.push(TermEntry {
            doc_freq: 0,
            idf: 0.0,
            f_max: 0,
            n_postings: 0,
            n_pages: 0,
            stopped: false,
        });
        id
    }

    /// Looks up a term by name.
    pub fn lookup(&self, name: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.slot(name)] {
            EMPTY => None,
            id => Some(TermId(id)),
        }
    }

    /// Looks up a term by name, erroring with the term string if absent.
    pub fn require(&self, name: &str) -> IrResult<TermId> {
        self.lookup(name)
            .ok_or_else(|| IrError::UnknownTermString(name.to_string()))
    }

    /// The entry for `id`.
    pub fn entry(&self, id: TermId) -> IrResult<&TermEntry> {
        self.entries.get(id.index()).ok_or(IrError::UnknownTerm(id))
    }

    /// Mutable entry access (builder only).
    pub(crate) fn entry_mut(&mut self, id: TermId) -> &mut TermEntry {
        &mut self.entries[id.index()]
    }

    /// Releases the spare capacity interning left behind (builder
    /// only, once every term is in).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.entries.shrink_to_fit();
    }

    /// Number of terms (including stopped ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(id, entry)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &TermEntry)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (TermId(i as u32), e))
    }

    /// Number of non-stopped terms with at least one posting.
    pub fn n_indexed_terms(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.stopped && e.n_postings > 0)
            .count()
    }

    /// Groups inverted lists by idf band, as in the paper's Table 4.
    /// Returns `(low, high, count, min_pages, max_pages)` per band for
    /// the given band boundaries (ascending idf).
    pub fn idf_bands(&self, bounds: &[f64]) -> Vec<IdfBand> {
        let mut bands: Vec<IdfBand> = bounds
            .windows(2)
            .map(|w| IdfBand {
                idf_low: w[0],
                idf_high: w[1],
                n_terms: 0,
                min_pages: u32::MAX,
                max_pages: 0,
            })
            .collect();
        for e in &self.entries {
            if e.stopped || e.n_postings == 0 {
                continue;
            }
            for b in bands.iter_mut() {
                if e.idf >= b.idf_low && e.idf < b.idf_high {
                    b.n_terms += 1;
                    b.min_pages = b.min_pages.min(e.n_pages);
                    b.max_pages = b.max_pages.max(e.n_pages);
                    break;
                }
            }
        }
        for b in bands.iter_mut() {
            if b.n_terms == 0 {
                b.min_pages = 0;
            }
        }
        bands
    }
}

/// One row of a Table 4-style inverted-list census.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IdfBand {
    /// Inclusive lower idf bound.
    pub idf_low: f64,
    /// Exclusive upper idf bound.
    pub idf_high: f64,
    /// Terms whose idf falls in the band.
    pub n_terms: usize,
    /// Shortest list in the band (pages).
    pub min_pages: u32,
    /// Longest list in the band (pages).
    pub max_pages: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut lex = Lexicon::new();
        let a = lex.intern("price");
        let b = lex.intern("stock");
        let a2 = lex.intern("price");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(lex.len(), 2);
    }

    #[test]
    fn names_round_trip_across_table_growths() {
        let mut lex = Lexicon::new();
        let names: Vec<String> = (0..100_000).map(|i| format!("t{i:x}")).collect();
        let ids: Vec<TermId> = names.iter().map(|n| lex.intern(n)).collect();
        assert_eq!(lex.len(), names.len());
        for (i, (name, &id)) in names.iter().zip(&ids).enumerate() {
            assert_eq!(id, TermId(i as u32), "ids are dense, in first-intern order");
            assert_eq!(lex.lookup(name), Some(id));
            assert_eq!(lex.name(id), name);
        }
        // Re-interning returns the same ids and adds nothing.
        for (name, &id) in names.iter().zip(&ids).rev() {
            assert_eq!(lex.intern(name), id);
        }
        assert_eq!(lex.len(), names.len());
        for unknown in ["", "t", "t186a0", "T0", "t0 ", "price"] {
            assert_eq!(lex.lookup(unknown), None, "{unknown:?}");
        }
        assert_eq!(Lexicon::new().lookup("t0"), None);
    }

    #[test]
    fn empty_and_prefix_names_stay_distinct() {
        let mut lex = Lexicon::new();
        let a = lex.intern("ab");
        let e = lex.intern("");
        let b = lex.intern("a");
        assert_eq!((lex.name(a), lex.name(e), lex.name(b)), ("ab", "", "a"));
        assert_eq!(lex.lookup(""), Some(e));
        assert_eq!(lex.intern("ab"), a);
    }

    #[test]
    fn lookup_and_require() {
        let mut lex = Lexicon::new();
        lex.intern("price");
        assert!(lex.lookup("price").is_some());
        assert!(lex.lookup("gold").is_none());
        assert!(matches!(
            lex.require("gold"),
            Err(IrError::UnknownTermString(_))
        ));
    }

    #[test]
    fn entry_errors_on_unknown_id() {
        let lex = Lexicon::new();
        assert!(lex.entry(TermId(3)).is_err());
    }

    #[test]
    fn idf_bands_partition_terms() {
        let mut lex = Lexicon::new();
        for (name, idf, pages) in [
            ("a", 2.0, 100),
            ("b", 4.0, 20),
            ("c", 9.0, 1),
            ("d", 2.5, 60),
        ] {
            let id = lex.intern(name);
            let e = lex.entry_mut(id);
            e.idf = idf;
            e.n_pages = pages;
            e.n_postings = pages as u64;
        }
        let bands = lex.idf_bands(&[1.9, 3.1, 5.4, 8.7, 17.4]);
        assert_eq!(bands.len(), 4);
        assert_eq!(bands[0].n_terms, 2); // a, d
        assert_eq!(bands[0].min_pages, 60);
        assert_eq!(bands[0].max_pages, 100);
        assert_eq!(bands[1].n_terms, 1); // b
        assert_eq!(bands[2].n_terms, 0);
        assert_eq!(bands[3].n_terms, 1); // c
    }

    #[test]
    fn stopped_terms_excluded_from_census() {
        let mut lex = Lexicon::new();
        let id = lex.intern("the");
        {
            let e = lex.entry_mut(id);
            e.idf = 2.0;
            e.n_pages = 500;
            e.n_postings = 500;
            e.stopped = true;
        }
        assert_eq!(lex.n_indexed_terms(), 0);
        let bands = lex.idf_bands(&[0.0, 100.0]);
        assert_eq!(bands[0].n_terms, 0);
    }
}
