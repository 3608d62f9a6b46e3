//! The NFA program determinised: group-0 searches without the VM.
//!
//! A [`Dfa`] state is the Pike VM's thread list at one input position —
//! the program counters of the consuming instructions, *in priority
//! order* — so stepping it is one table load where the VM steps every
//! thread. Built eagerly and completely by [`Dfa::build`] (the subset
//! construction over every reachable list, under [`STATE_CAP`]), so a
//! search only reads it.
//!
//! # Symbols
//!
//! The program's instructions test chars, some through Unicode
//! predicates (`\w`, `\s`, negated classes), so the alphabet is chars
//! grouped into **classes** — chars no consuming instruction tells
//! apart. ASCII bytes find their class in a 128-entry table (case
//! folding under `(?i)` included); a non-ASCII char is decoded, folded,
//! and classed by which of the pattern's own range boundaries it falls
//! between plus its `is_alphanumeric` / `is_whitespace` bits, the only
//! other things an instruction can ask of it. A step is one char.
//!
//! # Leftmost-first
//!
//! The VM cuts every thread below the first one that reaches `Match`
//! at a position; [`Semantics::LeftmostFirst`] cuts the list there when
//! the state is built and flags it matching, so the last matching state
//! a run passes is the end the VM would report. `$` cannot be decided
//! when a state is built: an `AssertEnd` stays in the list as a pending
//! item and is resolved into the state's *matches at end of input* flag.
//! `^` holds only where a run is entered at offset 0, which is one of
//! the two start states. Empty texts, where both hold at once, never
//! reach the DFA (the caller answers them from a flag).
//!
//! [`Semantics::Longest`] keeps every thread and is what the *reverse*
//! program runs under: from the end of a match backwards, the furthest
//! accepting position is the leftmost start.

use super::nfa::{class_matches, Inst, Program};
use super::parser::ClassItem;
use std::collections::HashMap;

/// States a DFA may have. A pattern that needs more (counted
/// repetitions of alternations, mostly) stays on the Pike VM.
const STATE_CAP: usize = 256;

/// The state with no threads: every run ends here at the latest.
const DEAD: u16 = 0;

const MATCH: u8 = 1;
const MATCH_AT_END: u8 = 2;

/// Which threads survive a `Match` in the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Threads below the first `Match` are cut: the VM's rule.
    LeftmostFirst,
    /// No thread is cut: the run accepts as far as anything accepts.
    Longest,
}

/// A determinised [`Program`], entered at one fixed instruction.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Class of each ASCII byte, folded under `(?i)`. Boxed to keep
    /// the handle small: a `Regex` holds up to two of these.
    ascii: Box<[u8; 128]>,
    /// Code points (above ASCII, ascending) where some instruction's
    /// answer may change: non-ASCII chars between two neighbours are
    /// told apart only by the two predicate bits.
    bounds: Vec<u32>,
    /// Class of `[interval][is_alphanumeric][is_whitespace]`, flattened.
    wide: Vec<u8>,
    uses_word: bool,
    uses_space: bool,
    fold: bool,
    /// Classes: the row width of `trans`.
    stride: usize,
    trans: Vec<u16>,
    /// `MATCH` / `MATCH_AT_END` per state.
    flags: Vec<u8>,
    /// Start states: `[entered mid-text, entered at the text's edge]`.
    start: [u16; 2],
}

fn fold_char(c: char) -> char {
    // Exactly the VM's folding: the first char of the lower-casing.
    c.to_lowercase().next().unwrap_or(c)
}

/// A char as far as any instruction can tell: itself when ASCII, else
/// the start of its boundary interval and its predicate bits.
#[derive(Clone, Copy)]
enum Symbol {
    Ascii(char),
    Wide { lo: u32, alnum: bool, space: bool },
}

impl Symbol {
    fn consumed_by(self, inst: &Inst) -> bool {
        match (self, inst) {
            (Symbol::Ascii(c), Inst::Char(want)) => c == *want,
            (Symbol::Ascii(c), Inst::Any) => c != '\n',
            (Symbol::Ascii(c), Inst::Class { negated, items }) => class_matches(*negated, items, c),
            (Symbol::Wide { lo, .. }, Inst::Char(want)) => *want as u32 == lo,
            (Symbol::Wide { .. }, Inst::Any) => true,
            (Symbol::Wide { lo, alnum, space }, Inst::Class { negated, items }) => {
                let hit = items.iter().any(|it| match it {
                    ClassItem::Char(x) => *x as u32 == lo,
                    ClassItem::Range(a, b) => (*a as u32..=*b as u32).contains(&lo),
                    ClassItem::Digit => false,
                    ClassItem::Word => alnum,
                    ClassItem::Space => space,
                });
                hit != *negated
            }
            _ => false,
        }
    }
}

/// The subset construction in progress.
struct Builder<'p> {
    prog: &'p Program,
    semantics: Semantics,
    /// Visited marks of the closure being taken, as in the VM's lists.
    seen: Vec<bool>,
    ids: HashMap<Vec<u32>, u16>,
    lists: Vec<Vec<u32>>,
    flags: Vec<u8>,
}

impl Builder<'_> {
    /// Follow the non-consuming instructions from `pc` and append the
    /// frontier to `out` in priority order: the VM's `add_thread`, with
    /// the two position tests answered by flags. A `$` met mid-text is
    /// kept as an item; `None` marks a program the DFA does not cover.
    fn close(&mut self, pc: usize, at_edge: bool, at_end: bool, out: &mut Vec<u32>) -> Option<()> {
        if std::mem::replace(&mut self.seen[pc], true) {
            return Some(());
        }
        match &self.prog.insts[pc] {
            Inst::Jmp(t) => self.close(*t, at_edge, at_end, out),
            Inst::Split(a, b) => {
                self.close(*a, at_edge, at_end, out)?;
                self.close(*b, at_edge, at_end, out)
            }
            Inst::Save(_) => self.close(pc + 1, at_edge, at_end, out),
            Inst::AssertStart if at_edge => self.close(pc + 1, at_edge, at_end, out),
            Inst::AssertStart => Some(()),
            Inst::AssertEnd if at_end => self.close(pc + 1, at_edge, at_end, out),
            Inst::AssertWordBoundary { .. } => None,
            _ => {
                out.push(pc as u32);
                Some(())
            }
        }
    }

    /// Closure of `pcs`, in order, as one list.
    fn closure(&mut self, pcs: &[usize], at_edge: bool, at_end: bool) -> Option<Vec<u32>> {
        self.seen.iter_mut().for_each(|s| *s = false);
        let mut out = Vec::new();
        for &pc in pcs {
            self.close(pc, at_edge, at_end, &mut out)?;
        }
        Some(out)
    }

    fn is_match(&self, pc: u32) -> bool {
        matches!(self.prog.insts[pc as usize], Inst::Match)
    }

    /// The state for `list`, new or known. `None` past the cap.
    fn intern(&mut self, mut list: Vec<u32>) -> Option<u16> {
        match self.semantics {
            Semantics::LeftmostFirst => {
                if let Some(first) = list.iter().position(|&pc| self.is_match(pc)) {
                    list.truncate(first + 1);
                }
            }
            // No priorities to keep: one state per *set*.
            Semantics::Longest => list.sort_unstable(),
        }
        if let Some(&id) = self.ids.get(&list) {
            return Some(id);
        }
        if self.lists.len() == STATE_CAP {
            return None;
        }
        let mut flags = 0;
        if list.iter().any(|&pc| self.is_match(pc)) {
            flags |= MATCH;
        }
        // Pending `$`s hold at the end of input: does any reach Match?
        let pending: Vec<usize> = list
            .iter()
            .filter(|&&pc| matches!(self.prog.insts[pc as usize], Inst::AssertEnd))
            .map(|&pc| pc as usize + 1)
            .collect();
        let at_end = self.closure(&pending, false, true)?;
        if flags & MATCH != 0 || at_end.iter().any(|&pc| self.is_match(pc)) {
            flags |= MATCH_AT_END;
        }
        let id = self.lists.len() as u16;
        self.ids.insert(list.clone(), id);
        self.lists.push(list);
        self.flags.push(flags);
        Some(id)
    }
}

impl Dfa {
    /// Determinise `prog` entered at instruction `entry`. `None` when
    /// the program asserts a word boundary (which needs the chars on
    /// both sides of a position) or needs more than [`STATE_CAP`]
    /// states or 255 classes.
    pub fn build(prog: &Program, entry: usize, semantics: Semantics) -> Option<Dfa> {
        let consuming: Vec<usize> = (0..prog.insts.len())
            .filter(|&pc| {
                matches!(
                    prog.insts[pc],
                    Inst::Char(_) | Inst::Any | Inst::Class { .. }
                )
            })
            .collect();

        // Where a non-ASCII char's treatment can change.
        let mut bounds = Vec::new();
        let (mut uses_word, mut uses_space) = (false, false);
        let mut edge = |lo: char, hi: char| {
            bounds.push(lo as u32);
            bounds.push(hi as u32 + 1);
        };
        for &pc in &consuming {
            match &prog.insts[pc] {
                Inst::Char(c) => edge(*c, *c),
                Inst::Class { items, .. } => {
                    for it in items {
                        match it {
                            ClassItem::Char(c) => edge(*c, *c),
                            ClassItem::Range(a, b) => edge(*a, *b),
                            ClassItem::Word => uses_word = true,
                            ClassItem::Space => uses_space = true,
                            ClassItem::Digit => {}
                        }
                    }
                }
                _ => {}
            }
        }
        bounds.retain(|&b| b > 0x80);
        bounds.sort_unstable();
        bounds.dedup();

        // Classes: symbols with the same answer from every consuming
        // instruction.
        let mut signatures: HashMap<Vec<bool>, u8> = HashMap::new();
        let mut members: Vec<Symbol> = Vec::new();
        let mut class_of = |sym: Symbol| -> Option<u8> {
            let sig: Vec<bool> = consuming
                .iter()
                .map(|&pc| sym.consumed_by(&prog.insts[pc]))
                .collect();
            if let Some(&class) = signatures.get(&sig) {
                return Some(class);
            }
            let class = u8::try_from(members.len()).ok()?;
            signatures.insert(sig, class);
            members.push(sym);
            Some(class)
        };
        let mut ascii = Box::new([0u8; 128]);
        for b in 0..128u8 {
            let c = b as char;
            let c = if prog.case_insensitive {
                fold_char(c)
            } else {
                c
            };
            ascii[b as usize] = class_of(Symbol::Ascii(c))?;
        }
        let mut wide = Vec::with_capacity((bounds.len() + 1) * 4);
        for interval in 0..=bounds.len() {
            let lo = if interval == 0 {
                0x80
            } else {
                bounds[interval - 1]
            };
            for bits in 0..4 {
                wide.push(class_of(Symbol::Wide {
                    lo,
                    alnum: bits & 2 != 0,
                    space: bits & 1 != 0,
                })?);
            }
        }
        let stride = members.len();

        let mut b = Builder {
            prog,
            semantics,
            seen: vec![false; prog.insts.len()],
            ids: HashMap::new(),
            lists: Vec::new(),
            flags: Vec::new(),
        };
        let dead = b.intern(Vec::new())?;
        debug_assert_eq!(dead, DEAD);
        let mid = b.closure(&[entry], false, false)?;
        let edge = b.closure(&[entry], true, false)?;
        let start = [b.intern(mid)?, b.intern(edge)?];

        let mut trans = Vec::new();
        let mut state = 0;
        while state < b.lists.len() {
            for sym in &members {
                let next: Vec<usize> = b.lists[state]
                    .iter()
                    .filter(|&&pc| sym.consumed_by(&prog.insts[pc as usize]))
                    .map(|&pc| pc as usize + 1)
                    .collect();
                let list = b.closure(&next, false, false)?;
                trans.push(b.intern(list)?);
            }
            state += 1;
        }

        Some(Dfa {
            ascii,
            bounds,
            wide,
            uses_word,
            uses_space,
            fold: prog.case_insensitive,
            stride,
            trans,
            flags: b.flags,
            start,
        })
    }

    /// Class of a non-ASCII char.
    #[cold]
    fn wide_class(&self, c: char) -> u8 {
        let c = if self.fold { fold_char(c) } else { c };
        if c.is_ascii() {
            return self.ascii[c as usize];
        }
        let interval = self.bounds.partition_point(|&b| b <= c as u32);
        let alnum = self.uses_word && c.is_alphanumeric();
        let space = self.uses_space && c.is_whitespace();
        self.wide[interval * 4 + usize::from(alnum) * 2 + usize::from(space)]
    }

    #[inline]
    fn step(&self, state: u16, class: u8) -> u16 {
        self.trans[state as usize * self.stride + class as usize]
    }

    /// Run forwards from byte `from` of a non-empty `text`: the end of
    /// the match the VM would report for a run entered there (the first
    /// accepting position instead with `earliest`), or `None`.
    pub fn forward(&self, text: &str, from: usize, earliest: bool) -> Option<usize> {
        let bytes = text.as_bytes();
        let mut state = self.start[usize::from(from == 0)];
        let mut pos = from;
        let mut last = None;
        loop {
            let flags = self.flags[state as usize];
            if flags & MATCH != 0 {
                last = Some(pos);
                if earliest {
                    break;
                }
            }
            if pos == bytes.len() {
                if flags & MATCH_AT_END != 0 {
                    last = Some(pos);
                }
                break;
            }
            if state == DEAD {
                break;
            }
            let b = bytes[pos];
            if b < 0x80 {
                state = self.step(state, self.ascii[b as usize]);
                pos += 1;
            } else {
                let c = text[pos..].chars().next().expect("pos is a char boundary");
                state = self.step(state, self.wide_class(c));
                pos += c.len_utf8();
            }
        }
        last
    }

    /// Run backwards from byte `from` of a non-empty `text` (the DFA of
    /// a reversed program): the furthest-back accepting position.
    pub fn backward(&self, text: &str, from: usize) -> Option<usize> {
        let bytes = text.as_bytes();
        let mut state = self.start[usize::from(from == bytes.len())];
        let mut pos = from;
        let mut last = None;
        loop {
            let flags = self.flags[state as usize];
            if flags & MATCH != 0 {
                last = Some(pos);
            }
            if pos == 0 {
                if flags & MATCH_AT_END != 0 {
                    last = Some(0);
                }
                break;
            }
            if state == DEAD {
                break;
            }
            let b = bytes[pos - 1];
            if b < 0x80 {
                state = self.step(state, self.ascii[b as usize]);
                pos -= 1;
            } else {
                let c = text[..pos]
                    .chars()
                    .next_back()
                    .expect("pos is a char boundary");
                state = self.step(state, self.wide_class(c));
                pos -= c.len_utf8();
            }
        }
        last
    }

    /// Number of states (tests and the coverage report).
    #[cfg(test)]
    pub fn states(&self) -> usize {
        self.flags.len()
    }
}
