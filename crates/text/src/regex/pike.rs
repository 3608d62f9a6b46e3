//! Pike VM: executes a compiled [`Program`] over an input string in
//! O(len(program) × len(input)) with full capture tracking.
//!
//! Threads are kept in priority order; the first thread to reach `Match`
//! at a given input position wins, which yields leftmost,
//! greedy-respecting semantics identical to backtracking engines for the
//! supported syntax — without the exponential blowup.

use super::nfa::{class_matches, Inst, Program, PATTERN_ENTRY};
use std::rc::Rc;

/// Persistent capture-slot list: cheap to share between threads, copied
/// only on write.
#[derive(Debug, Clone)]
struct Slots(Rc<Vec<Option<usize>>>);

impl Slots {
    fn new(n: usize) -> Slots {
        Slots(Rc::new(vec![None; n]))
    }

    fn set(&self, idx: usize, val: usize) -> Slots {
        let mut v = (*self.0).clone();
        if idx < v.len() {
            v[idx] = Some(val);
        }
        Slots(Rc::new(v))
    }
}

struct ThreadList {
    /// Program counters in priority order.
    dense: Vec<(usize, Slots)>,
    /// Membership test: generation-stamped.
    sparse: Vec<u64>,
    gen: u64,
}

impl ThreadList {
    fn new(n: usize) -> ThreadList {
        ThreadList {
            dense: Vec::with_capacity(n),
            // gen starts above the zero-initialized stamps so an empty
            // list contains nothing.
            sparse: vec![0; n],
            gen: 1,
        }
    }

    fn clear(&mut self) {
        self.dense.clear();
        self.gen += 1;
    }

    fn contains(&self, pc: usize) -> bool {
        self.sparse[pc] == self.gen
    }

    fn mark(&mut self, pc: usize) {
        self.sparse[pc] = self.gen;
    }
}

/// Capture spans (byte offsets) of one match; index 0 is the whole
/// match, groups that did not participate are `None`.
pub type Captures = Vec<Option<(usize, usize)>>;

/// Run the program, returning capture spans for the leftmost match, or
/// `None`.
pub fn search(prog: &Program, text: &str) -> Option<Captures> {
    Vm::new(prog).run(text, 0, 0)
}

/// [`search`] for a program whose every match starts with the literal
/// `prefix` (non-empty, matched case-sensitively): jump to each
/// occurrence of the literal and run the program *anchored* there,
/// instead of carrying a thread through every input char. The first
/// occurrence that matches is the leftmost match, and the anchored run
/// sees the whole text at its true offset, so assertions read the same
/// context.
pub fn search_prefixed(prog: &Program, prefix: &str, text: &str) -> Option<Captures> {
    let first = prefix.chars().next()?.len_utf8();
    let mut vm = Vm::new(prog);
    let mut from = 0;
    while let Some(off) = text[from..].find(prefix) {
        let at = from + off;
        if let Some(caps) = vm.run(text, PATTERN_ENTRY, at) {
            return Some(caps);
        }
        // Occurrences may overlap (`aa` in `aaab`): resume one char on.
        from = at + first;
    }
    None
}

/// The two thread lists of a run, reusable across runs of one program.
struct Vm<'p> {
    prog: &'p Program,
    clist: ThreadList,
    nlist: ThreadList,
}

impl<'p> Vm<'p> {
    fn new(prog: &'p Program) -> Vm<'p> {
        let n = prog.insts.len();
        Vm {
            prog,
            clist: ThreadList::new(n),
            nlist: ThreadList::new(n),
        }
    }

    /// Enter the program at `pc` with the input position at byte `at`
    /// of `text` and run to the end of the input or of the threads.
    fn run(&mut self, text: &str, pc: usize, at: usize) -> Option<Captures> {
        let Vm { prog, clist, nlist } = self;
        let prog = *prog;
        let mut matched: Option<Slots> = None;

        // Character positions: we step through char boundaries; `at` is
        // the byte offset of the current input position.
        let mut at = at;
        let mut iter = text[at..].chars();

        clist.clear();
        add_thread(prog, clist, pc, Slots::new(prog.n_slots), at, text);

        loop {
            if clist.dense.is_empty() {
                break;
            }
            let c = iter.next();
            nlist.clear();
            let next_at = at + c.map(|ch| ch.len_utf8()).unwrap_or(0);
            let mut i = 0;
            while i < clist.dense.len() {
                let (pc, slots) = clist.dense[i].clone();
                i += 1;
                match &prog.insts[pc] {
                    Inst::Match => {
                        // Highest-priority thread that matches at this
                        // position wins; lower-priority threads are cut
                        // off.
                        matched = Some(slots);
                        break;
                    }
                    Inst::Char(want) => {
                        if let Some(have) = c {
                            let have = if prog.case_insensitive {
                                have.to_lowercase().next().unwrap_or(have)
                            } else {
                                have
                            };
                            if have == *want {
                                add_thread(prog, nlist, pc + 1, slots, next_at, text);
                            }
                        }
                    }
                    Inst::Any => {
                        if let Some(have) = c {
                            if have != '\n' {
                                add_thread(prog, nlist, pc + 1, slots, next_at, text);
                            }
                        }
                    }
                    Inst::Class { negated, items } => {
                        if let Some(have) = c {
                            let have = if prog.case_insensitive {
                                have.to_lowercase().next().unwrap_or(have)
                            } else {
                                have
                            };
                            if class_matches(*negated, items, have) {
                                add_thread(prog, nlist, pc + 1, slots, next_at, text);
                            }
                        }
                    }
                    // Split/Jmp/Save/Assert are handled eagerly in add_thread.
                    _ => unreachable!("non-consuming instruction in run list"),
                }
            }
            std::mem::swap(clist, nlist);
            at = next_at;
            if c.is_none() {
                break;
            }
        }

        matched.map(|slots| {
            let v = &*slots.0;
            let mut out = Vec::with_capacity(v.len() / 2);
            for g in 0..v.len() / 2 {
                out.push(match (v[2 * g], v[2 * g + 1]) {
                    (Some(s), Some(e)) => Some((s, e)),
                    _ => None,
                });
            }
            out
        })
    }
}

/// Follow non-consuming instructions (Split/Jmp/Save/Assert) and enqueue
/// the consuming frontier in priority order.
fn add_thread(
    prog: &Program,
    list: &mut ThreadList,
    pc: usize,
    slots: Slots,
    at: usize,
    text: &str,
) {
    if list.contains(pc) {
        return;
    }
    list.mark(pc);
    match &prog.insts[pc] {
        Inst::Jmp(t) => add_thread(prog, list, *t, slots, at, text),
        Inst::Split(a, b) => {
            add_thread(prog, list, *a, slots.clone(), at, text);
            add_thread(prog, list, *b, slots, at, text);
        }
        Inst::Save(idx) => add_thread(prog, list, pc + 1, slots.set(*idx, at), at, text),
        Inst::AssertStart => {
            if at == 0 {
                add_thread(prog, list, pc + 1, slots, at, text);
            }
        }
        Inst::AssertEnd => {
            if at == text.len() {
                add_thread(prog, list, pc + 1, slots, at, text);
            }
        }
        Inst::AssertWordBoundary { negated } => {
            let is_word = |c: char| c.is_alphanumeric() || c == '_';
            let before = text[..at].chars().next_back().map(is_word).unwrap_or(false);
            let after = text[at..].chars().next().map(is_word).unwrap_or(false);
            if (before != after) != *negated {
                add_thread(prog, list, pc + 1, slots, at, text);
            }
        }
        _ => list.dense.push((pc, slots)),
    }
}

#[cfg(test)]
mod tests {
    use crate::regex::Regex;

    #[test]
    fn leftmost_match_wins() {
        let re = Regex::new("b+").unwrap();
        assert_eq!(re.find("abbbabb"), Some((1, 4)));
    }

    #[test]
    fn priority_prefers_greedy() {
        let re = Regex::new("a|ab").unwrap();
        // Alternation prefers first branch: matches "a".
        assert_eq!(re.find("ab"), Some((0, 1)));
        let re = Regex::new("ab|a").unwrap();
        assert_eq!(re.find("ab"), Some((0, 2)));
    }

    #[test]
    fn captures_in_repetition_take_last_iteration() {
        let re = Regex::new("(a|b)+").unwrap();
        let caps = re.captures("abb").unwrap();
        assert_eq!(caps[0], Some((0, 3)));
        assert_eq!(caps[1], Some((2, 3)));
    }

    #[test]
    fn anchored_at_both_ends() {
        let re = Regex::new("^abc$").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("xabc"));
        assert!(!re.is_match("abcx"));
    }

    #[test]
    fn dot_excludes_newline() {
        let re = Regex::new("a.c").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("a\nc"));
    }

    #[test]
    fn multibyte_spans_are_byte_offsets() {
        let re = Regex::new("(震)").unwrap();
        let caps = re.captures("地震").unwrap();
        // "地" is 3 bytes.
        assert_eq!(caps[1], Some((3, 6)));
    }

    #[test]
    fn empty_pattern_matches_at_zero() {
        let re = Regex::new("").unwrap();
        assert_eq!(re.find("xyz"), Some((0, 0)));
        assert_eq!(re.find(""), Some((0, 0)));
    }
}
