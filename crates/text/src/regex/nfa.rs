//! AST → NFA bytecode compiler (Thompson construction flattened into a
//! program for the Pike VM).

use super::parser::{Ast, ClassItem};

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Match exactly this character.
    Char(char),
    /// Match any character except `\n`.
    Any,
    /// Match a character class.
    Class {
        /// `[^...]` when true.
        negated: bool,
        /// Members.
        items: Vec<ClassItem>,
    },
    /// Fork execution: try `a` first (priority), then `b`.
    Split(usize, usize),
    /// Unconditional jump.
    Jmp(usize),
    /// Record the current input position into capture slot `n`.
    Save(usize),
    /// Assert beginning of input.
    AssertStart,
    /// Assert end of input.
    AssertEnd,
    /// Assert a word boundary (`negated` for `\B`).
    AssertWordBoundary {
        /// `\B` form.
        negated: bool,
    },
    /// Accept.
    Match,
}

/// A compiled program plus metadata the VM needs.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instruction list.
    pub insts: Vec<Inst>,
    /// Number of capture slots (2 × (groups + 1)).
    pub n_slots: usize,
    /// Case-insensitive matching.
    pub case_insensitive: bool,
}

/// Where the pattern proper starts (`Save(0)`), past the unanchored
/// prefix loop: entering here runs the program anchored.
pub const PATTERN_ENTRY: usize = 3;

/// Compile `ast` (with `n_groups` capture groups) into a program.
///
/// The emitted program is *unanchored*: it begins with a lazy skip
/// loop so the VM finds the leftmost match without an outer scan loop,
/// then `Save(0) … body … Save(1) Match`.
pub fn compile(ast: &Ast, n_groups: usize, case_insensitive: bool) -> Program {
    let mut c = Compiler {
        insts: Vec::new(),
        case_insensitive,
    };
    // Unanchored prefix: L0: Split(L3, L1); L1: <any char>; Jmp(L0);
    // L3: ... (Prefer entering the pattern — leftmost semantics.) The
    // skip is the empty negated class, not `Any`: a match may start
    // after a newline.
    c.insts.push(Inst::Split(PATTERN_ENTRY, 1)); // 0
    c.insts.push(Inst::Class {
        negated: true,
        items: Vec::new(),
    }); // 1
    c.insts.push(Inst::Jmp(0)); // 2
    c.insts.push(Inst::Save(0)); // 3
    c.node(ast);
    c.insts.push(Inst::Save(1));
    c.insts.push(Inst::Match);
    Program {
        insts: c.insts,
        n_slots: 2 * (n_groups + 1),
        case_insensitive,
    }
}

struct Compiler {
    insts: Vec<Inst>,
    case_insensitive: bool,
}

impl Compiler {
    fn here(&self) -> usize {
        self.insts.len()
    }

    fn node(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(c) => {
                let ch = if self.case_insensitive {
                    c.to_lowercase().next().unwrap_or(*c)
                } else {
                    *c
                };
                self.insts.push(Inst::Char(ch));
            }
            Ast::AnyChar => self.insts.push(Inst::Any),
            Ast::Class { negated, items } => {
                let items = if self.case_insensitive {
                    items.iter().map(|it| fold_item(*it)).collect()
                } else {
                    items.clone()
                };
                self.insts.push(Inst::Class {
                    negated: *negated,
                    items,
                });
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.node(p);
                }
            }
            Ast::Alternate(branches) => {
                // Chain of Splits; every branch jumps to the common end.
                let mut jmp_fixups = Vec::new();
                let mut split_fixups = Vec::new();
                for (i, b) in branches.iter().enumerate() {
                    let last = i + 1 == branches.len();
                    if !last {
                        split_fixups.push(self.here());
                        self.insts.push(Inst::Split(0, 0)); // patched below
                    }
                    let body_start = self.here();
                    self.node(b);
                    if !last {
                        jmp_fixups.push(self.here());
                        self.insts.push(Inst::Jmp(0)); // patched below
                        let after = self.here();
                        let split_at = split_fixups[i];
                        self.insts[split_at] = Inst::Split(body_start, after);
                    }
                }
                let end = self.here();
                for j in jmp_fixups {
                    self.insts[j] = Inst::Jmp(end);
                }
            }
            Ast::Group { index, node } => {
                if let Some(g) = index {
                    self.insts.push(Inst::Save(2 * (*g as usize)));
                    self.node(node);
                    self.insts.push(Inst::Save(2 * (*g as usize) + 1));
                } else {
                    self.node(node);
                }
            }
            Ast::AnchorStart => self.insts.push(Inst::AssertStart),
            Ast::AnchorEnd => self.insts.push(Inst::AssertEnd),
            Ast::WordBoundary { negated } => self
                .insts
                .push(Inst::AssertWordBoundary { negated: *negated }),
            Ast::Repeat {
                node,
                min,
                max,
                greedy,
            } => self.repeat(node, *min, *max, *greedy),
        }
    }

    fn repeat(&mut self, node: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Mandatory copies.
        for _ in 0..min {
            self.node(node);
        }
        match max {
            None => {
                // star/plus tail: L: Split(body, out); body; Jmp(L)
                let l = self.here();
                self.insts.push(Inst::Split(0, 0));
                let body = self.here();
                self.node(node);
                self.insts.push(Inst::Jmp(l));
                let out = self.here();
                self.insts[l] = if greedy {
                    Inst::Split(body, out)
                } else {
                    Inst::Split(out, body)
                };
            }
            Some(mx) => {
                // Up to (max - min) optional copies, each individually
                // skippable to the common end.
                let mut fixups = Vec::new();
                for _ in 0..mx.saturating_sub(min) {
                    fixups.push(self.here());
                    self.insts.push(Inst::Split(0, 0));
                    self.node(node);
                }
                let out = self.here();
                for f in fixups {
                    let body = f + 1;
                    self.insts[f] = if greedy {
                        Inst::Split(body, out)
                    } else {
                        Inst::Split(out, body)
                    };
                }
            }
        }
    }
}

fn fold_item(it: ClassItem) -> ClassItem {
    match it {
        ClassItem::Char(c) => ClassItem::Char(c.to_lowercase().next().unwrap_or(c)),
        ClassItem::Range(a, b) => {
            // Only fold pure-ASCII alpha ranges; anything else unchanged.
            if a.is_ascii_uppercase() && b.is_ascii_uppercase() {
                ClassItem::Range(a.to_ascii_lowercase(), b.to_ascii_lowercase())
            } else {
                ClassItem::Range(a, b)
            }
        }
        other => other,
    }
}

/// Does `c` match the class? Shared by the VM.
pub fn class_matches(negated: bool, items: &[ClassItem], c: char) -> bool {
    let hit = items.iter().any(|it| match it {
        ClassItem::Char(x) => *x == c,
        ClassItem::Range(a, b) => (*a..=*b).contains(&c),
        ClassItem::Digit => c.is_ascii_digit(),
        ClassItem::Word => c.is_alphanumeric() || c == '_',
        ClassItem::Space => c.is_whitespace(),
    });
    hit != negated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parser::parse;

    fn program(pat: &str) -> Program {
        let (ast, n, ci) = parse(pat).unwrap();
        compile(&ast, n, ci)
    }

    #[test]
    fn literal_compiles_to_chars() {
        let p = program("ab");
        // prefix (3) + Save(0) + 2 chars + Save(1) + Match
        assert_eq!(p.insts.len(), 3 + 1 + 2 + 1 + 1);
        assert!(matches!(p.insts[4], Inst::Char('a')));
        assert!(matches!(p.insts[5], Inst::Char('b')));
    }

    #[test]
    fn case_insensitive_folds_literals() {
        let p = program("(?i)AB");
        assert!(matches!(p.insts[4], Inst::Char('a')));
        assert!(p.case_insensitive);
    }

    #[test]
    fn capture_slots_counted() {
        assert_eq!(program("(a)(b)").n_slots, 6);
        assert_eq!(program("a").n_slots, 2);
    }

    #[test]
    fn class_matching() {
        assert!(class_matches(false, &[ClassItem::Range('a', 'z')], 'm'));
        assert!(!class_matches(false, &[ClassItem::Range('a', 'z')], 'M'));
        assert!(class_matches(true, &[ClassItem::Range('a', 'z')], 'M'));
        assert!(class_matches(false, &[ClassItem::Digit], '7'));
        assert!(class_matches(false, &[ClassItem::Word], '_'));
        assert!(class_matches(false, &[ClassItem::Space], '\t'));
    }

    #[test]
    fn every_jump_target_is_in_bounds() {
        for pat in ["a|b|c", "a*b+c?", "a{2,4}", "(ab|cd)*ef", "x(?:y|z){1,3}w"] {
            let p = program(pat);
            for inst in &p.insts {
                match inst {
                    Inst::Split(a, b) => {
                        assert!(*a < p.insts.len() && *b < p.insts.len(), "{pat}: {inst:?}");
                    }
                    Inst::Jmp(t) => assert!(*t < p.insts.len(), "{pat}: {inst:?}"),
                    _ => {}
                }
            }
        }
    }
}
