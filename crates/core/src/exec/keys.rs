//! A hash table keyed by [`Value`]s and probed with borrowed views.
//!
//! The aggregate's group table is keyed by `Vec<Value>` and its
//! `count(distinct …)` sets by `Value`, but the tuple that probes them
//! usually lives somewhere else — in a [`TweetBatch`]'s row store — and
//! usually finds its entry already there. [`KeyParts`] is the probe:
//! anything that can show its key as a sequence of [`ValueRef`]s hashes
//! and compares as the owned key would (`ValueRef` *is* `Value`'s
//! equality and hash, `Int(1)` = `Float(1.0)` included), so a hit builds
//! no `Value`, bumps no `Arc` and allocates nothing. The owned key is
//! built only to insert.
//!
//! [`KeyTable`] takes the probe's hash from the caller — [`key_hash`],
//! [`WordHasher`] a word at a time, deterministic; or one the caller
//! worked out once for many probes, such as one per dictionary code of
//! a batch column — and keeps it as the key of a std `HashMap` that
//! does not hash again: hit or miss is one probe (the entry API works,
//! the key being a `u64`), and a growing table re-buckets the stored
//! hashes without touching a string. Nothing observable depends
//! on iteration order — flushes and digests sort their groups — so a
//! fixed seed costs nothing and saves the 20 ns a short key spent in
//! SipHash. It does give up SipHash's resistance to crafted collisions:
//! a stream built to collide lands its keys in the overflow list, which
//! is scanned, bounded by the groups one window holds.
//!
//! [`TweetBatch`]: tweeql_model::TweetBatch

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use tweeql_model::{Value, ValueRef};

/// A key as a sequence of borrowed values.
pub(super) trait KeyParts {
    /// Number of values in the key.
    fn len(&self) -> usize;
    /// The `k`-th value.
    fn part(&self, k: usize) -> ValueRef<'_>;
}

impl KeyParts for Vec<Value> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }
    fn part(&self, k: usize) -> ValueRef<'_> {
        ValueRef::from(&self[k])
    }
}

impl KeyParts for Value {
    fn len(&self) -> usize {
        1
    }
    fn part(&self, _: usize) -> ValueRef<'_> {
        ValueRef::from(self)
    }
}

impl KeyParts for ValueRef<'_> {
    fn len(&self) -> usize {
        1
    }
    fn part(&self, _: usize) -> ValueRef<'_> {
        *self
    }
}

/// The hash [`KeyTable`] files `probe` under. Keys of one table all
/// have the same length, so it is not hashed.
pub(super) fn key_hash(probe: &impl KeyParts) -> u64 {
    let mut state = WordHasher::default();
    for k in 0..probe.len() {
        probe.part(k).hash(&mut state);
    }
    state.finish()
}

fn same_key(a: &impl KeyParts, b: &impl KeyParts) -> bool {
    a.len() == b.len() && (0..a.len()).all(|k| a.part(k) == b.part(k))
}

/// `K → V` for owned keys `K`, probed with any [`KeyParts`].
#[derive(Debug, Clone)]
pub(super) struct KeyTable<K, V> {
    /// The first key seen with each hash.
    by_hash: HashMap<u64, (K, V), BuildHasherDefault<HashIsKey>>,
    /// Keys whose hash another key already held: practically empty.
    overflow: Vec<(K, V)>,
    /// Bits of the hash the table keeps; tests clear most of them to
    /// make keys collide.
    #[cfg(test)]
    hash_mask: u64,
}

impl<K, V> Default for KeyTable<K, V> {
    fn default() -> Self {
        KeyTable {
            by_hash: HashMap::default(),
            overflow: Vec::new(),
            #[cfg(test)]
            hash_mask: u64::MAX,
        }
    }
}

impl<K: KeyParts, V> KeyTable<K, V> {
    /// Entries.
    pub fn len(&self) -> usize {
        self.by_hash.len() + self.overflow.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bits of `hash` the table keys on.
    fn kept(&self, hash: u64) -> u64 {
        #[cfg(test)]
        return hash & self.hash_mask;
        #[cfg(not(test))]
        hash
    }

    fn overflowed(&self, probe: &impl KeyParts) -> Option<usize> {
        self.overflow.iter().position(|(k, _)| same_key(k, probe))
    }

    /// The value under the key `probe` shows, if any.
    #[cfg(test)]
    pub fn get(&self, probe: &impl KeyParts) -> Option<&V> {
        match self.by_hash.get(&self.kept(key_hash(probe))) {
            Some((k, v)) if same_key(k, probe) => Some(v),
            _ => self.overflowed(probe).map(|at| &self.overflow[at].1),
        }
    }

    /// The value under the key `probe` shows, `hash` being its
    /// [`key_hash`]; when there is none, the entry `key()`/`value()`
    /// build is inserted first — the only time the key is built.
    pub fn get_or_insert_with(
        &mut self,
        hash: u64,
        probe: &impl KeyParts,
        key: impl FnOnce() -> K,
        value: impl FnOnce() -> V,
    ) -> &mut V {
        if let Some(at) = self.overflowed(probe) {
            return &mut self.overflow[at].1;
        }
        match self.by_hash.entry(self.kept(hash)) {
            Entry::Vacant(slot) => &mut slot.insert((key(), value())).1,
            Entry::Occupied(slot) if same_key(&slot.get().0, probe) => &mut slot.into_mut().1,
            Entry::Occupied(_) => {
                self.overflow.push((key(), value()));
                &mut self.overflow.last_mut().expect("just pushed").1
            }
        }
    }

    /// Remove and return the entry under the key `probe` shows, `hash`
    /// being its [`key_hash`].
    pub fn remove(&mut self, hash: u64, probe: &impl KeyParts) -> Option<(K, V)> {
        if let Entry::Occupied(slot) = self.by_hash.entry(self.kept(hash)) {
            if same_key(&slot.get().0, probe) {
                return Some(slot.remove());
            }
        }
        self.overflowed(probe)
            .map(|at| self.overflow.swap_remove(at))
    }

    /// Every entry, in no order anything may depend on.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        (self.by_hash.values())
            .chain(&self.overflow)
            .map(|(k, v)| (k, v))
    }

    /// Every entry, by value.
    pub fn into_entries(self) -> impl Iterator<Item = (K, V)> {
        self.by_hash.into_values().chain(self.overflow)
    }
}

/// A set of strings that owns their bytes — `count(distinct …)`'s
/// string members. Every member lies in one buffer, back to back, found
/// through an open-addressed table (a std `HashMap` that does not hash
/// again, as in [`KeyTable`]) of `hash → (start, len)`: a new member is
/// a copy into the buffer, not an allocation of its own, and dropping
/// the set frees two buffers whatever it held. A member whose hash
/// another already holds goes to a scanned overflow list.
#[derive(Debug, Default)]
pub(super) struct StrSet {
    bytes: Vec<u8>,
    by_hash: HashMap<u64, (usize, usize), BuildHasherDefault<HashIsKey>>,
    overflow: Vec<(usize, usize)>,
    /// Hash bits the set throws away; tests set most of them to make
    /// members collide.
    #[cfg(test)]
    hash_clear: u64,
}

impl StrSet {
    /// Members.
    pub fn len(&self) -> usize {
        self.by_hash.len() + self.overflow.len()
    }

    /// Add `s`; true when it was not a member.
    pub fn insert(&mut self, s: &str) -> bool {
        let b = s.as_bytes();
        let held = |&(start, len): &(usize, usize)| self.bytes[start..start + len] == *b;
        let member = (self.bytes.len(), b.len());
        #[cfg(test)]
        let hash = str_hash(b) & !self.hash_clear;
        #[cfg(not(test))]
        let hash = str_hash(b);
        match self.by_hash.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(member);
            }
            Entry::Occupied(slot) if held(slot.get()) => return false,
            Entry::Occupied(_) if self.overflow.iter().any(held) => return false,
            Entry::Occupied(_) => self.overflow.push(member),
        }
        self.bytes.extend_from_slice(b);
        true
    }
}

/// A string's hash for [`StrSet`]: up to 16 bytes read as two
/// overlapping words, longer ones folded by [`WordHasher`], then one
/// folded multiply.
fn str_hash(b: &[u8]) -> u64 {
    let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            b[at..at + 4].try_into().expect("4 bytes"),
        ))
    };
    let n = b.len();
    let (x, y) = match n {
        0 => (0, 0),
        1..=3 => (
            u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16,
            0,
        ),
        4..=7 => (half(0), half(n - 4)),
        8..=16 => (word(0), word(n - 8)),
        _ => {
            let mut state = WordHasher::default();
            state.write(b);
            (state.finish(), 0)
        }
    };
    let product =
        u128::from(x ^ 0x243f_6a88_85a3_08d3) * u128::from(y ^ n as u64 ^ 0x1319_8a2e_0370_7344);
    (product as u64) ^ (product >> 64) as u64
}

/// The hasher of a map whose keys already are hashes.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keys are u64 hashes");
    }

    #[inline]
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A deterministic hasher that folds eight bytes a step (the
/// multiply-rotate of rustc's `FxHasher`).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            // Byte by byte: a variable-length copy would be a call.
            let word = (tail.iter().rev()).fold(0u64, |word, &b| word << 8 | u64::from(b));
            // The length keeps "ab" and "ab\0" apart.
            self.fold(word ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.fold(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes with the low bits and tags with the top
        // seven; the multiply leaves the low bits the weakest.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tweeql_model::Timestamp;

    /// A small value space dense in the cases that matter: ints and
    /// floats that are equal across types, both zeros, NaN, NULL, a
    /// string that reads like a number, a bool, a time, a list.
    fn value(pick: u8) -> Value {
        match pick % 16 {
            0 => Value::Null,
            1 => Value::Int(1),
            2 => Value::Float(1.0),
            3 => Value::Int(0),
            4 => Value::Float(-0.0),
            5 => Value::Float(0.0),
            6 => Value::Float(f64::NAN),
            7 => Value::Float(1.5),
            8 => Value::Str("1".into()),
            9 => Value::Str("en".into()),
            10 => Value::Str("a longer screen name".into()),
            11 => Value::Bool(true),
            12 => Value::Time(Timestamp::from_millis(1)),
            13 => Value::Int(-7),
            14 => Value::List(vec![Value::Int(1), Value::Str("x".into())]),
            _ => Value::Str("".into()),
        }
    }

    fn entries<K: KeyParts + std::fmt::Debug, V: std::fmt::Debug>(
        t: &KeyTable<K, V>,
    ) -> Vec<String> {
        let mut all: Vec<String> = t.iter().map(|(k, v)| format!("{k:?}={v:?}")).collect();
        all.sort();
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A `KeyTable` probed with borrowed parts behaves as a std
        /// `HashMap<Vec<Value>, _>` probed with owned keys: same hits,
        /// same misses, same entries after inserts and removals — also
        /// with all but `mask_bits` bits of the hash thrown away, which
        /// sends most keys through the overflow list.
        #[test]
        fn key_table_is_a_value_keyed_hash_map(
            ops in collection::vec((0u8..16, 0u8..16, 0u8..3), 0..60),
            mask_bits in 0u32..4,
        ) {
            let mut fast: KeyTable<Vec<Value>, usize> = KeyTable {
                hash_mask: [u64::MAX, 0, 1, 3][mask_bits as usize],
                ..KeyTable::default()
            };
            let mut plain: HashMap<Vec<Value>, usize> = HashMap::new();
            for (n, &(a, b, op)) in ops.iter().enumerate() {
                let key = vec![value(a), value(b)];
                // Probe with fresh strings: equality is by content.
                let probe: Vec<Value> = key
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Value::Str(s.as_str().into()),
                        other => other.clone(),
                    })
                    .collect();
                prop_assert_eq!(fast.get(&probe), plain.get(&key));
                if op == 0 {
                    let hash = key_hash(&probe);
                    prop_assert_eq!(fast.remove(hash, &probe), plain.remove_entry(&key));
                } else {
                    let hash = key_hash(&probe);
                    let got = *fast.get_or_insert_with(hash, &probe, || key.clone(), || n);
                    prop_assert_eq!(got, *plain.entry(key).or_insert(n));
                }
                prop_assert_eq!(fast.len(), plain.len());
                prop_assert_eq!(fast.is_empty(), plain.is_empty());
            }
            let mut right: Vec<String> = plain.iter().map(|(k, v)| format!("{k:?}={v:?}")).collect();
            right.sort();
            prop_assert_eq!(entries(&fast), right.clone());
            let mut by_value: Vec<String> =
                fast.into_entries().map(|(k, v)| format!("{k:?}={v:?}")).collect();
            by_value.sort();
            prop_assert_eq!(by_value, right);
        }

        /// Single values probed by view, as `count(distinct …)` does.
        #[test]
        fn key_table_of_values_is_a_value_hash_set(
            picks in collection::vec(0u8..16, 0..40),
            collide in 0u8..2,
        ) {
            let mut fast: KeyTable<Value, ()> = KeyTable {
                hash_mask: [u64::MAX, 1][collide as usize],
                ..KeyTable::default()
            };
            let mut plain: std::collections::HashSet<Value> = Default::default();
            for &p in &picks {
                let v = value(p);
                let mut built = false;
                fast.get_or_insert_with(
                    key_hash(&ValueRef::from(&v)),
                    &ValueRef::from(&v),
                    || {
                        built = true;
                        v.clone()
                    },
                    || (),
                );
                // The key is built exactly when the member is new.
                prop_assert_eq!(built, plain.insert(v.clone()));
                prop_assert_eq!(fast.len(), plain.len());
            }
        }
    }

    proptest! {
        /// A `StrSet` is a `HashSet<String>`: same answer to every
        /// insert, same size, across growth — the empty string, shared
        /// prefixes and strings longer than a word included; also with
        /// all but one bit of the hash thrown away, which sends most
        /// members through the overflow list.
        #[test]
        fn str_set_is_a_string_hash_set(
            picks in collection::vec(0u16..300, 0..400),
            collide in 0u8..2,
        ) {
            let mut fast = StrSet {
                hash_clear: [0, !1][collide as usize],
                ..StrSet::default()
            };
            let mut plain = std::collections::HashSet::new();
            for p in picks {
                let s = match p % 3 {
                    0 => format!("{p}"),
                    1 => format!("a shared prefix longer than a word {}", p / 3),
                    _ => "x".repeat(usize::from(p % 11)),
                };
                prop_assert_eq!(fast.insert(&s), plain.insert(s));
                prop_assert_eq!(fast.len(), plain.len());
            }
        }
    }

    #[test]
    fn word_hasher_tells_lengths_and_tails_apart() {
        let h = |bytes: &[u8]| {
            let mut s = WordHasher::default();
            s.write(bytes);
            s.finish()
        };
        let inputs: [&[u8]; 7] = [
            b"",
            b"a",
            b"a\0",
            b"ab",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefghi",
        ];
        for (i, a) in inputs.iter().enumerate() {
            for b in &inputs[i + 1..] {
                assert_ne!(h(a), h(b), "{a:?} vs {b:?}");
            }
        }
        // Deterministic: no per-process seed.
        assert_eq!(h(b"screen_name"), h(b"screen_name"));
    }
}
