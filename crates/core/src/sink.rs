//! Result export: the "structured data for downstream applications" the
//! paper's abstract promises. CSV and JSON-lines renderings of query
//! output (hand-rolled — the sanctioned crate set has no serde_json).
//!
//! The writers append to one `String` and allocate nothing per row or
//! per field. A query's output reaches the server as a [`RowBatch`];
//! [`JsonLines`] renders it a line at a time by reading each column's
//! cell, with the keys escaped once a batch, so the server writes a
//! reply in bounded chunks straight from the batch to the socket and
//! builds no [`Record`]. [`to_json_lines`] renders records through the
//! same cell writer, so both give the same bytes for the same rows.

use std::fmt::Write;
use tweeql_model::{Record, RowBatch, SchemaRef, Value, ValueRef};

/// Why the `fmt::Result`s below are not returned to the caller.
const INFALLIBLE: &str = "writing to a String cannot fail";

/// Append `s` as one CSV field per RFC 4180.
fn write_csv_field(out: &mut String, s: &str) {
    if !s.contains([',', '"', '\n', '\r']) {
        out.push_str(s);
        return;
    }
    out.push('"');
    for (i, run) in s.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(run);
    }
    out.push('"');
}

/// Render records as CSV with a header row.
pub fn to_csv(schema: &SchemaRef, rows: &[Record]) -> String {
    let mut out = String::new();
    for (i, f) in schema.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_csv_field(&mut out, &f.name);
    }
    out.push('\n');
    // A value's display text has to be whole before it can be quoted.
    let mut text = String::new();
    for r in rows {
        for (i, v) in r.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match v {
                Value::Null => {}
                Value::Str(s) => write_csv_field(&mut out, s),
                other => {
                    text.clear();
                    write!(text, "{other}").expect(INFALLIBLE);
                    write_csv_field(&mut out, &text);
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Bytes a JSON string body cannot hold as they are: `"`, `\` and the
/// control characters.
const fn needs_escape() -> [bool; 256] {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
}
static NEEDS_ESCAPE: [bool; 256] = needs_escape();

/// The index of the first byte in `bytes` a JSON string body cannot
/// hold as it is, read eight bytes at a time.
///
/// Per word, each mask sets the high bit of a byte that is below 0x20,
/// `"` or `\`. The subtraction's borrow can also mark a byte *above* a
/// marked one, never one below, so the lowest mark is exact.
fn find_escape(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let zero_byte = |w: u64| w.wrapping_sub(ONES) & !w & HIGH;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let marks = (w.wrapping_sub(ONES * 0x20) & !w & HIGH)
            | zero_byte(w ^ (ONES * u64::from(b'"')))
            | zero_byte(w ^ (ONES * u64::from(b'\\')));
        if marks != 0 {
            return Some(at + marks.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder();
    tail.iter()
        .position(|&b| NEEDS_ESCAPE[b as usize])
        .map(|i| at + i)
}

/// Append the body of a JSON string: runs of clean bytes are copied
/// whole, escapes go between them. Every escaped byte is ASCII, so each
/// cut falls on a character boundary.
fn write_json_str(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = find_escape(rest.as_bytes()) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => write!(out, "\\u{b:04x}").expect(INFALLIBLE),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Append `v` in decimal, as `{v}` writes it, without the formatter.
fn write_int(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append one cell as a JSON value.
fn write_json_cell(out: &mut String, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => out.push_str("null"),
        ValueRef::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        ValueRef::Int(i) => write_int(out, i),
        // `{:?}` keeps floats round-trippable; JSON has no NaN or inf.
        ValueRef::Float(f) if f.is_finite() => write!(out, "{f:?}").expect(INFALLIBLE),
        ValueRef::Float(_) => out.push_str("null"),
        ValueRef::Str(s) => {
            out.push('"');
            write_json_str(out, s);
            out.push('"');
        }
        ValueRef::Time(t) => write_int(out, t.millis()),
        ValueRef::List(l) => {
            out.push('[');
            for (i, v) in l.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_cell(out, ValueRef::from(v));
            }
            out.push(']');
        }
    }
}

/// A JSON-lines writer for one schema: what goes before each column's
/// value — `{"name":` for the first, `,"name":` for the rest — escaped
/// once when the writer is made and not once per row.
pub struct JsonLines {
    keys: Vec<String>,
}

impl JsonLines {
    /// The writer for rows of `schema`.
    pub fn new(schema: &SchemaRef) -> JsonLines {
        let keys = (schema.fields().iter().enumerate())
            .map(|(i, f)| {
                let mut key = String::from(if i == 0 { "{\"" } else { ",\"" });
                write_json_str(&mut key, &f.name);
                key.push_str("\":");
                key
            })
            .collect();
        JsonLines { keys }
    }

    /// Append rows of `rows` from row `from` on to `out`, each as one
    /// object and its newline with no raw newline inside it, until
    /// `out` holds `limit` bytes or more or the rows run out; returns
    /// the first row not written. Each cell is read where the batch
    /// holds it.
    pub fn write_lines(
        &self,
        out: &mut String,
        rows: &RowBatch,
        from: usize,
        limit: usize,
    ) -> usize {
        let mut i = from;
        while i < rows.len() && out.len() < limit {
            for (key, col) in self.keys.iter().zip(rows.columns()) {
                out.push_str(key);
                write_json_cell(out, col.get(i));
            }
            self.end_line(out);
            i += 1;
        }
        i
    }

    /// Close a line whose fields are written.
    fn end_line(&self, out: &mut String) {
        out.push_str(if self.keys.is_empty() { "{}\n" } else { "}\n" });
    }
}

/// Render records as JSON lines: one object per row, each
/// newline-terminated, no raw newline inside a row — the bytes
/// [`JsonLines::write_lines`] gives for a batch of the same rows.
pub fn to_json_lines(schema: &SchemaRef, rows: &[Record]) -> String {
    let json = JsonLines::new(schema);
    let mut out = String::new();
    for r in rows {
        for (key, v) in json.keys.iter().zip(r.values()) {
            out.push_str(key);
            write_json_cell(&mut out, ValueRef::from(v));
        }
        json.end_line(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tweeql_model::{DataType, Schema, Timestamp};

    /// The implementation the writers above replaced, one `String` per
    /// field and per row: the reference their output must equal byte
    /// for byte.
    mod oracle {
        use tweeql_model::{Record, SchemaRef, Value};

        fn csv_field(s: &str) -> String {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }

        pub fn to_csv(schema: &SchemaRef, rows: &[Record]) -> String {
            let mut out = String::new();
            out.push_str(
                &schema
                    .names()
                    .iter()
                    .map(|n| csv_field(n))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
            for r in rows {
                let line = r
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Null => String::new(),
                        other => csv_field(&other.to_string()),
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&line);
                out.push('\n');
            }
            out
        }

        pub fn json_escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }

        fn json_value(v: &Value) -> String {
            match v {
                Value::Null => "null".to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Int(i) => i.to_string(),
                Value::Float(f) if f.is_finite() => format!("{f:?}"),
                Value::Float(_) => "null".to_string(),
                Value::Str(s) => format!("\"{}\"", json_escape(s)),
                Value::Time(t) => t.millis().to_string(),
                Value::List(l) => format!(
                    "[{}]",
                    l.iter().map(json_value).collect::<Vec<_>>().join(",")
                ),
            }
        }

        pub fn to_json_lines(schema: &SchemaRef, rows: &[Record]) -> String {
            let names = schema.names();
            let mut out = String::new();
            for r in rows {
                let fields = names
                    .iter()
                    .zip(r.values())
                    .map(|(n, v)| format!("\"{}\":{}", json_escape(n), json_value(v)))
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!("{{{fields}}}\n"));
            }
            out
        }
    }

    fn sample() -> (SchemaRef, Vec<Record>) {
        let schema = Schema::shared(&[
            ("name", DataType::Str),
            ("n", DataType::Int),
            ("score", DataType::Float),
            ("tags", DataType::List),
        ]);
        let rows = vec![
            Record::new(
                schema.clone(),
                vec![
                    Value::from("says \"hi\", ok"),
                    Value::Int(3),
                    Value::Float(0.5),
                    Value::List(vec![Value::from("a"), Value::Int(1)]),
                ],
                Timestamp::ZERO,
            )
            .unwrap(),
            Record::new(
                schema.clone(),
                vec![
                    Value::Null,
                    Value::Int(-1),
                    Value::Float(2.0),
                    Value::List(vec![]),
                ],
                Timestamp::ZERO,
            )
            .unwrap(),
        ];
        (schema, rows)
    }

    #[test]
    fn csv_escapes_and_leaves_nulls_empty() {
        let (schema, rows) = sample();
        let csv = to_csv(&schema, &rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,n,score,tags");
        assert!(lines[1].starts_with("\"says \"\"hi\"\", ok\",3,0.5,"));
        assert!(lines[2].starts_with(",-1,2.0,"));
    }

    #[test]
    fn json_lines_are_valid_objects() {
        let (schema, rows) = sample();
        let jl = to_json_lines(&schema, &rows);
        let lines: Vec<&str> = jl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"name\":\"says \\\"hi\\\", ok\""));
        assert!(lines[0].contains("\"tags\":[\"a\",1]"));
        assert!(lines[1].contains("\"name\":null"));
        assert!(lines[1].contains("\"score\":2.0"));
    }

    #[test]
    fn json_escapes_control_chars() {
        let mut out = String::new();
        write_json_str(&mut out, "a\nb\tc\u{1}");
        assert_eq!(out, "a\\nb\\tc\\u0001");
    }

    #[test]
    fn empty_rows_render_header_only() {
        let (schema, _) = sample();
        assert_eq!(to_csv(&schema, &[]).lines().count(), 1);
        assert_eq!(to_json_lines(&schema, &[]), "");
    }

    /// The rows as one [`RowBatch`], rendered a line at a time onto
    /// `out`.
    fn write_batch(out: &mut String, schema: &SchemaRef, rows: &[Record]) {
        let mut batch = RowBatch::new(schema.clone());
        rows.iter().for_each(|r| batch.push_record(r));
        JsonLines::new(schema).write_lines(out, &batch, 0, usize::MAX);
    }

    #[test]
    fn write_json_lines_appends_and_keeps_what_was_there() {
        let (schema, rows) = sample();
        let mut out = String::from("OK 2 q1\n");
        write_batch(&mut out, &schema, &rows);
        assert_eq!(
            out,
            format!("OK 2 q1\n{}", oracle::to_json_lines(&schema, &rows))
        );
    }

    /// Every byte a JSON string escapes, at every offset of the first
    /// two 8-byte words and in the tail after them, behind ASCII or
    /// behind a multi-byte character that straddles a word edge: the
    /// batch renderer gives the oracle's bytes.
    #[test]
    fn batch_lines_equal_the_oracle_across_word_edges() {
        let schema = Schema::shared(&[("s", DataType::Str), ("n", DataType::Int)]);
        let specials = (0u8..0x20).chain([b'"', b'\\', b'a']).map(char::from);
        let mut rows = Vec::new();
        for special in specials {
            for lead in ["", "é", "日", "\u{1F600}"] {
                for at in 0..19 {
                    let mut s: String = "x".repeat(at);
                    s.push_str(lead);
                    s.push(special);
                    s.push_str("ü tail");
                    let sign = if at % 2 == 0 { -1 } else { 1 };
                    let n = Value::Int((at as i64 * sign) << 40);
                    let r = Record::new(schema.clone(), vec![Value::from(s), n], Timestamp::ZERO);
                    rows.push(r.unwrap());
                }
            }
        }
        let mut out = String::new();
        write_batch(&mut out, &schema, &rows);
        assert_eq!(out, oracle::to_json_lines(&schema, &rows));
        assert_eq!(to_json_lines(&schema, &rows), out);
    }

    /// Text with everything either format escapes or quotes: control
    /// characters, quotes, backslashes, commas, multi-byte scalars.
    const TEXT: &str = "[\u{0}-\u{1f}\"\\,a-c \u{7f}é日\u{1F600}]{0,12}.{0,6}";

    const FLOATS: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e16,
        1e15,
        -1e-7,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    const INTS: [i64; 4] = [i64::MIN, i64::MAX, 0, -1];

    /// One generated cell: which variant, a number, and a text.
    type Cell = (u8, i64, String);

    fn value(cell: &Cell, depth: u8) -> Value {
        let (kind, n, text) = cell;
        let pick = n.unsigned_abs() as usize;
        match kind % 10 {
            0 => Value::Null,
            1 => Value::Bool(n % 2 == 0),
            2 => Value::Int(*n),
            3 => Value::Int(INTS[pick % INTS.len()]),
            4 => Value::Float(*n as f64 / 7.0),
            5 => Value::Float(FLOATS[pick % FLOATS.len()]),
            6 | 7 => Value::from(text.as_str()),
            8 => Value::Time(Timestamp::from_millis(*n)),
            // Lists of 0..=3 items, nested up to two deep.
            _ if depth < 2 => Value::List(
                (0..pick % 4)
                    .map(|k| value(&(kind / 10 + k as u8, n / 3, text.clone()), depth + 1))
                    .collect(),
            ),
            _ => Value::List(Vec::new()),
        }
    }

    fn table(names: &[String], cells: &[Cell]) -> (SchemaRef, Vec<Record>) {
        let fields: Vec<(&str, DataType)> =
            names.iter().map(|n| (n.as_str(), DataType::Any)).collect();
        let schema = Schema::shared(&fields);
        let rows = match names.len() {
            // No columns: rows are still rows, `{}` each.
            0 => cells
                .iter()
                .map(|_| Record::new(schema.clone(), Vec::new(), Timestamp::ZERO).unwrap())
                .collect(),
            width => cells
                .chunks_exact(width)
                .map(|row| {
                    let values = row.iter().map(|c| value(c, 0)).collect();
                    Record::new(schema.clone(), values, Timestamp::ZERO).unwrap()
                })
                .collect(),
        };
        (schema, rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn writers_equal_the_oracle(
            names in collection::vec(TEXT, 0..5),
            cells in collection::vec((0u8..=255, i64::MIN..=i64::MAX, TEXT), 0..40),
        ) {
            let (schema, rows) = table(&names, &cells);
            let oracle = oracle::to_json_lines(&schema, &rows);
            prop_assert_eq!(&to_json_lines(&schema, &rows), &oracle);
            let mut lines = String::new();
            write_batch(&mut lines, &schema, &rows);
            prop_assert_eq!(&lines, &oracle);
            prop_assert_eq!(to_csv(&schema, &rows), oracle::to_csv(&schema, &rows));
        }

        #[test]
        fn json_strings_equal_the_oracle(text in TEXT) {
            let mut out = String::new();
            write_json_str(&mut out, &text);
            prop_assert_eq!(out, oracle::json_escape(&text));
        }
    }
}
