//! The wire protocol: newline-delimited text frames.
//!
//! Requests are single lines, verb first:
//!
//! ```text
//! REGISTER <sql>      DROP <id>        LIST           SCHEMA <id>
//! POLL <id>           STEP <secs>      RUN            STATS
//! PING                SHUTDOWN
//! ```
//!
//! Every response is a header line plus a counted body:
//!
//! ```text
//! OK <nbody> <detail...>      — success; read <nbody> more lines
//! ERR 0 <message>             — failure; never carries a body
//! ```
//!
//! The body-line count sits at a fixed position so a client can frame
//! any response — including ones added by future verbs — without
//! understanding the detail text. Detail and error text are newline-free
//! by construction ([`sanitize`]); body lines (query rows) are JSON
//! objects, one per line.

use std::fmt;
use tweeql_obs::QueryId;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a standing query; responds `OK 0 <id>`.
    Register(String),
    /// Drop a query; responds `OK <n> <id>` with its final pending rows.
    Drop(QueryId),
    /// List queries; responds `OK <n> queries` with one line per query.
    List,
    /// A query's output columns; responds `OK 0 <col,col,...>`.
    Schema(QueryId),
    /// Drain a query's pending rows; responds `OK <n> <id>` + JSON rows.
    Poll(QueryId),
    /// Advance the stream by whole seconds; responds `OK 0 tweets=<n>`.
    Step(i64),
    /// Run the stream to exhaustion; responds `OK 0 tweets=<n>`.
    Run,
    /// Host dispatcher statistics; responds `OK 0 key=value ...`, the
    /// last two being `pending=<n>`, the rows no `POLL` has taken yet,
    /// and `pending_bytes=<n>`, the heap bytes the batches holding them
    /// take.
    Stats,
    /// Liveness check; responds `OK 0 pong`.
    Ping,
    /// Stop the server after responding `OK 0 bye`.
    Shutdown,
}

impl Request {
    /// Parse one request line. Verbs are case-insensitive.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        let id = |rest: &str, verb: &str| -> Result<QueryId, String> {
            rest.parse::<QueryId>().map_err(|e| format!("{verb}: {e}"))
        };
        match verb.to_ascii_uppercase().as_str() {
            "REGISTER" if !rest.is_empty() => Ok(Request::Register(rest.to_string())),
            "REGISTER" => Err("REGISTER needs a query".into()),
            "DROP" => Ok(Request::Drop(id(rest, "DROP")?)),
            "LIST" => Ok(Request::List),
            "SCHEMA" => Ok(Request::Schema(id(rest, "SCHEMA")?)),
            "POLL" => Ok(Request::Poll(id(rest, "POLL")?)),
            "STEP" => match rest.parse::<i64>() {
                Ok(s) if s > 0 => Ok(Request::Step(s)),
                _ => Err("STEP needs a positive whole-second count".into()),
            },
            "RUN" => Ok(Request::Run),
            "STATS" => Ok(Request::Stats),
            "PING" => Ok(Request::Ping),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(format!("unknown verb: {other}")),
        }
    }
}

impl fmt::Display for Request {
    /// The exact line a client sends (no trailing newline).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Register(sql) => write!(f, "REGISTER {}", sanitize(sql)),
            Request::Drop(id) => write!(f, "DROP {id}"),
            Request::List => write!(f, "LIST"),
            Request::Schema(id) => write!(f, "SCHEMA {id}"),
            Request::Poll(id) => write!(f, "POLL {id}"),
            Request::Step(s) => write!(f, "STEP {s}"),
            Request::Run => write!(f, "RUN"),
            Request::Stats => write!(f, "STATS"),
            Request::Ping => write!(f, "PING"),
            Request::Shutdown => write!(f, "SHUTDOWN"),
        }
    }
}

/// The counted body of a response: newline-terminated lines in one
/// buffer, and how many there are. No line holds a raw `\n` or `\r`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Body {
    text: String,
    lines: usize,
}

impl Body {
    /// Wrap `lines` newline-terminated JSON rows as the sink wrote them:
    /// it escapes `\n` and `\r`, so the text is taken unscanned.
    pub(crate) fn from_json_lines(text: String, lines: usize) -> Body {
        debug_assert_eq!(text.matches('\n').count(), lines);
        Body { text, lines }
    }

    /// Append one line; newlines inside it become spaces.
    pub fn push_line(&mut self, line: &str) {
        push_sanitized(&mut self.text, line);
        self.text.push('\n');
        self.lines += 1;
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// True when there are no lines.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// The lines, without their terminators.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.text.split_terminator('\n')
    }

    /// All lines as they go on the wire, each newline-terminated.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl<S: AsRef<str>> FromIterator<S> for Body {
    fn from_iter<I: IntoIterator<Item = S>>(lines: I) -> Body {
        let mut body = Body::default();
        for line in lines {
            body.push_line(line.as_ref());
        }
        body
    }
}

impl std::ops::Index<usize> for Body {
    type Output = str;

    /// Line `i`; panics when out of range, as a slice does.
    fn index(&self, i: usize) -> &str {
        self.lines().nth(i).expect("body line index out of range")
    }
}

/// A framed server response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Success or failure.
    pub ok: bool,
    /// Newline-free detail text (id, counts, error message, ...).
    pub detail: String,
    /// Counted body lines following the header.
    pub body: Body,
}

impl Response {
    /// A bodyless success.
    pub fn ok(detail: impl Into<String>) -> Response {
        Response::with_body(detail, Body::default())
    }

    /// A success carrying body lines.
    pub fn with_body(detail: impl Into<String>, body: Body) -> Response {
        Response {
            ok: true,
            detail: sanitize(&detail.into()),
            body,
        }
    }

    /// A failure (errors never carry a body).
    pub fn err(message: impl Into<String>) -> Response {
        Response {
            ok: false,
            detail: sanitize(&message.into()),
            body: Body::default(),
        }
    }

    /// Render the full frame, every line newline-terminated.
    pub fn render(&self) -> String {
        let mut frame = String::new();
        self.write_frame(&mut frame);
        frame
    }

    /// Append the full frame to `out`: the header, then the body.
    pub(crate) fn write_frame(&self, out: &mut String) {
        write_header(out, self.ok, self.body.len(), &self.detail);
        out.push_str(self.body.as_str());
    }

    /// Parse a header line; the caller reads the returned body-line
    /// count off the stream afterwards.
    pub fn parse_header(line: &str) -> Result<(bool, usize, String), String> {
        let mut parts = line.trim_end().splitn(3, ' ');
        let status = parts.next().unwrap_or_default();
        let ok = match status {
            "OK" => true,
            "ERR" => false,
            other => return Err(format!("bad response status: {other:?}")),
        };
        let n = parts
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| format!("bad response frame: {line:?}"))?;
        Ok((ok, n, parts.next().unwrap_or_default().to_string()))
    }
}

/// Append a header line announcing `nbody` body lines. `detail` must be
/// newline-free.
pub(crate) fn write_header(out: &mut String, ok: bool, nbody: usize, detail: impl fmt::Display) {
    use fmt::Write;
    let status = if ok { "OK" } else { "ERR" };
    writeln!(out, "{status} {nbody} {detail}").expect("writing to a String cannot fail");
}

/// Append `s` with every `\n` and `\r` replaced by a space.
fn push_sanitized(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.find(['\n', '\r']) {
        out.push_str(&rest[..i]);
        out.push(' ');
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Collapse newlines so any text fits a single protocol line.
pub fn sanitize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_sanitized(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_render_and_parse() {
        let cases = vec![
            Request::Register("SELECT text FROM twitter WHERE text contains 'kw'".into()),
            Request::Drop(QueryId::new(3)),
            Request::List,
            Request::Schema(QueryId::new(1)),
            Request::Poll(QueryId::new(7)),
            Request::Step(30),
            Request::Run,
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in cases {
            let line = req.to_string();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("REGISTER").is_err());
        assert!(Request::parse("DROP xyz").is_err());
        assert!(Request::parse("STEP -5").is_err());
        assert!(Request::parse("STEP now").is_err());
        assert!(Request::parse("FLY q1").is_err());
    }

    #[test]
    fn verbs_are_case_insensitive_and_ids_flexible() {
        assert_eq!(
            Request::parse("drop 4").unwrap(),
            Request::Drop(QueryId::new(4))
        );
        assert_eq!(
            Request::parse("Poll q9").unwrap(),
            Request::Poll(QueryId::new(9))
        );
    }

    #[test]
    fn responses_frame_and_reparse() {
        let r = Response::with_body("q1", ["{\"a\":1}", "{\"a\":2}"].into_iter().collect());
        let rendered = r.render();
        let mut lines = rendered.lines();
        let (ok, n, detail) = Response::parse_header(lines.next().unwrap()).unwrap();
        assert!(ok);
        assert_eq!(n, 2);
        assert_eq!(detail, "q1");
        assert_eq!(lines.count(), 2);

        let (ok, n, msg) = Response::parse_header("ERR 0 unknown query: q5").unwrap();
        assert!(!ok);
        assert_eq!(n, 0);
        assert_eq!(msg, "unknown query: q5");
    }

    /// `Response::render` as it was with a `Vec<String>` body: every
    /// line sanitized at render time.
    fn render_line_by_line(ok: bool, detail: &str, body: &[&str]) -> String {
        let status = if ok { "OK" } else { "ERR" };
        let mut s = format!("{status} {} {detail}\n", body.len());
        for line in body {
            s.push_str(&line.replace(['\n', '\r'], " "));
            s.push('\n');
        }
        s
    }

    #[test]
    fn counted_body_renders_as_the_line_vector_did() {
        let cases: [&[&str]; 4] = [
            &[],
            &["{\"a\":1}", "{\"a\":2}"],
            &["", "two\nlines", "cr\r\nlf", "\n", "日本\r語"],
            &["q1 running rows_in=0 rows_out=0 indexed=true SELECT text\rFROM twitter"],
        ];
        for lines in cases {
            let body: Body = lines.iter().collect();
            assert_eq!(body.len(), lines.len());
            assert_eq!(body.is_empty(), lines.is_empty());
            assert_eq!(body.lines().count(), lines.len(), "{lines:?}");
            let r = Response::with_body("q1", body);
            assert_eq!(r.render(), render_line_by_line(true, "q1", lines));
            for (i, line) in lines.iter().enumerate() {
                assert_eq!(r.body[i], line.replace(['\n', '\r'], " "));
            }
        }
        let e = Response::err("no\nsuch");
        assert_eq!(e.render(), render_line_by_line(false, "no such", &[]));
    }

    #[test]
    fn multiline_errors_stay_single_frame() {
        let r = Response::err("line one\nline two\r\nthree");
        assert_eq!(r.render().lines().count(), 1);
    }

    /// The vendored proptest seeds each test from its name, so every
    /// run draws the same lines.
    mod props {
        use super::*;
        use proptest::prelude::*;

        const VERBS: [&str; 11] = [
            "REGISTER", "drop", "List", "SCHEMA", "poll", "STEP", "run", "STATS", "PING",
            "SHUTDOWN", "FLY",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            #[test]
            fn any_line_parses_or_is_refused(line in ".{0,80}") {
                let _ = Request::parse(&line);
            }

            #[test]
            fn any_verb_and_rest_parse_or_are_refused(verb in 0usize..11, rest in ".{0,40}") {
                let _ = Request::parse(&format!("{} {rest}", VERBS[verb]));
            }

            /// A request renders to one line that parses back to it.
            /// REGISTER's SQL goes on the line as one trimmed line, so
            /// what comes back is that; SQL of nothing but blanks goes
            /// as a bare REGISTER, which is refused.
            #[test]
            fn every_request_survives_render_then_parse(
                kind in 0usize..10,
                n in 0u64..u64::MAX,
                sql in ".{0,60}",
            ) {
                let id = QueryId::new(n);
                let req = match kind {
                    0 => Request::Register(sql),
                    1 => Request::Drop(id),
                    2 => Request::List,
                    3 => Request::Schema(id),
                    4 => Request::Poll(id),
                    5 => Request::Step((n >> 1).max(1) as i64),
                    6 => Request::Run,
                    7 => Request::Stats,
                    8 => Request::Ping,
                    _ => Request::Shutdown,
                };
                let back = Request::parse(&req.to_string());
                match req {
                    Request::Register(sql) => {
                        let sent = sanitize(&sql).trim().to_string();
                        if sent.is_empty() {
                            prop_assert!(back.is_err());
                        } else {
                            let sent = Request::Register(sent);
                            prop_assert_eq!(back, Ok(sent.clone()));
                            prop_assert_eq!(Request::parse(&sent.to_string()), Ok(sent));
                        }
                    }
                    req => prop_assert_eq!(back, Ok(req)),
                }
            }
        }
    }
}
