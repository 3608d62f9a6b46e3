//! # tweeql-server
//!
//! A standing-query server over one [`QueryHost`]: clients register
//! TweeQL queries, the host keeps them all fed from a single shared
//! firehose connection, and clients poll results — the deployment shape
//! of the paper's "standing queries producing structured data for
//! downstream applications".
//!
//! The crate ships two binaries:
//!
//! * `tweeql-server` — binds a local TCP port, owns the host, and
//!   answers the line protocol in [`protocol`]. Each connection gets
//!   its own session thread; the shared host is locked while a request
//!   executes and released before its reply is rendered, so concurrent
//!   clients interleave freely while stream progress stays serialized
//!   through the one host. A `POLL` or `DROP` takes the query's output
//!   whole, as the one [`RowBatch`] the pump appended it to, and the
//!   session renders it from its columns straight into the socket in
//!   bounded chunks: no row is ever a `Record` on the way out.
//! * `tweeql-client` — a one-shot CLI: renders its arguments as a
//!   request line, prints the response, exits non-zero on `ERR`.
//!
//! ```text
//! $ tweeql-server --scenario soccer --port 7878 &
//! LISTENING 7878
//! $ tweeql-client --port 7878 register "SELECT text FROM twitter WHERE text contains 'goal'"
//! q1
//! $ tweeql-client --port 7878 step 120
//! tweets=163 position=120000
//! $ tweeql-client --port 7878 poll q1
//! {"text":"GOAL what a strike"}
//! ...
//! ```

pub mod client;
pub mod protocol;

use protocol::{Body, Request, Response};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use tweeql::prelude::*;
use tweeql::sink;
use tweeql_firehose::{generate, scenarios, StreamingApi};
use tweeql_model::{Duration, RowBatch, VirtualClock};

/// Executes protocol requests against a [`QueryHost`]. Transport-free:
/// the TCP loop ([`serve`]) and tests drive the same entry points.
pub struct Service {
    host: QueryHost,
}

/// What `Service::execute` hands back: everything a request needed
/// from the host. Turning it into text needs the host no longer, so
/// the TCP loop does that after it has released the service lock.
#[derive(Debug)]
enum Reply {
    /// A response that was complete when the host was done.
    Done(Response),
    /// The batch taken from query `id`'s output queue, still to be
    /// rendered.
    Rows { id: QueryId, rows: RowBatch },
}

/// How many rendered bytes a session holds before it writes them: a
/// reply goes to the socket in writes of about this size, so a session
/// never holds more of its text than one chunk and one row.
const CHUNK: usize = 64 << 10;

impl Reply {
    /// The reply as a response, rows rendered as its JSON body.
    fn into_response(self) -> Response {
        match self {
            Reply::Done(r) => r,
            Reply::Rows { id, rows } => {
                let mut text = String::new();
                sink::JsonLines::new(rows.schema()).write_lines(&mut text, &rows, 0, usize::MAX);
                Response::with_body(id.to_string(), Body::from_json_lines(text, rows.len()))
            }
        }
    }

    /// Write the reply's frame to `out` while rendering it: the header
    /// and the rows go into `buf`, which is written out whenever it
    /// holds [`CHUNK`] bytes or more, and once more at the end. The
    /// rows are read from the batch's columns where they lie; the batch
    /// is freed, a few buffers, when the reply is out.
    fn write_to(self, out: &mut impl Write, buf: &mut String) -> io::Result<()> {
        buf.clear();
        match self {
            Reply::Done(r) => r.write_frame(buf),
            Reply::Rows { id, rows } => {
                protocol::write_header(buf, true, rows.len(), id);
                let json = sink::JsonLines::new(rows.schema());
                let mut next = 0;
                while next < rows.len() {
                    next = json.write_lines(buf, &rows, next, CHUNK);
                    if buf.len() >= CHUNK {
                        out.write_all(buf.as_bytes())?;
                        buf.clear();
                    }
                }
            }
        }
        out.write_all(buf.as_bytes())
    }
}

impl Service {
    /// Wrap a host.
    pub fn new(host: QueryHost) -> Service {
        Service { host }
    }

    /// The wrapped host (tests inspect dispatcher stats through this).
    pub fn host(&self) -> &QueryHost {
        &self.host
    }

    /// Execute one request and render its reply. Never panics on user
    /// input: every failure becomes an `ERR` frame.
    pub fn handle(&mut self, req: Request) -> Response {
        self.execute(req).into_response()
    }

    /// The part of `handle` that needs the host: `POLL` and
    /// `DROP` take their rows (a `mem::take` and a WAL record) and
    /// leave the formatting to the [`Reply`].
    fn execute(&mut self, req: Request) -> Reply {
        self.try_execute(req)
            .unwrap_or_else(|e| Reply::Done(Response::err(e.to_string())))
    }

    fn try_execute(&mut self, req: Request) -> Result<Reply, QueryError> {
        let response = match req {
            Request::Register(sql) => Response::ok(self.host.register(&sql)?.to_string()),
            Request::Drop(id) => {
                let rows = self.host.drop_batch(id)?;
                return Ok(Reply::Rows { id, rows });
            }
            Request::List => {
                let queries = self.host.list();
                let body = queries.iter().map(|q| {
                    format!(
                        "{} {} rows_in={} rows_out={} indexed={} {}",
                        q.id, q.state, q.rows_in, q.rows_out, q.indexed, q.sql
                    )
                });
                Response::with_body("queries", body.collect())
            }
            Request::Schema(id) => Response::ok(self.host.schema(id)?.names().join(",")),
            Request::Poll(id) => {
                let rows = self.host.take_batch(id)?;
                return Ok(Reply::Rows { id, rows });
            }
            Request::Step(secs) => {
                // Saturating: a `STEP` past the end of time runs to the
                // end of the stream, like `RUN`.
                let until = self
                    .host
                    .position()
                    .saturating_add(Duration::from_secs(secs));
                let n = self.host.pump_until(until)?;
                Response::ok(format!(
                    "tweets={n} position={}",
                    self.host.position().millis()
                ))
            }
            Request::Run => {
                let n = self.host.run_to_end()?;
                Response::ok(format!(
                    "tweets={n} position={}",
                    self.host.position().millis()
                ))
            }
            Request::Stats => {
                let s = self.host.stats();
                Response::ok(format!(
                    "tweets={} batches={} dispatched={} decoded={} shared={} needles={} position={} pending={} pending_bytes={}",
                    s.tweets_delivered,
                    s.batches,
                    s.rows_dispatched,
                    s.rows_decoded,
                    s.rows_shared,
                    self.host.needle_count(),
                    self.host.position().millis(),
                    self.host.pending_rows(),
                    self.host.pending_bytes()
                ))
            }
            Request::Ping => Response::ok("pong"),
            Request::Shutdown => {
                // Flush a checkpoint so a restart with the same
                // --data-dir resumes without replaying the whole WAL.
                // A no-op on a non-durable host.
                self.host.checkpoint()?;
                Response::ok("bye")
            }
        };
        Ok(Reply::Done(response))
    }
}

/// Build a host over a named canned scenario (see
/// [`tweeql_firehose::scenarios::all`]).
pub fn scenario_host(name: &str, seed: u64) -> Result<QueryHost, String> {
    scenario_host_in(name, seed, None)
}

/// Like [`scenario_host`], but with optional durability: when
/// `data_dir` is set the host writes its WAL and checkpoints there and
/// recovers any state a previous server run left behind — standing
/// queries, their already-polled row counts, and the stream position
/// all survive a restart.
pub fn scenario_host_in(
    name: &str,
    seed: u64,
    data_dir: Option<&std::path::Path>,
) -> Result<QueryHost, String> {
    let scenario = scenarios::all()
        .into_iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name) || n.starts_with(name))
        .map(|(_, s)| s)
        .ok_or_else(|| {
            let names: Vec<_> = scenarios::all()
                .iter()
                .map(|(n, _)| n.to_string())
                .collect();
            format!("unknown scenario {name:?}; have: {}", names.join(", "))
        })?;
    let api = StreamingApi::new(generate(&scenario, seed), VirtualClock::new());
    let builder = Engine::builder(api).seed(seed);
    match data_dir {
        Some(dir) => builder
            .recover_from(dir)
            .map_err(|e| format!("recovery from {} failed: {e}", dir.display())),
        None => Ok(builder.build_host()),
    }
}

/// The longest request line a session accepts, terminator included.
/// The longest legitimate one is a `REGISTER` with its SQL.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Accept connections until a client sends `SHUTDOWN`, serving each on
/// its own thread. Sessions share one [`Service`] behind a mutex that
/// is held per *request*, not per connection, so concurrent clients
/// interleave against the same host state (registrations made by one
/// client are visible to the next `LIST` from another). A session that
/// ends in an I/O error — its peer went away in the middle of a reply —
/// is reported on stderr and ends alone, and so does a connection whose
/// accept failed on its own account ([`peer_gone`]); any other accept
/// error ends the server.
pub fn serve(listener: TcpListener, service: Service) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let service = Arc::new(Mutex::new(service));
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut sessions: Vec<thread::JoinHandle<io::Result<()>>> = Vec::new();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) if peer_gone(&e) => {
                eprintln!("tweeql-server: accept: {e}");
                continue;
            }
            Err(e) => return Err(e),
        };
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // One-shot clients come and go for as long as the server runs:
        // join the sessions that have ended instead of keeping them all.
        let (ended, live) = sessions.into_iter().partition(|s| s.is_finished());
        sessions = live;
        ended.into_iter().for_each(join_session);
        let svc = Arc::clone(&service);
        let flag = Arc::clone(&shutdown);
        sessions.push(thread::spawn(move || {
            if handle_connection(stream, &svc)? {
                flag.store(true, Ordering::SeqCst);
                // The accept loop is parked in `incoming()`; a throwaway
                // local connection wakes it so it can observe the flag.
                drop(TcpStream::connect(addr));
            }
            Ok(())
        }));
    }
    sessions.into_iter().for_each(join_session);
    Ok(())
}

/// Whether an accept error concerns one connection and not the
/// listener: the peer aborted or reset between its handshake and the
/// accept, or a signal interrupted the call. The next accept is good.
fn peer_gone(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
    )
}

/// Join one session thread. Its I/O error is its own; its panic is a
/// bug in this program and is passed on.
fn join_session(session: thread::JoinHandle<io::Result<()>>) {
    match session.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => eprintln!("tweeql-server: session ended: {e}"),
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// Serve one connection to disconnect; true means shutdown was asked.
/// A poisoned service lock is answered `ERR internal: service
/// unavailable` and ends the connection — it does not panic this
/// session too.
///
/// The service lock is held while a request executes against the host
/// and released before its reply is rendered: a large `POLL` is turned
/// into JSON by this session alone while other sessions already use
/// the host. The reply is written as it is rendered, in chunks of about
/// [`CHUNK`] bytes from one reused buffer, so a session holds one chunk
/// of a reply and not all of it. The socket is set to `TCP_NODELAY`:
/// a body sent in several writes never waits on Nagle's algorithm for
/// the peer's ACK of the previous one.
fn handle_connection(mut stream: TcpStream, service: &Mutex<Service>) -> io::Result<bool> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    let mut buf = String::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64;
        if reader.by_ref().take(limit).read_line(&mut line)? == 0 {
            return Ok(false);
        }
        if line.len() == MAX_REQUEST_LINE && !line.ends_with('\n') {
            let refusal = Response::err("request line too long").render();
            stream.write_all(refusal.as_bytes())?;
            return Ok(false);
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = Request::parse(&line);
        let shutdown = request == Ok(Request::Shutdown);
        let reply = match request {
            Ok(req) => match service.lock() {
                // The guard lives to the end of this arm: the lock is
                // free again before the reply is rendered.
                Ok(mut service) => service.execute(req),
                // A request panicked while it held the lock. The host
                // may be half-updated, so no session touches it again:
                // this one is told so and closed. `SHUTDOWN` still
                // stops the server (without the checkpoint).
                Err(_poisoned) => {
                    let refusal = Response::err("internal: service unavailable").render();
                    stream.write_all(refusal.as_bytes())?;
                    return Ok(shutdown);
                }
            },
            Err(e) => Reply::Done(Response::err(e)),
        };
        reply.write_to(&mut stream, &mut buf)?;
        if shutdown {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_firehose::scenario::{Scenario, Topic};
    use tweeql_model::Timestamp;

    fn tiny_service() -> Service {
        let s = Scenario {
            name: "tiny".into(),
            duration: Duration::from_mins(4),
            background_rate_per_min: 30.0,
            topics: vec![Topic::new("kw", vec!["kw"], 20.0)],
            bursts: vec![],
            geotag_rate: 0.1,
            population_size: 60,
        };
        let api = StreamingApi::new(generate(&s, 5), VirtualClock::new());
        Service::new(Engine::builder(api).build_host())
    }

    fn ok(r: Response) -> Response {
        assert!(r.ok, "{}", r.detail);
        r
    }

    #[test]
    fn service_session_round_trip() {
        let mut svc = tiny_service();
        let r = ok(svc.handle(
            Request::parse("REGISTER SELECT text FROM twitter WHERE text contains 'kw'").unwrap(),
        ));
        let id: QueryId = r.detail.parse().unwrap();

        let r = ok(svc.handle(Request::Schema(id)));
        assert_eq!(r.detail, "text");

        let r = ok(svc.handle(Request::Step(60)));
        assert!(r.detail.starts_with("tweets="), "{}", r.detail);
        assert!(svc.host().position() <= Timestamp::from_secs(60));

        let polled = ok(svc.handle(Request::Poll(id)));
        assert!(!polled.body.is_empty(), "a minute of 'kw' traffic");
        assert!(polled.body[0].starts_with('{'), "JSON rows");

        let listed = ok(svc.handle(Request::List));
        assert_eq!(listed.body.len(), 1);
        assert!(listed.body[0].contains("running"), "{}", &listed.body[0]);

        ok(svc.handle(Request::Run));
        let dropped = ok(svc.handle(Request::Drop(id)));
        assert!(!dropped.body.is_empty(), "drop returns the tail rows");
        assert!(ok(svc.handle(Request::List)).body.is_empty());

        let r = svc.handle(Request::Poll(id));
        assert!(!r.ok, "polling a dropped id is an ERR frame");
        assert!(r.detail.contains("unknown query"), "{}", r.detail);
    }

    /// A peer that gives up before its connection is accepted ends only
    /// that connection; a listener that fails ends the server.
    #[test]
    fn accept_errors_of_one_peer_keep_the_server_accepting() {
        use io::ErrorKind::*;
        for kind in [ConnectionAborted, ConnectionReset, Interrupted] {
            assert!(peer_gone(&io::Error::from(kind)), "{kind:?}");
        }
        for kind in [PermissionDenied, InvalidInput, OutOfMemory, Other] {
            assert!(!peer_gone(&io::Error::from(kind)), "{kind:?}");
        }
    }

    #[test]
    fn bad_sql_is_an_err_frame_not_a_crash() {
        let mut svc = tiny_service();
        let r = svc.handle(Request::Register("SELECT nope FROM twitter".into()));
        assert!(!r.ok);
        assert_eq!(r.render().lines().count(), 1, "diagnostics collapse");
    }

    /// A `Write` that keeps each call's bytes apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Run `session` on two services: `handle` on `whole`, and on
    /// `split` what the TCP loop does, `execute` and then `write_to` a
    /// recording writer through a buffer that already served another
    /// reply. For every request the writes concatenate to the frame
    /// `handle` renders, the first begins with its header, each but the
    /// last holds at least [`CHUNK`] bytes and none holds more than
    /// `CHUNK` plus the frame's longest line. Returns `handle`'s
    /// responses.
    fn writes_compose_to_handle(
        whole: &mut Service,
        split: &mut Service,
        session: &[Request],
    ) -> Vec<Response> {
        let mut buf = String::from("left over from the last reply");
        let mut responses = Vec::new();
        for req in session {
            let response = whole.handle(req.clone());
            let frame = response.render();
            let mut writes = Writes::default();
            split
                .execute(req.clone())
                .write_to(&mut writes, &mut buf)
                .unwrap();
            let writes = writes.0;
            assert!(writes.concat() == frame.as_bytes(), "{req}");
            let header = frame.split_inclusive('\n').next().unwrap();
            assert!(writes[0].starts_with(header.as_bytes()), "{req}");
            let longest = frame.split_inclusive('\n').map(str::len).max().unwrap();
            let full = &writes[..writes.len() - 1];
            assert!(full.iter().all(|w| w.len() >= CHUNK), "{req}");
            assert!(
                writes.iter().all(|w| w.len() <= CHUNK + longest),
                "{req}: {:?}",
                writes.iter().map(Vec::len).collect::<Vec<_>>()
            );
            let (ok, n, detail) = Response::parse_header(header).unwrap();
            // A diagnostic ends in a newline, sanitized to a space that
            // `parse_header` trims.
            assert_eq!(
                (ok, n, detail.as_str()),
                (response.ok, response.body.len(), response.detail.trim_end()),
                "{req}"
            );
            assert_eq!(frame.lines().count(), 1 + n, "{req}");
            responses.push(response);
        }
        responses
    }

    fn body_lines(responses: &[Response]) -> usize {
        responses.iter().map(|r| r.body.len()).sum()
    }

    /// The TCP loop's frame is the frame `handle` renders, for every
    /// verb and for its error.
    #[test]
    fn split_steps_compose_to_handle_for_every_verb() {
        let (mut whole, mut split) = (tiny_service(), tiny_service());
        let q = |n| QueryId::new(n);
        let session = [
            Request::Ping,
            Request::Register("SELECT text FROM twitter WHERE text contains 'kw'".into()),
            Request::Register("SELECT screen_name, text, lang FROM twitter".into()),
            Request::Register("SELECT nope FROM twitter".into()),
            Request::List,
            Request::Schema(q(2)),
            Request::Schema(q(9)),
            Request::Poll(q(1)),
            Request::Step(60),
            Request::Poll(q(1)),
            Request::Poll(q(2)),
            Request::Poll(q(2)),
            Request::Poll(q(9)),
            Request::Stats,
            Request::Run,
            Request::Drop(q(2)),
            Request::Drop(q(2)),
            Request::Poll(q(1)),
            Request::List,
            Request::Shutdown,
        ];
        let bodies = body_lines(&writes_compose_to_handle(&mut whole, &mut split, &session));
        assert!(bodies > 100, "the session must move rows: {bodies}");
    }

    /// A `POLL` and a `DROP` of tens of thousands of rows go out in
    /// chunks, as the same bytes `handle` renders.
    #[test]
    fn large_replies_are_written_in_bounded_chunks() {
        const EXPORT: &str = "SELECT screen_name, text, lang, followers, created_at FROM twitter";
        let soccer = || Service::new(scenario_host("soccer", 42).unwrap());
        let (mut whole, mut split) = (soccer(), soccer());
        let q = |n| QueryId::new(n);
        let session = [
            Request::Register(EXPORT.into()),
            Request::Register(EXPORT.into()),
            Request::Run,
            Request::Poll(q(1)),
            Request::Drop(q(2)),
        ];
        let bodies = body_lines(&writes_compose_to_handle(&mut whole, &mut split, &session));
        assert!(
            bodies >= 40_000,
            "two replies of 20k rows or more: {bodies}"
        );
    }

    /// Tweets whose texts and screen names hold every byte a JSON
    /// string escapes, behind ASCII runs of every length up to two
    /// words and behind multi-byte characters that straddle a word
    /// edge.
    fn awkward_tweets() -> Vec<tweeql_model::Tweet> {
        let specials = (0u8..0x20).chain([b'"', b'\\']).map(char::from);
        let mut tweets = Vec::new();
        for special in specials {
            for lead in ["", "é", "日", "\u{1F600}"] {
                for at in 0..17 {
                    let id = tweets.len() as u64;
                    let text = format!("{}{lead}{special}ü kw {id}", "x".repeat(at));
                    let name = format!("{lead}{special}{}", "n".repeat(16 - at));
                    let mut user = tweeql_model::User::new(id % 50, name);
                    user.followers = (id * 37) as u32;
                    let tweet = tweeql_model::Tweet::builder(id, text)
                        .user(user)
                        .at(Timestamp::from_millis(id as i64 * 250))
                        .lang(if id.is_multiple_of(3) { "ja" } else { "en" })
                        .build();
                    tweets.push(tweet);
                }
            }
        }
        tweets
    }

    /// Over a stream of awkward strings, the bytes `write_to` sends
    /// for a `POLL` or a `DROP` are the frame `handle` renders, and its
    /// body is what `to_json_lines` renders from the host's records:
    /// for columns copied from the tweets, computed by the VM, and
    /// appended as records behind a `LIMIT`.
    #[test]
    fn batch_replies_equal_the_record_rendering_over_awkward_strings() {
        const QUERIES: [&str; 3] = [
            "SELECT screen_name, text, lang, followers, created_at FROM twitter",
            "SELECT upper(screen_name) AS shout, text, followers / 3 AS f FROM twitter WHERE text contains 'kw'",
            "SELECT text, screen_name FROM twitter LIMIT 500",
        ];
        let service = || {
            let api = StreamingApi::new(awkward_tweets(), VirtualClock::new());
            Service::new(Engine::builder(api).build_host())
        };
        let (mut whole, mut split) = (service(), service());
        let q = |n| QueryId::new(n);
        let mut session: Vec<Request> = QUERIES.map(|sql| Request::Register(sql.into())).into();
        session.extend([
            Request::Step(60),
            Request::Poll(q(1)),
            Request::Poll(q(2)),
            Request::Run,
            Request::Poll(q(1)),
            Request::Drop(q(2)),
            Request::Drop(q(3)),
        ]);
        let responses = writes_compose_to_handle(&mut whole, &mut split, &session);

        let api = StreamingApi::new(awkward_tweets(), VirtualClock::new());
        let mut host = Engine::builder(api).build_host();
        for sql in QUERIES {
            host.register(sql).unwrap();
        }
        let json = |host: &QueryHost, id, rows: Vec<tweeql_model::Record>| {
            sink::to_json_lines(&host.schema(id).unwrap(), &rows)
        };
        host.pump_until(Timestamp::from_secs(60)).unwrap();
        let mut expected: Vec<String> = Vec::new();
        for id in [q(1), q(2)] {
            let rows = host.take_output(id).unwrap();
            expected.push(json(&host, id, rows));
        }
        host.run_to_end().unwrap();
        let rows = host.take_output(q(1)).unwrap();
        expected.push(json(&host, q(1), rows));
        for id in [q(2), q(3)] {
            let schema = host.schema(id).unwrap();
            expected.push(sink::to_json_lines(&schema, &host.drop_query(id).unwrap()));
        }
        // The replies to the two POLLs, the POLL after RUN and the DROPs.
        let got = [4, 5, 7, 8, 9].map(|i| responses[i].body.as_str());
        assert_eq!(got.to_vec(), expected);
        assert!(got.iter().all(|body| !body.is_empty()), "{got:?}");
        assert!(body_lines(&responses) > 2_000, "{}", body_lines(&responses));
    }

    /// `STATS` counts the rows produced and not yet polled.
    #[test]
    fn stats_report_the_rows_no_poll_has_taken() {
        let mut svc = tiny_service();
        let field = |detail: &str, key: &str| -> usize {
            let value = detail
                .split(' ')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='));
            value
                .unwrap_or_else(|| panic!("no {key} in {detail}"))
                .parse()
                .unwrap()
        };
        let stats = |svc: &mut Service| ok(svc.handle(Request::Stats)).detail;
        let keys: Vec<_> = stats(&mut svc)
            .split(' ')
            .map(|kv| kv.split('=').next().unwrap().to_string())
            .collect();
        assert_eq!(
            keys,
            [
                "tweets",
                "batches",
                "dispatched",
                "decoded",
                "shared",
                "needles",
                "position",
                "pending",
                "pending_bytes"
            ]
        );
        assert_eq!(field(&stats(&mut svc), "pending_bytes"), 0);
        let r = ok(svc.handle(Request::Register("SELECT text FROM twitter".into())));
        let id: QueryId = r.detail.parse().unwrap();
        let n = field(&ok(svc.handle(Request::Step(60))).detail, "tweets");
        assert!(n > 0);
        let pending = stats(&mut svc);
        assert_eq!(field(&pending, "pending"), n, "every tweet is a row");
        assert_eq!(
            field(&pending, "pending_bytes"),
            svc.host().pending_bytes(),
            "the batch's own count"
        );
        assert!(
            field(&pending, "pending_bytes") > n,
            "each row holds its text: {pending}"
        );
        assert_eq!(ok(svc.handle(Request::Poll(id))).body.len(), n);
        let polled = stats(&mut svc);
        assert_eq!(field(&polled, "pending"), 0);
        assert_eq!(field(&polled, "pending_bytes"), 0);
    }

    #[test]
    fn list_renders_one_line_per_query_whatever_the_sql_holds() {
        let mut svc = tiny_service();
        ok(svc.handle(Request::Register(
            "SELECT text\rFROM twitter\r\nWHERE text contains 'kw'".into(),
        )));
        ok(svc.handle(Request::Register("SELECT lang FROM twitter".into())));
        let listed = ok(svc.handle(Request::List));
        assert_eq!(listed.body.len(), 2);
        assert!(!listed.body.as_str().contains('\r'));
        assert_eq!(listed.render().lines().count(), 3, "{}", listed.render());
        assert!(listed.body[0].contains("SELECT text FROM twitter"));
    }

    /// A peer that never sends a newline gets an `ERR` frame and a
    /// closed connection after [`MAX_REQUEST_LINE`] bytes, not a buffer
    /// that grows for as long as it keeps sending.
    #[test]
    fn overlong_request_line_is_refused_and_the_connection_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || serve(listener, tiny_service()));

        let mut peer = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let mut reading = peer.try_clone().unwrap();
        let reader = std::thread::spawn(move || {
            let mut reply = String::new();
            // A reset after the frame is the server's close meeting
            // the bytes it never read.
            let _ = reading.read_to_string(&mut reply);
            reply
        });
        // The server stops reading half-way, so the tail of this write
        // may meet a closed socket.
        let _ = peer.write_all(&vec![b'A'; 2 * MAX_REQUEST_LINE]);
        assert_eq!(reader.join().unwrap(), "ERR 0 request line too long\n");

        let mut c = client::Client::connect(port).unwrap();
        assert!(c.request(&Request::Ping).unwrap().ok, "still serving");
        assert!(c.request(&Request::Shutdown).unwrap().ok);
        server
            .join()
            .unwrap()
            .expect("a refused peer is not a server error");
    }

    /// A line of exactly the limit, newline included, is still a request.
    #[test]
    fn request_line_of_exactly_the_limit_is_served() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || serve(listener, tiny_service()));

        let mut peer = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let mut replies = BufReader::new(peer.try_clone().unwrap());
        let mut line = vec![b' '; MAX_REQUEST_LINE];
        line[..4].copy_from_slice(b"PING");
        line[MAX_REQUEST_LINE - 1] = b'\n';
        peer.write_all(&line).unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        assert_eq!(reply, "OK 0 pong\n");
        peer.write_all(b"SHUTDOWN\n").unwrap();
        reply.clear();
        replies.read_line(&mut reply).unwrap();
        assert_eq!(reply, "OK 0 bye\n");
        server.join().unwrap().unwrap();
    }

    /// A connected pair of local sockets: `(client, server side)`.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        (client, served)
    }

    #[test]
    fn poisoned_service_lock_is_an_err_frame_not_a_second_panic() {
        let service = Arc::new(Mutex::new(tiny_service()));
        // A request that panics inside `execute` leaves the lock poisoned.
        let holder = Arc::clone(&service);
        let panicked = thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("a bug inside execute");
        })
        .join();
        assert!(panicked.is_err() && service.is_poisoned());

        // Every later request, on any connection, is refused and its
        // connection closed; `SHUTDOWN` still reports that the accept
        // loop is to end.
        for (request, ends_server) in [("PING\n", false), ("SHUTDOWN\n", true)] {
            let (mut client, served) = socket_pair();
            let svc = Arc::clone(&service);
            let session = thread::spawn(move || handle_connection(served, &svc));
            client.write_all(request.as_bytes()).unwrap();
            // Reading to end of stream: the connection was closed.
            let mut reply = String::new();
            client.read_to_string(&mut reply).unwrap();
            assert_eq!(reply, "ERR 0 internal: service unavailable\n", "{request}");
            let ended = session.join().expect("the session does not panic");
            assert_eq!(ended.unwrap(), ends_server, "{request}");
        }
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            serve(listener, tiny_service()).unwrap();
        });

        let mut c = client::Client::connect(port).unwrap();
        let r = c.request(&Request::Ping).unwrap();
        assert!(r.ok && r.detail == "pong");
        let r = c
            .request(&Request::Register(
                "SELECT text FROM twitter WHERE text contains 'kw'".into(),
            ))
            .unwrap();
        assert!(r.ok);
        let id: QueryId = r.detail.parse().unwrap();
        assert!(c.request(&Request::Run).unwrap().ok);
        let rows = c.request(&Request::Poll(id)).unwrap();
        assert!(rows.ok && !rows.body.is_empty());
        // A second connection sees the same session state.
        drop(c);
        let mut c2 = client::Client::connect(port).unwrap();
        let listed = c2.request(&Request::List).unwrap();
        assert_eq!(listed.body.len(), 1);
        let r = c2.request(&Request::Shutdown).unwrap();
        assert!(r.ok && r.detail == "bye");
        server.join().unwrap();
    }

    /// Two clients hold connections open at the same time and
    /// interleave requests against the shared host: a registration by
    /// one is immediately visible to the other, both drive the stream,
    /// and both poll the same query's output.
    #[test]
    fn tcp_concurrent_sessions_share_host_state() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            serve(listener, tiny_service()).unwrap();
        });

        let mut a = client::Client::connect(port).unwrap();
        let mut b = client::Client::connect(port).unwrap();
        assert!(a.request(&Request::Ping).unwrap().ok);
        assert!(b.request(&Request::Ping).unwrap().ok);

        let r = a
            .request(&Request::Register(
                "SELECT text FROM twitter WHERE text contains 'kw'".into(),
            ))
            .unwrap();
        assert!(r.ok);
        let id: QueryId = r.detail.parse().unwrap();

        // B sees A's registration while A is still connected.
        let listed = b.request(&Request::List).unwrap();
        assert_eq!(listed.body.len(), 1, "{:?}", listed.body);

        // Both clients advance the one shared stream.
        assert!(a.request(&Request::Step(60)).unwrap().ok);
        assert!(b.request(&Request::Run).unwrap().ok);

        // Output is a shared queue: whichever polls first drains it.
        let rows = b.request(&Request::Poll(id)).unwrap();
        assert!(rows.ok && !rows.body.is_empty());
        let rows = a.request(&Request::Poll(id)).unwrap();
        assert!(rows.ok && rows.body.is_empty(), "B already drained it");

        drop(a);
        let r = b.request(&Request::Shutdown).unwrap();
        assert!(r.ok && r.detail == "bye");
        server.join().unwrap();
    }

    /// SHUTDOWN flushes a checkpoint; a new server process pointed at
    /// the same data dir recovers the standing queries and does not
    /// re-deliver rows that were already polled.
    #[test]
    fn shutdown_checkpoints_and_restart_preserves_queries() {
        let dir = tweeql_wal::TempDir::new("tweeql-server-dur");
        let sql = "SELECT text FROM twitter WHERE text contains 'goal'";

        let host = scenario_host_in("soccer", 7, Some(dir.path())).unwrap();
        let mut svc = Service::new(host);
        let r = ok(svc.handle(Request::Register(sql.into())));
        let id: QueryId = r.detail.parse().unwrap();
        ok(svc.handle(Request::Step(120)));
        let polled = ok(svc.handle(Request::Poll(id)));
        assert!(!polled.body.is_empty(), "two minutes of 'goal' traffic");
        let bye = ok(svc.handle(Request::Shutdown));
        assert_eq!(bye.detail, "bye");
        // The host's checkpoint records begin with its tag byte, 4.
        let (_, log) = tweeql_wal::Wal::open(dir.path(), 1 << 20, false).unwrap();
        assert_eq!(
            log.last().and_then(|(_, r)| r.first()),
            Some(&4),
            "SHUTDOWN must flush a checkpoint"
        );
        drop(svc);

        // "Restart": same scenario + seed + data dir, fresh process.
        let host = scenario_host_in("soccer", 7, Some(dir.path())).unwrap();
        let mut svc = Service::new(host);
        let listed = ok(svc.handle(Request::List));
        assert_eq!(listed.body.len(), 1, "registration survived restart");
        assert!(listed.body[0].contains(sql), "{}", &listed.body[0]);
        let replayed = ok(svc.handle(Request::Poll(id)));
        assert!(
            replayed.body.is_empty(),
            "polled rows must not be re-delivered: {:?}",
            replayed.body
        );
        // The recovered host keeps producing from where it left off.
        ok(svc.handle(Request::Run));
        let fresh = ok(svc.handle(Request::Poll(id)));
        assert!(!fresh.body.is_empty(), "post-restart rows still flow");
    }

    /// A mismatched engine configuration (different seed) is rejected
    /// loudly instead of silently diverging from the logged history.
    #[test]
    fn restart_with_wrong_seed_is_an_error() {
        let dir = tweeql_wal::TempDir::new("tweeql-server-seed");
        let mut svc = Service::new(scenario_host_in("soccer", 7, Some(dir.path())).unwrap());
        ok(svc.handle(Request::Register(
            "SELECT text FROM twitter WHERE text contains 'goal'".into(),
        )));
        ok(svc.handle(Request::Shutdown));
        drop(svc);

        let err = match scenario_host_in("soccer", 8, Some(dir.path())) {
            Err(e) => e,
            Ok(_) => panic!("wrong-seed recovery accepted"),
        };
        assert!(err.contains("recovery"), "{err}");
    }

    /// Before its first checkpoint the log's header names the stream:
    /// a restart with another seed or scenario is refused.
    #[test]
    fn restart_before_a_checkpoint_on_another_stream_is_an_error() {
        let dir = tweeql_wal::TempDir::new("tweeql-server-source");
        let mut svc = Service::new(scenario_host_in("soccer", 7, Some(dir.path())).unwrap());
        ok(svc.handle(Request::Register(
            "SELECT text FROM twitter WHERE text contains 'goal'".into(),
        )));
        ok(svc.handle(Request::Step(10)));
        drop(svc);

        for (name, seed) in [("soccer", 8), ("earthquakes", 7)] {
            let err = match scenario_host_in(name, seed, Some(dir.path())) {
                Err(e) => e,
                Ok(_) => panic!("{name} seed {seed} recovered a soccer seed 7 log"),
            };
            assert!(err.contains("another source"), "{err}");
        }
        assert!(scenario_host_in("soccer", 7, Some(dir.path())).is_ok());
    }

    #[test]
    fn scenario_host_lookup() {
        assert!(scenario_host("soccer", 1).is_ok());
        let err = match scenario_host("nope", 1) {
            Err(e) => e,
            Ok(_) => panic!("bogus scenario accepted"),
        };
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
