//! The real `tweeql-server` binary over real sockets: what a large
//! `POLL` puts on the wire, what a peer that walks away in the middle
//! of one does to the server (nothing), the `tweeql-client` CLI, two
//! sessions at once, hostile queries, and a SIGKILL with a restart on
//! the same data directory.

use std::ffi::OsStr;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use tweeql::sink;
use tweeql_server::protocol::Response;
use tweeql_server::scenario_host;
use tweeql_wal::TempDir;

const GOAL: &str = "SELECT text FROM twitter WHERE text contains 'goal'";
const EXPORT: &str = "SELECT screen_name, text, lang, followers, created_at FROM twitter";
const SEED: u64 = 42;

/// `tweeql-server --scenario soccer` on a free port. Dropping it
/// kills the process with SIGKILL.
struct Server {
    child: Child,
    port: u16,
}

impl Server {
    /// Start the binary with `extra` arguments after the defaults.
    fn start(extra: &[&OsStr]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tweeql-server"))
            .args(["--port", "0", "--scenario", "soccer", "--seed"])
            .arg(SEED.to_string())
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tweeql-server");
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read LISTENING");
        let port = line
            .trim()
            .strip_prefix("LISTENING ")
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("no port in {line:?}"));
        Server { child, port }
    }

    fn connect(&self) -> Session {
        let stream = TcpStream::connect(("127.0.0.1", self.port)).expect("connect");
        Session {
            reader: BufReader::new(stream.try_clone().expect("clone socket")),
            writer: stream,
        }
    }

    /// `tweeql-client --port <port> <words>`: its stdout, after a zero
    /// exit.
    fn client(&self, words: &[&str]) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_tweeql-client"))
            .arg("--port")
            .arg(self.port.to_string())
            .args(words)
            .output()
            .expect("run tweeql-client");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "tweeql-client {words:?}: {stderr}");
        String::from_utf8(out.stdout).expect("UTF-8 stdout")
    }

    /// Wait for the exit a `SHUTDOWN` was answered with; returns whether
    /// it was clean, and stderr.
    fn wait(mut self) -> (bool, String) {
        let status = self.child.wait().expect("wait for tweeql-server");
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        (status.success(), stderr)
    }
}

impl Drop for Server {
    /// A failed assertion must not leave the child behind.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One raw connection: request lines out, header lines and bytes in.
struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    /// Send `request`; return the reply's status, body-line count and
    /// detail.
    fn send(&mut self, request: &str) -> (bool, usize, String) {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let mut header = String::new();
        self.reader.read_line(&mut header).expect("read header");
        Response::parse_header(&header).expect("well-formed header")
    }

    /// Send `request`; return the reply's body-line count and detail.
    fn ask(&mut self, request: &str) -> (usize, String) {
        let (ok, n, detail) = self.send(request);
        assert!(ok, "{request} -> {detail}");
        (n, detail)
    }

    /// Send `request`, which must be refused; return the error detail.
    fn refused(&mut self, request: &str) -> String {
        let (ok, _, detail) = self.send(request);
        assert!(!ok, "{request:.60} -> {detail}");
        detail
    }

    /// The next `n` body lines, as they came.
    fn body(&mut self, n: usize) -> String {
        let mut text = String::new();
        for _ in 0..n {
            assert_ne!(self.reader.read_line(&mut text).expect("read body"), 0);
        }
        text
    }

    /// `request`'s body.
    fn ask_body(&mut self, request: &str) -> String {
        let (n, _) = self.ask(request);
        self.body(n)
    }
}

/// Does `text` hold a JSON row?
fn has_rows(text: &str) -> bool {
    text.lines().any(|line| line.starts_with('{'))
}

#[test]
fn large_poll_is_byte_equal_to_the_in_process_sink() {
    let mut host = scenario_host("soccer", SEED).unwrap();
    let id = host.register(EXPORT).unwrap();
    host.run_to_end().unwrap();
    let schema = host.schema(id).unwrap();
    let rows = host.take_output(id).unwrap();
    assert!(rows.len() >= 20_000, "{} rows", rows.len());
    let expected = sink::to_json_lines(&schema, &rows);

    let server = Server::start(&[]);
    let mut s = server.connect();
    let (_, qid) = s.ask(&format!("REGISTER {EXPORT}"));
    s.ask("RUN");
    let (n, detail) = s.ask(&format!("POLL {qid}"));
    assert_eq!(detail, qid);
    assert_eq!(n, rows.len(), "header count");
    let body = s.body(n);
    assert_eq!(body.lines().count(), n, "header count equals line count");
    assert!(body == expected, "wire body differs from to_json_lines");
    assert_eq!(s.ask(&format!("POLL {qid}")).0, 0, "second poll is empty");
    // Nothing but the next header follows the body.
    assert_eq!(s.ask("SHUTDOWN"), (0, "bye".to_string()));
    let (clean, stderr) = server.wait();
    assert!(clean, "{stderr}");
}

#[test]
fn peer_that_leaves_mid_poll_ends_its_own_session_only() {
    let server = Server::start(&[]);
    let mut leaver = server.connect();
    let (_, qid) = leaver.ask(&format!("REGISTER {EXPORT}"));
    leaver.ask("RUN");
    let (n, _) = leaver.ask(&format!("POLL {qid}"));
    assert!(n >= 20_000, "{n} rows");
    // Half the body read, the rest still in flight or unsent: closing
    // now resets the connection under the server's write or next read.
    leaver.body(n / 2);
    drop(leaver);

    let mut second = server.connect();
    assert_eq!(second.ask("PING").1, "pong");
    assert_eq!(second.ask("LIST").0, 1, "the query outlives the session");
    assert!(second.body(1).contains(EXPORT));
    // The rows went to the peer that asked for them; none come twice.
    assert_eq!(second.ask(&format!("POLL {qid}")).0, 0);
    assert_eq!(second.ask("SHUTDOWN").1, "bye");
    let (clean, stderr) = server.wait();
    assert!(
        clean,
        "a broken pipe on one session failed the server: {stderr}"
    );
    assert!(
        stderr.lines().count() <= 1,
        "one line per ended session at most: {stderr}"
    );
}

#[test]
fn a_step_past_the_end_of_time_runs_to_the_end_on_a_live_service() {
    let server = Server::start(&[]);
    let mut s = server.connect();
    s.ask(&format!("REGISTER {EXPORT}"));
    s.ask("STEP 60");
    // Seconds whose milliseconds overflow `i64`, from a position past
    // zero: the step saturates to the end of the stream.
    let (_, stepped) = s.ask(&format!("STEP {}", i64::MAX));
    let position = stepped.split_once(" position=").expect("position").1;
    assert_ne!(position, "0", "{stepped}");

    // The service is still up for every connection, and `RUN` finds
    // the stream already at its end.
    let mut other = server.connect();
    assert_eq!(other.ask("PING").1, "pong");
    assert_eq!(other.ask("RUN").1, format!("tweets=0 position={position}"));
    // The server joins every open session before it exits.
    drop(other);
    assert_eq!(s.ask("SHUTDOWN").1, "bye");
    let (clean, stderr) = server.wait();
    assert!(clean, "{stderr}");
}

/// Queries nested to the parser's cap register and run on a session
/// thread's default stack. One nested past it, a regex count past its
/// limit and a regex nested past its limit are refused, and the server
/// answers on.
#[test]
fn hostile_queries_are_refused_and_the_server_lives_on() {
    let server = Server::start(&[]);
    let mut s = server.connect();
    let cap = tweeql::parser::MAX_DEPTH;
    let nested = |n: usize| {
        let (open, close) = ("(".repeat(n), ")".repeat(n));
        format!("SELECT {open}followers{close} AS f FROM twitter")
    };
    let at_cap = [
        nested(cap),
        format!("SELECT followers{} AS f FROM twitter", " + 1".repeat(cap)),
        format!(
            "SELECT text FROM twitter WHERE followers > 0{}",
            " OR followers > 0".repeat(cap - 1)
        ),
        format!(
            "SELECT text FROM twitter WHERE {}true",
            "NOT NOT ".repeat(cap / 2)
        ),
    ];
    let ids: Vec<String> = at_cap
        .iter()
        .map(|sql| s.ask(&format!("REGISTER {sql}")).1)
        .collect();
    s.ask("STEP 60");
    for id in &ids {
        assert!(has_rows(&s.ask_body(&format!("POLL {id}"))), "{id}");
    }

    let deep = s.refused(&format!("REGISTER {}", nested(1000)));
    assert!(deep.contains("deeper than"), "{deep}");
    let groups = format!("{}a{}", "(".repeat(1000), ")".repeat(1000));
    for pattern in ["a{1001}", groups.as_str()] {
        let refused = s.refused(&format!(
            "REGISTER SELECT text FROM twitter WHERE text matches '{pattern}'"
        ));
        assert!(refused.contains("E010"), "{refused}");
    }
    assert_eq!(s.ask("PING").1, "pong");
    assert_eq!(server.connect().ask("PING").1, "pong");
    assert_eq!(s.ask("SHUTDOWN").1, "bye");
    let (clean, stderr) = server.wait();
    assert!(clean, "{stderr}");
}

#[test]
fn the_client_cli_drives_a_standing_query_round_trip() {
    let server = Server::start(&[]);
    assert_eq!(server.client(&["ping"]), "pong\n");
    let registered = server.client(&["register", GOAL]);
    let qid = registered.split_whitespace().next().expect("query id");
    assert!(server.client(&["list"]).contains(qid));
    assert!(server.client(&["schema", qid]).contains("text"));
    // Minute 40 is past the scenario's first goal burst.
    server.client(&["step", "2400"]);
    assert!(
        has_rows(&server.client(&["poll", qid])),
        "no rows after the first goal burst"
    );
    assert!(server.client(&["stats"]).contains("tweets="));
    server.client(&["drop", qid]);
    assert!(
        !server.client(&["list"]).contains(qid),
        "dropped query still listed"
    );
    // A windowed self-join stands like any other query: its join stage
    // reads the host's one connection.
    let registered = server.client(&[
        "register",
        "SELECT id, id_r FROM twitter JOIN twitter ON screen_name = screen_name WINDOW 60 seconds",
    ]);
    let jid = registered.split_whitespace().next().expect("query id");
    server.client(&["step", "120"]);
    assert!(
        has_rows(&server.client(&["poll", jid])),
        "the self-join produced no rows"
    );
    server.client(&["shutdown"]);
    let (clean, stderr) = server.wait();
    assert!(clean, "{stderr}");
}

#[test]
fn two_open_sessions_share_one_host() {
    let server = Server::start(&[]);
    let (mut a, mut b) = (server.connect(), server.connect());
    assert_eq!(a.ask("PING").1, "pong");
    assert_eq!(b.ask("PING").1, "pong");
    let (_, qid) = a.ask(&format!("REGISTER {GOAL}"));
    // B sees A's registration while both sessions are open.
    assert!(b.ask_body("LIST").contains(&qid));
    a.ask("STEP 2400");
    assert!(
        has_rows(&b.ask_body(&format!("POLL {qid}"))),
        "session B saw no rows from session A's query"
    );
    assert!(a.ask("STATS").1.contains("tweets="));
    assert_eq!(b.ask("SHUTDOWN").1, "bye");
    // The server joins every open session before it exits.
    drop((a, b));
    let (clean, stderr) = server.wait();
    assert!(clean, "{stderr}");
}

#[test]
fn a_standing_query_survives_sigkill_without_redelivering_rows() {
    let dir = TempDir::new("tweeql-wire-kill");
    let durable = [OsStr::new("--data-dir"), dir.path().as_os_str()];
    let server = Server::start(&durable);
    let mut s = server.connect();
    let (_, qid) = s.ask(&format!("REGISTER {GOAL}"));
    // Pump past the first goal burst and externalize some rows.
    s.ask("STEP 2400");
    let poll = format!("POLL {qid}");
    assert!(has_rows(&s.ask_body(&poll)), "no rows before the kill");
    drop(server);

    // Restart on the same data directory: the registration is back,
    // and none of the polled rows reappear.
    let server = Server::start(&durable);
    let mut s = server.connect();
    assert!(
        s.ask_body("LIST").contains(&qid),
        "standing query lost across the kill"
    );
    assert_eq!(s.ask(&poll).0, 0, "polled rows re-delivered after restart");
    // The recovered host keeps producing: finish the stream.
    s.ask("RUN");
    assert!(has_rows(&s.ask_body(&poll)), "no rows after recovery");
    assert_eq!(s.ask("SHUTDOWN").1, "bye");
    let (clean, stderr) = server.wait();
    assert!(clean, "{stderr}");
    assert!(
        dir.path().join("checkpoint.bin").exists(),
        "SHUTDOWN left no checkpoint"
    );
}
