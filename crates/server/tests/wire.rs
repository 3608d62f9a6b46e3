//! The real `tweeql-server` binary over real sockets: what a large
//! `POLL` puts on the wire, and what a peer that walks away in the
//! middle of one does to the server (nothing).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use tweeql::sink;
use tweeql_server::protocol::Response;
use tweeql_server::scenario_host;

const EXPORT: &str = "SELECT screen_name, text, lang, followers, created_at FROM twitter";
const SEED: u64 = 42;

/// `tweeql-server --scenario soccer` on a free port.
struct Server {
    child: Child,
    port: u16,
}

impl Server {
    fn start() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tweeql-server"))
            .args(["--port", "0", "--scenario", "soccer", "--seed"])
            .arg(SEED.to_string())
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
    /// Send `request`; return the reply's body-line count and detail.
    fn ask(&mut self, request: &str) -> (usize, String) {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let mut header = String::new();
        self.reader.read_line(&mut header).expect("read header");
        let (ok, n, detail) = Response::parse_header(&header).expect("well-formed header");
        assert!(ok, "{request} -> {header}");
        (n, detail)
    }

    /// The next `n` body lines, as they came.
    fn body(&mut self, n: usize) -> String {
        let mut text = String::new();
        for _ in 0..n {
            assert_ne!(self.reader.read_line(&mut text).expect("read body"), 0);
        }
        text
    }
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

    let server = Server::start();
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
    let server = Server::start();
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
    let server = Server::start();
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
