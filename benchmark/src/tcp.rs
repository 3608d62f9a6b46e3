//! One pass of a TCP workload: start the server, register the queries,
//! pump the stream with a closed-loop feeder while a closed-loop poller
//! collects rows, and time it all from outside.
//!
//! **Load model.** Two threads, two connections. The *feeder* is a
//! closed loop — `STEP 300` once per five virtual minutes, [`FEEDER_GAP`]
//! after each reply, then `RUN` — because the server has no arrival
//! process of its own: the client pulls the stream, so capacity is the
//! closed-loop rate. The *poller*
//! is a closed loop too: one dashboard client on one connection, which
//! cannot send its next `POLL <id>` (round-robin over the registered
//! ids) before the last reply is in, and thinks for [`POLL_THINK`] in
//! between. A poll is timed from the instant it was sent. (An open
//! loop on a fixed schedule is not sustainable here: the server answers
//! about one poll per `STEP`, since one mutex guards the whole service,
//! so any schedule faster than the steps measures a backlog that grows
//! for as long as the run lasts — at 2 ms, seconds of it.) After `RUN`
//! the poller drains every id once. The timed window runs from the
//! first `STEP` sent to the last drain reply.

use crate::child::{ChildSpec, Proc, OP_TIMEOUT};
use crate::reference::{Digest, Ops};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tweeql::QueryId;
use tweeql_server::protocol::{Request, Response};

/// How long the poller thinks between a reply and its next poll.
pub const POLL_THINK: Duration = Duration::from_millis(2);

/// How long the feeder leaves the service alone between a reply and its
/// next `STEP`: the time a request that waited for the service mutex
/// needs to wake up and take it. The standard mutex is not fair; with a
/// back-to-back feeder, whether a waiting poll gets in after one step
/// or after five is chance, and the median poll latency of identical
/// runs flips between 25 and 42 ms. The gap is inside the timed window.
pub const FEEDER_GAP: Duration = Duration::from_micros(300);

/// Virtual seconds the feeder asks for per `STEP`. With one-minute
/// steps (5 ms of pumping) the race for the service mutex after each
/// step decides the run: throughput of identical passes spread by 15 %.
pub const STEP_SECS: i64 = 300;

/// `STEP`s that cover `minutes` of stream.
pub fn steps(minutes: i64) -> i64 {
    (minutes * 60 / STEP_SECS).max(1)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations sent and failed on all connections of one pass. Shared,
/// not per connection, so that the counts outlive a pass that ends in
/// an error. Plain statistics: `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct OpCounter {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl OpCounter {
    pub fn ops(&self) -> Ops {
        Ops {
            attempted: self.attempted.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

/// A line-protocol connection that digests body lines as they arrive
/// instead of collecting them, counts wire bytes, and gives up on a
/// reply after [`OP_TIMEOUT`].
pub struct Conn<'a> {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    pub wire_bytes: u64,
    counter: &'a OpCounter,
}

impl<'a> Conn<'a> {
    pub fn connect(port: u16, counter: &'a OpCounter) -> io::Result<Conn<'a>> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
            wire_bytes: 0,
            counter,
        })
    }

    /// Send `req`, hand every body line of the reply to `on_row`, and
    /// return the detail text. An `ERR` frame is a failed operation and
    /// comes back as `Ok(None)`; a transport error or timeout is a
    /// failed operation and ends the pass.
    pub fn call(
        &mut self,
        req: &Request,
        mut on_row: impl FnMut(&str),
    ) -> io::Result<Option<String>> {
        self.counter.attempted.fetch_add(1, Ordering::Relaxed);
        let r = self.exchange(req, &mut on_row);
        if !matches!(r, Ok(Some(_))) {
            self.counter.failed.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn exchange(
        &mut self,
        req: &Request,
        on_row: &mut dyn FnMut(&str),
    ) -> io::Result<Option<String>> {
        let mut out = req.to_string();
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        self.wire_bytes += out.len() as u64;
        self.read_line()?;
        let (ok, nbody, detail) = Response::parse_header(&self.line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        for _ in 0..nbody {
            self.read_line()?;
            on_row(self.line.trim_end());
        }
        if !ok {
            eprintln!("benchmark: {req} -> ERR {detail}");
        }
        Ok(ok.then_some(detail))
    }

    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.wire_bytes += n as u64;
        Ok(())
    }
}

/// A started server and the port it listens on.
struct Server {
    proc: Proc,
    port: u16,
}

impl Server {
    fn start(spec: &ChildSpec, data_dir: Option<&Path>) -> io::Result<Server> {
        let mut proc = Proc::spawn(spec, "serve", data_dir)?;
        let port = proc
            .expect("LISTENING")?
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("port: {e}")))?;
        Ok(Server { proc, port })
    }
}

/// The closed-loop poller and everything it has seen so far.
struct Poller<'a> {
    conn: Conn<'a>,
    /// Position in the round-robin.
    next: usize,
    /// Per query: rows received, in poll order.
    digests: Vec<Digest>,
    /// Per poll before the drain: reply complete minus send time.
    poll_ms: Vec<f64>,
    /// How late the generator sent: send time minus the end of its
    /// think time.
    late_ms: Vec<f64>,
}

impl Poller<'_> {
    fn poll(&mut self, ids: &[QueryId], i: usize) -> io::Result<()> {
        let d = &mut self.digests[i];
        self.conn.call(&Request::Poll(ids[i]), |row| d.line(row))?;
        Ok(())
    }

    /// Poll, think, poll again until `stop`; then, when `drain`, poll
    /// every id once more.
    fn run(&mut self, ids: &[QueryId], stop: &AtomicBool, drain: bool) -> io::Result<()> {
        let mut due = Instant::now();
        loop {
            // Parked, not asleep: the feeder unparks this thread when it
            // stops, so the window does not end on a sleeping poller.
            while !stop.load(Ordering::Acquire) {
                match due.checked_duration_since(Instant::now()) {
                    Some(wait) => std::thread::park_timeout(wait),
                    None => break,
                }
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
            let sent = Instant::now();
            let i = self.next;
            self.poll(ids, i)?;
            let done = Instant::now();
            self.poll_ms.push(ms(done - sent));
            self.late_ms.push(ms(sent - due));
            self.next = (i + 1) % ids.len();
            due = done + POLL_THINK;
        }
        if drain {
            for i in 0..ids.len() {
                self.poll(ids, i)?;
            }
        }
        Ok(())
    }
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct TcpPass {
    /// Child spawn to `LISTENING` to the last `REGISTER` ack.
    pub setup_s: f64,
    /// Summed timed windows (the recovery gap is not in it).
    pub window_s: f64,
    /// Tweets the server reported pumping inside the windows.
    pub tweets: u64,
    pub poll_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub register_ms: Vec<f64>,
    /// Restart spawn to `LISTENING` (durable passes only).
    pub recovery_s: Option<f64>,
    /// Highest `VmHWM` of the pass's server processes.
    pub peak_rss_mb: f64,
    pub wire_bytes: u64,
    pub digests: Vec<Digest>,
}

fn tweets_of(detail: &str) -> u64 {
    detail
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("tweets="))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Run one pass. `data_dir` makes it a durable pass: the server logs to
/// it, is killed with `kill -9` after the ack of the middle `STEP`,
/// restarted on the same directory, and the stream is finished. Every
/// request sent is counted in `counter`, also when the pass fails.
pub fn pass(
    spec: &ChildSpec,
    sqls: &[String],
    steps: i64,
    data_dir: Option<&Path>,
    counter: &OpCounter,
) -> io::Result<TcpPass> {
    let mut out = TcpPass::default();

    let t_spawn = Instant::now();
    let mut server = Server::start(spec, data_dir)?;
    let mut feeder = Conn::connect(server.port, counter)?;
    let mut ids = Vec::with_capacity(sqls.len());
    for sql in sqls {
        let t = Instant::now();
        if let Some(id) = feeder.call(&Request::Register(sql.clone()), |_| {})? {
            let id = id
                .parse::<QueryId>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            ids.push(id);
        }
        out.register_ms.push(ms(t.elapsed()));
    }
    out.setup_s = t_spawn.elapsed().as_secs_f64();
    if ids.len() != sqls.len() {
        // Without every query there is nothing to time or to check.
        return Err(io::Error::other(format!(
            "{} of {} REGISTERs failed",
            sqls.len() - ids.len(),
            sqls.len()
        )));
    }

    let mut poller = Poller {
        conn: Conn::connect(server.port, counter)?,
        next: 0,
        digests: vec![Digest::EMPTY; ids.len()],
        poll_ms: Vec::new(),
        late_ms: Vec::new(),
    };
    let phases: &[(i64, bool)] = match data_dir {
        Some(_) => &[(steps / 2, false), (steps - steps / 2, true)],
        None => &[(steps, true)],
    };
    for (k, &(phase_steps, last)) in phases.iter().enumerate() {
        if k > 0 {
            // The poller is parked and every reply is in: crash now.
            out.peak_rss_mb = out.peak_rss_mb.max(server.proc.peak_rss_mb()?);
            out.wire_bytes += feeder.wire_bytes + poller.conn.wire_bytes;
            server.proc.kill9();
            let t = Instant::now();
            server = Server::start(spec, data_dir)?;
            out.recovery_s = Some(t.elapsed().as_secs_f64());
            feeder = Conn::connect(server.port, counter)?;
            poller.conn = Conn::connect(server.port, counter)?;
        }
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let (fed, polled) = std::thread::scope(|s| {
            let polling = s.spawn(|| poller.run(&ids, &stop, last));
            let fed = (|| {
                for _ in 0..phase_steps {
                    std::thread::sleep(FEEDER_GAP);
                    let t = Instant::now();
                    if let Some(d) = feeder.call(&Request::Step(STEP_SECS), |_| {})? {
                        out.tweets += tweets_of(&d);
                    }
                    out.step_ms.push(ms(t.elapsed()));
                }
                if last {
                    if let Some(d) = feeder.call(&Request::Run, |_| {})? {
                        out.tweets += tweets_of(&d);
                    }
                }
                io::Result::Ok(())
            })();
            stop.store(true, Ordering::Release);
            polling.thread().unpark();
            (fed, polling.join().expect("poller thread panicked"))
        });
        out.window_s += t0.elapsed().as_secs_f64();
        fed?;
        polled?;
    }

    out.peak_rss_mb = out.peak_rss_mb.max(server.proc.peak_rss_mb()?);
    feeder.call(&Request::Shutdown, |_| {})?;
    out.wire_bytes += feeder.wire_bytes + poller.conn.wire_bytes;
    out.poll_ms = poller.poll_ms;
    out.late_ms = poller.late_ms;
    out.digests = poller.digests;
    // The server joins its session threads before it exits, and a
    // session ends when its connection closes.
    drop(feeder);
    drop(poller.conn);
    server.proc.wait_exit()?;
    Ok(out)
}
