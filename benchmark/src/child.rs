//! The system under test runs in a child process (`bench_server`). This
//! module starts it, finds its port, reads its peak memory, and makes
//! sure it and its scratch files are gone when a run ends — on a panic
//! through `Drop`, and if the driver itself is killed because the
//! child exits when its stdin closes.

use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest wait for any one reply from a child.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// A scratch directory under `benchmark/out/`, removed on drop. The
/// system temp dir is off limits: a run reads and writes only inside
/// its checkout.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create `<out>/run-<pid>-<n>`, first sweeping what runs that were
    /// killed left behind (directories whose process is gone).
    pub fn new(out: &Path) -> io::Result<Scratch> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(out)?;
        for entry in std::fs::read_dir(out)?.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let stale = name
                .strip_prefix("run-")
                .and_then(|r| r.split('-').next())
                .is_some_and(|pid| !Path::new("/proc").join(pid).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let path = out.join(format!(
            "run-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty sub-directory (one per durable pass).
    pub fn subdir(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What every child is started from.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// The `bench_server` executable.
    pub bin: PathBuf,
    /// The encoded stream (`replay::encode_log`).
    pub log: PathBuf,
    pub seed: u64,
}

/// A running `bench_server`. Killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// Held open: the child exits when this pipe closes.
    stdin: ChildStdin,
    /// Stdout lines, forwarded by a reader thread so that waiting for
    /// one can time out.
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Proc {
    /// Start `bench_server <mode> ...` with piped stdin and stdout.
    pub fn spawn(spec: &ChildSpec, mode: &str, data_dir: Option<&Path>) -> io::Result<Proc> {
        let mut cmd = Command::new(&spec.bin);
        cmd.arg(mode)
            .arg("--log")
            .arg(&spec.log)
            .arg("--seed")
            .arg(spec.seed.to_string());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Proc {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    /// The next stdout line, without its newline. An exited or silent
    /// child is an error, not an empty line.
    pub fn read_line(&mut self) -> io::Result<String> {
        self.lines.recv_timeout(OP_TIMEOUT).map_err(|e| {
            io::Error::new(io::ErrorKind::TimedOut, format!("bench_server stdout: {e}"))
        })
    }

    /// Read the next stdout line, which must start with `word`; returns
    /// the rest of that line.
    pub fn expect(&mut self, word: &str) -> io::Result<String> {
        let line = self.read_line()?;
        match line.strip_prefix(word) {
            Some(rest) => Ok(rest.trim().to_string()),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bench_server said {line:?}, expected {word}"),
            )),
        }
    }

    /// Send one line on stdin.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()
    }

    /// Peak resident memory so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
    }

    /// `kill -9`, then reap (what `Drop` does, by name).
    pub fn kill9(self) {}

    /// Wait for a child that was told to stop; kill it if it does not
    /// within [`OP_TIMEOUT`].
    pub fn wait_exit(mut self) -> io::Result<()> {
        let t0 = Instant::now();
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if t0.elapsed() > OP_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "bench_server did not exit",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipe is closed now, so the reader thread has ended.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
