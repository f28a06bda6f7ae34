//! The daemon under test: `brokerctl serve` as a child process, observed
//! from outside through `/proc/<pid>`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawn may take to answer its first `ping`.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a drain may take before the process is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

fn other(message: impl Into<String>) -> io::Error {
    io::Error::other(message.into())
}

/// A running `brokerctl serve`. Dropping it kills the process.
pub struct Daemon {
    child: Child,
    /// The daemon's stdout, kept open so its last log line never hits a
    /// closed pipe.
    log: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to first answered `ping`.
    pub setup: Duration,
}

impl Daemon {
    /// Spawns `brokerctl serve --addr 127.0.0.1:0`, adding `--state-dir`
    /// when given and leaving every other flag at its default, then
    /// polls `ping` every 0.1 ms until it is answered.
    pub fn spawn(brokerctl: &Path, state_dir: Option<&Path>) -> io::Result<Daemon> {
        let start = Instant::now();
        let mut command = Command::new(brokerctl);
        command.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = state_dir {
            command.arg("--state-dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| other(format!("spawn {}: {e}", brokerctl.display())))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            log: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        daemon.addr = daemon.listen_addr()?;
        while let Err(error) = ping(daemon.addr) {
            if start.elapsed() > START_TIMEOUT {
                return Err(other(format!("daemon never answered ping: {error}")));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        daemon.setup = start.elapsed();
        Ok(daemon)
    }

    /// Reads the daemon's log until it names the address it bound.
    fn listen_addr(&mut self) -> io::Result<SocketAddr> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.log.read_line(&mut line)? == 0 {
                return Err(other("daemon exited before listening"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr
                    .parse()
                    .map_err(|e| other(format!("bad listen address `{addr}`: {e}")));
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time of every live daemon thread, in ns (`schedstat`).
    pub fn cpu_ns(&self) -> io::Result<u64> {
        self.sum_over_tasks("schedstat", |text| {
            text.split_whitespace().next()?.parse().ok()
        })
    }

    /// Voluntary plus involuntary context switches of every live thread.
    pub fn context_switches(&self) -> io::Result<u64> {
        self.sum_over_tasks("status", |text| {
            Some(
                status_field(text, "voluntary_ctxt_switches:")?
                    + status_field(text, "nonvoluntary_ctxt_switches:")?,
            )
        })
    }

    /// Peak resident set size (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let text = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status_field(&text, "VmHWM:").ok_or_else(|| other("no VmHWM in /proc status"))
    }

    fn sum_over_tasks(&self, file: &str, parse: impl Fn(&str) -> Option<u64>) -> io::Result<u64> {
        let mut total = 0;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            // A thread may exit between listing and reading.
            let Ok(text) = std::fs::read_to_string(task?.path().join(file)) else {
                continue;
            };
            total += parse(&text).ok_or_else(|| other(format!("unreadable task {file}")))?;
        }
        Ok(total)
    }

    /// Sends `shutdown`, waits for the drain, and reaps the process.
    pub fn shutdown(mut self) -> io::Result<()> {
        let answer = round_trip(self.addr, "{\"v\":1,\"id\":0,\"endpoint\":\"shutdown\"}\n");
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                answer?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(other(format!("daemon exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(other("daemon did not stop after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|line| line.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Writes one frame on a fresh connection and returns the answer line.
pub fn round_trip(addr: SocketAddr, frame: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(frame.as_bytes())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(line)
}

fn ping(addr: SocketAddr) -> io::Result<()> {
    let answer = round_trip(addr, "{\"v\":1,\"id\":0,\"endpoint\":\"ping\"}\n")?;
    if answer.contains("\"pong\":true") {
        Ok(())
    } else {
        Err(other(format!("unexpected ping answer: {answer}")))
    }
}
