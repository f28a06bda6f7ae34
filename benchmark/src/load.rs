//! The load generator: one process, two connections, at most two threads.
//!
//! Open-loop phases send on a Poisson schedule from a writer thread, with
//! at most `MAX_IN_FLIGHT` requests unanswered, while the calling thread
//! reads answers through the daemon's own `Poller`.
//! Latency is timed from each request's intended send time, so a stall
//! also delays every request that fell due during it. Closed-loop phases
//! run on the calling thread alone: each answer releases the next frame on
//! its connection, keeping `depth` frames in flight per connection.

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use uptime_serve::reactor::frame::{FrameScanner, Scan};
use uptime_serve::reactor::poller::{Interest, Poller};
use uptime_serve::{code, ResponseFrame};

use crate::workload::{Kind, Request, Stream};

/// Connections the generator holds open to the daemon.
pub const CONNECTIONS: usize = 2;

/// Largest answer frame accepted (the `global` archetype answers ~400 KB).
const MAX_ANSWER_BYTES: usize = 64 << 20;

/// Most requests an open-loop phase leaves unanswered: three quarters of
/// the daemon's default 64-deep admission queue, so a stall never sheds.
/// Closed-loop phases stay below it by their depth (at most 16 per
/// connection).
const MAX_IN_FLIGHT: usize = 48;

/// How long a phase waits for answers once its sending is over.
const GRACE: Duration = Duration::from_secs(5);

/// Every `CHECK_EVERY`-th request (by id) of a unique kind is verified.
const CHECK_EVERY: u64 = 50;

/// Above this p99 send lateness the generator, not the daemon, set the
/// open-loop timing, and the run is marked invalid.
const MAX_SEND_LATE_P99_US: f64 = 1_000.0;

/// Whether the writer kept to its schedule; warns when it did not.
pub fn generator_kept_up(workload: &str, send_late_p99_us: f64) -> bool {
    let kept_up = send_late_p99_us <= MAX_SEND_LATE_P99_US;
    if !kept_up {
        eprintln!(
            "benchmark: {workload}: generator ran late (send p99 {send_late_p99_us:.0} us > \
             {MAX_SEND_LATE_P99_US:.0} us); run marked invalid"
        );
    }
    kept_up
}

fn invalid(message: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Outcome counts of a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub answered: u64,
    pub ok: u64,
    pub cached: u64,
    pub coalesced: u64,
    /// `429` answers.
    pub shed: u64,
    /// Answers with any other non-200 code.
    pub errors: u64,
    /// Requests still unanswered when the phase gave up on them.
    pub timeouts: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.ok += other.ok;
        self.cached += other.cached;
        self.coalesced += other.coalesced;
        self.shed += other.shed;
        self.errors += other.errors;
        self.timeouts += other.timeouts;
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts
    }

    fn record(&mut self, answer: &Answer<'_>) {
        self.answered += 1;
        match answer.code {
            code::OK => {
                self.ok += 1;
                self.cached += u64::from(answer.cached);
                self.coalesced += u64::from(answer.coalesced);
            }
            code::SHED => self.shed += 1,
            _ => self.errors += 1,
        }
    }
}

/// The envelope fields of one answer frame.
pub struct Answer<'a> {
    pub id: u64,
    pub code: u16,
    pub cached: bool,
    pub coalesced: bool,
    pub body: Option<Cow<'a, [u8]>>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn rfind(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).rposition(|w| w == needle)
}

fn number_after(text: &[u8], key: &[u8]) -> Option<u64> {
    let start = find(text, key)? + key.len();
    let digits = text[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&text[start..start + digits])
        .ok()?
        .parse()
        .ok()
}

/// Reads an answer frame. A success envelope starts with its body (up to
/// ~400 KB), and the keys after it are read without parsing the body;
/// any other shape takes the full parse.
pub fn parse_answer(line: &[u8]) -> io::Result<Answer<'_>> {
    if let Some(rest) = line.strip_prefix(b"{\"body\":") {
        if let Some(at) = rfind(rest, b",\"cached\":") {
            let tail = &rest[at..];
            if let (Some(id), Some(code)) = (
                number_after(tail, b"\"id\":"),
                number_after(tail, b"\"code\":"),
            ) {
                return Ok(Answer {
                    id,
                    code: u16::try_from(code).map_err(invalid)?,
                    cached: find(tail, b"\"cached\":true").is_some(),
                    coalesced: find(tail, b"\"coalesced\":true").is_some(),
                    body: Some(Cow::Borrowed(&rest[..at])),
                });
            }
        }
    }
    let text = std::str::from_utf8(line).map_err(invalid)?;
    let frame: ResponseFrame = serde_json::from_str(text).map_err(invalid)?;
    Ok(Answer {
        id: frame.id,
        code: frame.code,
        cached: frame.cached,
        coalesced: frame.coalesced,
        body: frame.body.map(|body| {
            Cow::Owned(
                serde_json::to_string(&body)
                    .expect("parsed body serializes")
                    .into_bytes(),
            )
        }),
    })
}

/// A verified-later answer to a unique request.
pub struct Sample {
    pub kind: Kind,
    pub request: String,
    pub answer: Vec<u8>,
}

/// Which answers are compared with the in-process broker after the run,
/// and what was kept for that comparison.
pub struct Checks {
    /// Distinct hot-pool answers per pool index, when pool answers are
    /// checked (they repeat, so a byte comparison finds the new ones).
    pool: Option<Vec<Vec<Vec<u8>>>>,
    /// Every sampled answer to a unique request.
    pub samples: Vec<Sample>,
}

impl Checks {
    pub fn new(check_pool: bool) -> Checks {
        Checks {
            pool: check_pool.then(Vec::new),
            samples: Vec::new(),
        }
    }

    fn observe(&mut self, id: u64, request: &Request, body: &[u8]) {
        match request.kind {
            Kind::Pool(index) => {
                if let Some(pool) = &mut self.pool {
                    if pool.len() <= index {
                        pool.resize_with(index + 1, Vec::new);
                    }
                    if !pool[index].iter().any(|seen| seen.as_slice() == body) {
                        pool[index].push(body.to_vec());
                    }
                }
            }
            kind if kind.unique() && id.is_multiple_of(CHECK_EVERY) => self.samples.push(Sample {
                kind,
                request: request.body().to_owned(),
                answer: body.to_vec(),
            }),
            _ => {}
        }
    }

    /// `(pool index, distinct answer)` pairs seen so far.
    pub fn pool_answers(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.pool
            .iter()
            .flatten()
            .enumerate()
            .flat_map(|(index, seen)| seen.iter().map(move |answer| (index, answer.as_slice())))
    }
}

/// The generator's connections to the daemon.
pub struct Conns(Vec<TcpStream>);

impl Conns {
    pub fn open(addr: SocketAddr) -> io::Result<Conns> {
        (0..CONNECTIONS)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(stream)
            })
            .collect::<io::Result<_>>()
            .map(Conns)
    }

    fn send(&self, conn: usize, bytes: &[u8]) -> io::Result<()> {
        (&self.0[conn]).write_all(bytes)
    }
}

/// Reads answer frames off every connection as they become readable.
struct Reader {
    poller: Poller,
    scanners: Vec<FrameScanner>,
    buf: Vec<u8>,
}

impl Reader {
    fn new(conns: &Conns) -> io::Result<Reader> {
        let mut poller = Poller::new()?;
        for (token, stream) in conns.0.iter().enumerate() {
            poller.register(stream.as_raw_fd(), token as u64, Interest::Read)?;
        }
        Ok(Reader {
            poller,
            scanners: conns
                .0
                .iter()
                .map(|_| FrameScanner::new(MAX_ANSWER_BYTES))
                .collect(),
            buf: vec![0; 256 * 1024],
        })
    }

    /// Waits up to `timeout_ms` for readable connections and hands every
    /// complete answer, with its connection and arrival time, to
    /// `on_answer`.
    fn pump(
        &mut self,
        conns: &Conns,
        timeout_ms: i32,
        mut on_answer: impl FnMut(usize, &[u8], Instant) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut events = Vec::new();
        self.poller.wait(&mut events, Some(timeout_ms))?;
        for event in events {
            let conn = event.token as usize;
            let n = (&conns.0[conn]).read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed a connection",
                ));
            }
            let arrived = Instant::now();
            let scanner = &mut self.scanners[conn];
            scanner.extend(&self.buf[..n]);
            loop {
                match scanner.next_frame() {
                    Scan::Frame(range) => on_answer(conn, &scanner.bytes()[range], arrived)?,
                    Scan::Incomplete => break,
                    Scan::Oversized => return Err(invalid("answer frame over the size cap")),
                }
            }
        }
        Ok(())
    }
}

/// The slot of an answered request, or an error for an id the phase never
/// sent (or already saw answered).
fn slot(id: u64, base_id: u64, answered: &mut [bool]) -> io::Result<usize> {
    let index = id
        .checked_sub(base_id)
        .and_then(|i| usize::try_from(i).ok())
        .filter(|&i| i < answered.len() && !answered[i])
        .ok_or_else(|| invalid(format!("answer for unexpected id {id}")))?;
    answered[index] = true;
    Ok(index)
}

/// Sends fixed `frames` (ids from 0) on the first connection with at
/// most `window` unanswered, and counts the answers.
pub fn windowed(conns: &Conns, frames: &[String], window: usize) -> io::Result<Tally> {
    let mut reader = Reader::new(conns)?;
    let mut answered = vec![false; frames.len()];
    let mut tally = Tally {
        sent: frames.len() as u64,
        ..Tally::default()
    };
    let (mut sent, mut outstanding) = (0, 0);
    let mut progress = Instant::now();
    while sent < frames.len() || outstanding > 0 {
        while sent < frames.len() && outstanding < window {
            conns.send(0, frames[sent].as_bytes())?;
            sent += 1;
            outstanding += 1;
        }
        if progress.elapsed() > GRACE {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "daemon stopped answering",
            ));
        }
        reader.pump(conns, 10, |_, line, arrived| {
            let answer = parse_answer(line)?;
            slot(answer.id, 0, &mut answered)?;
            outstanding -= 1;
            progress = arrived;
            tally.record(&answer);
            Ok(())
        })?;
    }
    Ok(tally)
}

/// Results of an open-loop phase.
pub struct OpenLoop {
    pub tally: Tally,
    /// Per request, intended send to answer; `u64::MAX` for a request that
    /// failed or was never answered (it missed every latency limit).
    pub latency_ns: Vec<u64>,
    /// Per request, how late the writer sent it.
    pub send_late_ns: Vec<u64>,
}

/// Sends `requests` at `offsets_ns` after the phase start (request `i` on
/// connection `i % 2`) and collects their answers.
pub fn open_loop(
    conns: &Conns,
    requests: &[Request],
    offsets_ns: &[u64],
    base_id: u64,
    checks: &mut Checks,
) -> io::Result<OpenLoop> {
    assert_eq!(requests.len(), offsets_ns.len());
    let mut reader = Reader::new(conns)?;
    let mut answered = vec![false; requests.len()];
    let mut latency_ns = vec![u64::MAX; requests.len()];
    let mut tally = Tally {
        sent: requests.len() as u64,
        ..Tally::default()
    };
    let window = Window::default();
    let start = Instant::now();
    let deadline = start + Duration::from_nanos(offsets_ns.last().copied().unwrap_or(0)) + GRACE;
    let send_late_ns = std::thread::scope(|scope| -> io::Result<Vec<u64>> {
        let writer = scope.spawn(|| send_on_schedule(conns, requests, offsets_ns, start, &window));
        let mut outstanding = requests.len();
        let mut read = || -> io::Result<()> {
            while outstanding > 0 && Instant::now() < deadline {
                reader.pump(conns, 10, |_, line, arrived| {
                    let answer = parse_answer(line)?;
                    let index = slot(answer.id, base_id, &mut answered)?;
                    outstanding -= 1;
                    window.answered.fetch_add(1, Ordering::Release);
                    tally.record(&answer);
                    if answer.code == code::OK {
                        let done = (arrived - start).as_nanos() as u64;
                        latency_ns[index] = done.saturating_sub(offsets_ns[index]);
                        let body = answer.body.as_deref().unwrap_or_default();
                        checks.observe(answer.id, &requests[index], body);
                    }
                    Ok(())
                })?;
            }
            Ok(())
        };
        let read = read();
        // The writer may be waiting on answers that will never come.
        window.closed.store(true, Ordering::Release);
        let sent = writer.join().expect("writer thread panicked");
        read?;
        tally.timeouts = outstanding as u64;
        sent
    })?;
    Ok(OpenLoop {
        tally,
        latency_ns,
        send_late_ns,
    })
}

/// What the open-loop reader tells the writer.
#[derive(Default)]
struct Window {
    /// Answers read so far.
    answered: AtomicUsize,
    /// Set when the reader stops, so a writer waiting on answers gives up.
    closed: AtomicBool,
}

/// The writer thread: sleeps until the next request is due, then sends
/// every request due by now, one write per connection, but never more
/// than `MAX_IN_FLIGHT` unanswered. Every request the daemon holds sits in
/// its admission queue or on a worker, so a stall of the daemon or of this
/// writer (on a shared host, tens of ms) can never overflow the queue and
/// shed: the backlog waits here instead, and its lateness, and so latency,
/// still counts from each request's intended send time.
fn send_on_schedule(
    conns: &Conns,
    requests: &[Request],
    offsets_ns: &[u64],
    start: Instant,
    window: &Window,
) -> io::Result<Vec<u64>> {
    const WINDOW_POLL: Duration = Duration::from_micros(50);
    let mut late = Vec::with_capacity(requests.len());
    let mut batches = vec![Vec::new(); CONNECTIONS];
    let mut next = 0;
    while next < requests.len() && !window.closed.load(Ordering::Acquire) {
        let now_ns = start.elapsed().as_nanos() as u64;
        if offsets_ns[next] > now_ns {
            std::thread::sleep(Duration::from_nanos(offsets_ns[next] - now_ns));
            continue;
        }
        let answered = window.answered.load(Ordering::Acquire);
        let window_end = (answered + MAX_IN_FLIGHT).min(requests.len());
        if next >= window_end {
            std::thread::sleep(WINDOW_POLL);
            continue;
        }
        while next < window_end && offsets_ns[next] <= now_ns {
            batches[next % CONNECTIONS].extend_from_slice(requests[next].frame.as_bytes());
            late.push(now_ns - offsets_ns[next]);
            next += 1;
        }
        for (conn, batch) in batches.iter_mut().enumerate() {
            if !batch.is_empty() {
                conns.send(conn, batch)?;
                batch.clear();
            }
        }
    }
    Ok(late)
}

/// Results of a closed-loop phase.
pub struct ClosedLoop {
    pub tally: Tally,
    /// `200` answers that arrived inside the window.
    pub completed: u64,
    pub seconds: f64,
}

/// Keeps `depth` frames from `stream` in flight on every connection for
/// `seconds`, then waits for the stragglers. Ids start at `base_id`.
pub fn closed_loop(
    conns: &Conns,
    stream: &mut Stream,
    depth: usize,
    seconds: f64,
    base_id: u64,
    checks: &mut Checks,
) -> io::Result<ClosedLoop> {
    let mut reader = Reader::new(conns)?;
    let mut requests: Vec<Request> = Vec::new();
    let mut answered: Vec<bool> = Vec::new();
    let mut owed = [depth; CONNECTIONS];
    let mut outstanding = 0usize;
    let mut completed = 0u64;
    let mut tally = Tally::default();
    let mut batch = Vec::new();
    let start = Instant::now();
    let window_end = start + Duration::from_secs_f64(seconds);
    loop {
        let now = Instant::now();
        if now < window_end {
            for (conn, count) in owed.iter_mut().enumerate() {
                batch.clear();
                for _ in 0..*count {
                    let request = stream.next_request(base_id + requests.len() as u64);
                    batch.extend_from_slice(request.frame.as_bytes());
                    requests.push(request);
                    answered.push(false);
                }
                outstanding += *count;
                *count = 0;
                if !batch.is_empty() {
                    conns.send(conn, &batch)?;
                }
            }
        } else if outstanding == 0 || now > window_end + GRACE {
            break;
        }
        reader.pump(conns, 10, |conn, line, arrived| {
            let answer = parse_answer(line)?;
            let index = slot(answer.id, base_id, &mut answered)?;
            outstanding -= 1;
            owed[conn] += 1;
            tally.record(&answer);
            if answer.code == code::OK {
                completed += u64::from(arrived <= window_end);
                let body = answer.body.as_deref().unwrap_or_default();
                checks.observe(answer.id, &requests[index], body);
            }
            Ok(())
        })?;
    }
    tally.sent = requests.len() as u64;
    tally.timeouts = outstanding as u64;
    Ok(ClosedLoop {
        tally,
        completed,
        seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_envelope_is_read_without_parsing_the_body() {
        let line = br#"{"body":{"id":9,"code":1,"cached":true},"cached":false,"coalesced":true,"code":200,"epoch":3,"id":42,"status":"ok","v":1}"#;
        let answer = parse_answer(line).expect("parses");
        assert_eq!((answer.id, answer.code), (42, 200));
        assert!(!answer.cached && answer.coalesced);
        assert_eq!(
            answer.body.as_deref(),
            Some(&br#"{"id":9,"code":1,"cached":true}"#[..])
        );
    }

    #[test]
    fn error_envelope_takes_the_full_parse() {
        let line = br#"{"cached":false,"coalesced":false,"code":429,"epoch":0,"error":"queue full","id":5,"status":"shed","v":1}"#;
        let answer = parse_answer(line).expect("parses");
        assert_eq!((answer.id, answer.code), (5, 429));
        assert!(answer.body.is_none());
    }
}
