//! The benchmark's TCP client for `dvfs serve`.
//!
//! Open loop: one thread sends each request at its due time from a seeded
//! schedule, whatever the replies are doing, while a second thread reads
//! every reply as it arrives and times it from the request's *due* time.
//! A stall therefore charges its wait to every request queued behind it,
//! and the sender's own lateness (also reported) enters every sample. One
//! connection and two threads, within the two-core box the daemon shares.

use gpu_dvfs::core::serve::framing::{Fill, FrameReader, DEFAULT_MAX_FRAME};
use gpu_dvfs::core::serve::protocol::fast;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A request still unanswered this long after it was due (and after the
/// last reply) has timed out; it and every later request count as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// Socket read timeout: how often a waiting reader checks for a timeout.
const READ_POLL: Duration = Duration::from_millis(50);
/// A write blocked this long (a daemon that stopped reading) fails the
/// phase instead of hanging the run.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Failure reasons kept per phase (the count is always exact).
const MAX_REASONS: usize = 4;

/// One phase's requests, framed before the clock starts.
pub struct Phase {
    /// Every request frame (length prefix + payload), back to back.
    frames: Vec<u8>,
    /// Frame `i` is `frames[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Due send time of each request, ns after the phase starts.
    due_ns: Vec<u64>,
    /// The workload name each reply must echo, in request order.
    names: Vec<String>,
    /// Request indices whose raw replies are kept for the oracle (sorted).
    keep: Vec<usize>,
}

impl Phase {
    pub fn new(
        payloads: &[Vec<u8>],
        names: Vec<String>,
        due_ns: Vec<u64>,
        keep: Vec<usize>,
    ) -> Self {
        assert_eq!(payloads.len(), due_ns.len(), "one due time per request");
        assert_eq!(payloads.len(), names.len(), "one name per request");
        let mut frames = Vec::new();
        let mut offsets = vec![0];
        for p in payloads {
            push_frame(&mut frames, p);
            offsets.push(frames.len());
        }
        Self {
            frames,
            offsets,
            due_ns,
            names,
            keep,
        }
    }

    pub fn len(&self) -> usize {
        self.due_ns.len()
    }
}

fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("request frames are small");
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// What one open-loop phase saw.
#[derive(Debug, Default)]
pub struct Outcome {
    pub sent: usize,
    /// Replies read off the connection, good or bad. Fewer than `sent`
    /// means the rest timed out or the stream failed, and their replies
    /// may still be in flight.
    pub answered: usize,
    pub ok: usize,
    /// Bad replies plus unanswered requests.
    pub failed: usize,
    /// Per request, µs from due time to reply; infinite for a failed or
    /// unanswered request, so it misses every latency limit.
    pub latency_us: Vec<f64>,
    /// Per request, µs the sender ran behind the due time.
    pub late_us: Vec<f64>,
    /// Raw replies of the kept requests.
    pub kept: Vec<(usize, Vec<u8>)>,
    pub reasons: Vec<String>,
}

/// A connection to the daemon.
pub struct Session {
    stream: TcpStream,
    reader: FrameReader,
}

impl Session {
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
        })
    }

    fn read_frame(&mut self, timeout: Duration) -> io::Result<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.reader.next_frame(DEFAULT_MAX_FRAME).map_err(to_io)? {
                return Ok(frame.to_vec());
            }
            if let Fill::Idle = self.reader.fill(&mut &self.stream).map_err(to_io)? {
                if Instant::now() > deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
                }
            }
        }
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let mut frame = Vec::with_capacity(payload.len() + 4);
        push_frame(&mut frame, payload);
        (&self.stream).write_all(&frame)?;
        self.read_frame(REPLY_TIMEOUT * 5)
    }

    /// Closed loop with `window` requests in flight; fails on any reply
    /// that is not `ok`. Used for warm-up, never for timing.
    pub fn closed_loop(&mut self, payloads: &[Vec<u8>], window: usize) -> io::Result<()> {
        for chunk in payloads.chunks(window.max(1)) {
            let mut burst = Vec::new();
            for p in chunk {
                push_frame(&mut burst, p);
            }
            (&self.stream).write_all(&burst)?;
            for _ in chunk {
                let reply = self.read_frame(REPLY_TIMEOUT * 5)?;
                if !matches!(fast::scan_reply(&reply), Some((true, _))) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("warm-up reply not ok: {}", snippet(&reply)),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Runs one open-loop phase to completion: every request is sent at its
    /// due time and every reply read, checked and timed as it arrives.
    pub fn open_loop(&mut self, phase: &Phase) -> Outcome {
        // A short lead so the reader is parked in `read` before the first
        // request is due.
        let start = Instant::now() + Duration::from_millis(2);
        let stream = &self.stream;
        let reader = &mut self.reader;
        let (late, send_error, mut out) = std::thread::scope(|s| {
            let replies = s.spawn(move || read_replies(stream, reader, start, phase));
            let (late, send_error) = send_all(stream, start, phase);
            (
                late,
                send_error,
                replies.join().expect("reply reader panicked"),
            )
        });
        out.sent = late.len();
        out.late_us = late;
        if let Some(e) = send_error {
            out.reasons.insert(0, format!("send failed: {e}"));
        }
        out
    }
}

fn to_io(e: gpu_dvfs::core::serve::FrameError) -> io::Error {
    match e {
        gpu_dvfs::core::serve::FrameError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Whether `frame` is an `ok` predict/select reply whose profile echoes
/// `name`. Reads only the reply's fixed head and tail (the profile's
/// workload name sits within its first bytes), so checking every reply
/// costs the client little CPU on a box it shares with the daemon.
fn reply_matches(frame: &[u8], name: &str) -> bool {
    const OK: &[u8] = b"{\"ok\":true,";
    const MARK: &[u8] = b",\"profile\":{\"workload\":\"";
    if !frame.starts_with(OK) || !frame.ends_with(fast::RESPONSE_TAIL) {
        return false;
    }
    let head = &frame[..frame.len().min(128)];
    let Some(at) = head.windows(MARK.len()).position(|w| w == MARK) else {
        return false;
    };
    let rest = &frame[at + MARK.len()..];
    rest.starts_with(name.as_bytes()) && rest.get(name.len()) == Some(&b'"')
}

fn snippet(bytes: &[u8]) -> String {
    String::from_utf8_lossy(&bytes[..bytes.len().min(160)]).into_owned()
}

/// Sends every request at (or as soon as possible after) its due time;
/// requests already due go out together in one write. Returns each sent
/// request's lateness in µs and the write error that stopped it, if any.
fn send_all(
    mut stream: &TcpStream,
    start: Instant,
    phase: &Phase,
) -> (Vec<f64>, Option<io::Error>) {
    let n = phase.len();
    let mut late = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        let due = start + Duration::from_nanos(phase.due_ns[i]);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            continue;
        }
        let now_ns = now.duration_since(start).as_nanos() as u64;
        let mut j = i;
        while j < n && phase.due_ns[j] <= now_ns {
            late.push((now_ns - phase.due_ns[j]) as f64 / 1e3);
            j += 1;
        }
        if let Err(e) = stream.write_all(&phase.frames[phase.offsets[i]..phase.offsets[j]]) {
            late.truncate(i);
            return (late, Some(e));
        }
        i = j;
    }
    (late, None)
}

/// Reads replies in order until all arrived, the stream failed, or the
/// next one timed out. A reply counts only if it is `ok` and echoes its
/// request's workload name (replies must come back in request order).
fn read_replies(
    mut stream: &TcpStream,
    reader: &mut FrameReader,
    start: Instant,
    phase: &Phase,
) -> Outcome {
    let n = phase.len();
    let mut out = Outcome {
        latency_us: vec![f64::INFINITY; n],
        ..Outcome::default()
    };
    let mut keep = phase.keep.iter().copied().peekable();
    let mut last_reply = Instant::now();
    let mut k = 0;
    'replies: while k < n {
        loop {
            match reader.next_frame(DEFAULT_MAX_FRAME) {
                Ok(Some(frame)) => {
                    let t_ns = start.elapsed().as_nanos() as u64;
                    let good = reply_matches(frame, &phase.names[k]);
                    if good {
                        out.ok += 1;
                        out.latency_us[k] = t_ns.saturating_sub(phase.due_ns[k]) as f64 / 1e3;
                    } else {
                        out.failed += 1;
                        if out.reasons.len() < MAX_REASONS {
                            out.reasons.push(format!(
                                "request {k} ({}): {}",
                                phase.names[k],
                                snippet(frame)
                            ));
                        }
                    }
                    if keep.peek() == Some(&k) {
                        out.kept.push((k, frame.to_vec()));
                        keep.next();
                    }
                    k += 1;
                    last_reply = Instant::now();
                    if k == n {
                        break 'replies;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    out.reasons.push(format!("bad frame: {e}"));
                    break 'replies;
                }
            }
        }
        match reader.fill(&mut stream) {
            Ok(Fill::Read(_)) => {}
            Ok(Fill::Idle) => {
                let due = start + Duration::from_nanos(phase.due_ns[k]);
                if Instant::now().saturating_duration_since(last_reply.max(due)) > REPLY_TIMEOUT {
                    out.reasons.push(format!("request {k} timed out"));
                    break;
                }
            }
            Err(e) => {
                out.reasons.push(format!("read failed: {e}"));
                break;
            }
        }
    }
    out.answered = k;
    out.failed += n - k;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;
    use gpu_dvfs::core::predictor::PredictedProfile;
    use gpu_dvfs::core::serve::Response;
    use std::net::TcpListener;

    /// Serves `n` requests one at a time: each reply leaves `delay` after
    /// its request was read, except request `stall_at`, which waits `stall`.
    /// Requests from `answer` on are read but never answered; the stub then
    /// holds the connection until the client hangs up.
    fn stub(
        listener: TcpListener,
        n: usize,
        answer: usize,
        delay: Duration,
        stall_at: usize,
        stall: Duration,
    ) {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).expect("nodelay");
        let mut reader = FrameReader::new();
        for i in 0..n {
            let frame = reader
                .read_frame(&mut s, DEFAULT_MAX_FRAME)
                .expect("request");
            if i >= answer {
                continue;
            }
            std::thread::sleep(if i == stall_at { stall } else { delay });
            let req = fast::parse_request(&frame).expect("canonical request");
            let mut resp = Response::ok(1);
            resp.profile = Some(PredictedProfile::new(
                req.workload.expect("named"),
                vec![1410.0],
                vec![250.0],
                vec![1.0],
            ));
            let mut payload = Vec::new();
            assert!(fast::write_response(&mut payload, &resp));
            let mut frame = Vec::new();
            push_frame(&mut frame, &payload);
            s.write_all(&frame).expect("reply");
        }
        let _ = std::io::copy(&mut s, &mut std::io::sink());
    }

    fn phase(n: usize, gap_ms: u64, keep: Vec<usize>) -> (Vec<crate::stream::Req>, Phase) {
        let reqs = crate::stream::Source::new(crate::stream::Workload::HotRepeat, 1).take(n);
        let payloads: Vec<Vec<u8>> = reqs.iter().map(|r| r.payload()).collect();
        let names = reqs.iter().map(|r| r.name.clone()).collect();
        let due = (0..n as u64).map(|i| i * gap_ms * 1_000_000).collect();
        let phase = Phase::new(&payloads, names, due, keep);
        (reqs, phase)
    }

    #[test]
    fn stub_delay_is_the_median_and_a_stall_shows_in_the_tail() {
        const N: usize = 200;
        const GAP_MS: u64 = 5;
        let delay = Duration::from_millis(2);
        let stall = Duration::from_millis(60);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || stub(listener, N, N, delay, N / 2, stall));

        let (reqs, phase) = phase(N, GAP_MS, vec![0, N - 1]);
        let mut session = Session::connect(&addr).expect("connect");
        let out = session.open_loop(&phase);
        drop(session);
        server.join().expect("stub");

        assert_eq!(
            (out.sent, out.answered, out.ok, out.failed),
            (N, N, N, 0),
            "{:?}",
            out.reasons
        );
        assert_eq!(out.kept.len(), 2);
        assert!(reply_matches(&out.kept[0].1, &reqs[0].name));
        assert!(!reply_matches(&out.kept[0].1, &reqs[1].name));
        assert!(!reply_matches(&out.kept[0].1, "app"));
        let mut lat = out.latency_us.clone();
        let p50 = quantile(&mut lat, 0.5);
        let delay_us = delay.as_micros() as f64;
        assert!(
            (delay_us..delay_us + 1500.0).contains(&p50),
            "p50 {p50} µs should be the stub's {delay_us} µs delay"
        );
        // The stall holds up the requests due while it lasts: their time
        // from due counts the backlog, so the tail shows far more than the
        // one stalled request.
        let p99 = quantile(&mut lat, 0.99);
        assert!(p99 >= 40_000.0, "p99 {p99} µs should show the 60 ms stall");
        let backlogged = out.latency_us.iter().filter(|&&l| l >= 10_000.0).count();
        assert!(
            backlogged >= 8,
            "only {backlogged} requests saw the backlog"
        );
    }

    #[test]
    fn an_unanswered_request_times_out_and_is_not_counted_as_answered() {
        const N: usize = 20;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server =
            std::thread::spawn(move || stub(listener, N, N - 1, Duration::ZERO, N, Duration::ZERO));
        let (_, phase) = phase(N, 1, Vec::new());
        let mut session = Session::connect(&addr).expect("connect");
        let out = session.open_loop(&phase);
        drop(session);
        server.join().expect("stub");

        assert_eq!(
            (out.sent, out.answered, out.ok, out.failed),
            (N, N - 1, N - 1, 1)
        );
        assert!(out.latency_us[N - 1].is_infinite());
        assert!(
            out.reasons.iter().any(|r| r.contains("timed out")),
            "{:?}",
            out.reasons
        );
    }
}
