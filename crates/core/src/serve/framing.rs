//! Length-prefixed framing for the serve wire protocol.
//!
//! Every frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON. The reader is incremental and zero-copy: it
//! reads straight into one growable buffer (no per-frame allocation),
//! hands frames back as borrowed slices, and never blocks longer than
//! the underlying stream's own timeout. Pipelined frames accumulate in
//! the buffer and drain without touching the socket again — the server
//! uses exactly that to coalesce a whole burst of requests into one
//! prediction batch.
//!
//! The write side is symmetric: [`write_frames_vectored`] emits any
//! number of frames as one vectored write (length prefix and payload are
//! separate iovecs), so a pipelined reply burst costs one syscall and
//! zero payload copies.

use std::io::{self, IoSlice, Read, Write};

/// Frames larger than this are rejected before any allocation of the
/// payload — a garbage or hostile length prefix must not OOM the server.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// How many bytes one [`FrameReader::fill`] call asks the stream for.
const READ_CHUNK: usize = 16 * 1024;

/// Consumed-prefix length beyond which the reader compacts its buffer
/// (memmove) instead of letting it grow unboundedly.
const COMPACT_AT: usize = 8 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream. `clean` is false if it closed
    /// mid-frame (a truncated frame).
    Closed {
        /// True when the stream ended exactly on a frame boundary.
        clean: bool,
    },
    /// The length prefix announced a payload above the configured limit.
    TooLarge {
        /// The announced payload length.
        announced: usize,
        /// The configured maximum.
        max: usize,
    },
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed { clean: true } => write!(f, "peer closed the connection"),
            FrameError::Closed { clean: false } => {
                write!(f, "peer closed the connection mid-frame (truncated frame)")
            }
            FrameError::TooLarge { announced, max } => {
                write!(f, "frame of {announced} bytes exceeds the {max}-byte limit")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// What one [`FrameReader::fill`] call did to the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// New bytes landed in the buffer; frames may now be complete.
    Read(usize),
    /// The read timed out / would block; nothing changed.
    Idle,
}

/// Incremental frame reader: owns the receive buffer for one stream.
///
/// Frames are returned as slices borrowed from the internal buffer
/// ([`FrameReader::next_frame`]); the consumed prefix is reclaimed by
/// periodic compaction, so a long-lived connection settles into a fixed
/// allocation no matter how many frames pass through it.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes buffered but not yet returned as frames.
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Reclaims the consumed prefix: free when the buffer is fully
    /// drained, one memmove otherwise (only once the prefix is worth it).
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
    }

    /// Pulls the next complete frame out of the buffer without I/O.
    /// Returns `Ok(None)` when no complete frame is buffered. The slice
    /// borrows the internal buffer — consume it before the next call.
    pub fn next_frame(&mut self, max_frame: usize) -> Result<Option<&[u8]>, FrameError> {
        let Some(&prefix) = self.buf[self.start..].first_chunk::<4>() else {
            return Ok(None);
        };
        let announced = u32::from_be_bytes(prefix) as usize;
        if announced > max_frame {
            return Err(FrameError::TooLarge {
                announced,
                max: max_frame,
            });
        }
        if self.pending() < 4 + announced {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start = at + announced;
        Ok(Some(&self.buf[at..at + announced]))
    }

    /// Reads once from the stream into the internal buffer (directly —
    /// no bounce copy). `Idle` means the read timed out or would block;
    /// the caller decides whether to retry or act on a shutdown flag.
    pub fn fill<R: Read>(&mut self, stream: &mut R) -> Result<Fill, FrameError> {
        self.compact();
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let result = stream.read(&mut self.buf[len..]);
        match result {
            Ok(n) => {
                self.buf.truncate(len + n);
                if n == 0 {
                    Err(FrameError::Closed {
                        clean: self.pending() == 0,
                    })
                } else {
                    Ok(Fill::Read(n))
                }
            }
            Err(e) => {
                self.buf.truncate(len);
                match e.kind() {
                    io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::Interrupted => Ok(Fill::Idle),
                    _ => Err(FrameError::Io(e)),
                }
            }
        }
    }

    /// Polls for the next frame as an owned buffer. Returns `Ok(None)`
    /// when no complete frame is available yet (short read or read
    /// timeout). Drains pipelined frames before touching the socket.
    pub fn poll_frame<R: Read>(
        &mut self,
        stream: &mut R,
        max_frame: usize,
    ) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(frame) = self.next_frame(max_frame)? {
            return Ok(Some(frame.to_vec()));
        }
        match self.fill(stream)? {
            Fill::Idle => Ok(None),
            Fill::Read(_) => Ok(self.next_frame(max_frame)?.map(<[u8]>::to_vec)),
        }
    }

    /// Blocking convenience: polls until a frame arrives or the stream
    /// fails. Used by clients (loadgen, tests); the server uses the
    /// [`FrameReader::fill`] / [`FrameReader::next_frame`] pair so it can
    /// interleave shutdown checks and batch pipelined frames.
    pub fn read_frame<R: Read>(
        &mut self,
        stream: &mut R,
        max_frame: usize,
    ) -> Result<Vec<u8>, FrameError> {
        loop {
            if let Some(frame) = self.poll_frame(stream, max_frame)? {
                return Ok(frame);
            }
        }
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(stream: &mut W, payload: &[u8]) -> io::Result<()> {
    write_frames_vectored(stream, &[payload])
}

/// Writes every payload as a length-prefixed frame in one vectored
/// write: prefixes and payloads become separate iovecs, so no payload
/// byte is ever copied and a pipelined burst is one syscall on any
/// stream that accepts the full iovec list at once. Partial writes are
/// resumed from the exact byte they stopped at.
pub fn write_frames_vectored<W: Write>(stream: &mut W, payloads: &[&[u8]]) -> io::Result<()> {
    let mut prefixes = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let len = u32::try_from(payload.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32")
        })?;
        prefixes.push(len.to_be_bytes());
    }
    // Interleave prefix/payload spans; skip empty payloads (a zero-length
    // frame is just its prefix).
    let mut spans: Vec<&[u8]> = Vec::with_capacity(payloads.len() * 2);
    for (prefix, payload) in prefixes.iter().zip(payloads) {
        spans.push(prefix);
        if !payload.is_empty() {
            spans.push(payload);
        }
    }
    let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(spans.len());
    let mut span = 0;
    let mut offset = 0;
    while span < spans.len() {
        iov.clear();
        iov.push(IoSlice::new(&spans[span][offset..]));
        iov.extend(spans[span + 1..].iter().map(|s| IoSlice::new(s)));
        let mut n = match stream.write_vectored(&iov) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "stream accepted no bytes",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 {
            let remaining = spans[span].len() - offset;
            if n >= remaining {
                n -= remaining;
                span += 1;
                offset = 0;
            } else {
                offset += n;
                n = 0;
            }
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_including_pipelined() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"a\":1}").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(wire);
        assert_eq!(
            reader.read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            b"{\"a\":1}"
        );
        // The second frame was already buffered; no further read needed.
        assert_eq!(
            reader.next_frame(DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"second"
        );
    }

    #[test]
    fn truncated_frame_reports_unclean_close() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello world").unwrap();
        wire.truncate(wire.len() - 3);
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(wire);
        match reader.read_frame(&mut cursor, DEFAULT_MAX_FRAME) {
            Err(FrameError::Closed { clean: false }) => {}
            other => panic!("expected unclean close, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_between_frames() {
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(Vec::new());
        match reader.read_frame(&mut cursor, DEFAULT_MAX_FRAME) {
            Err(FrameError::Closed { clean: true }) => {}
            other => panic!("expected clean close, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // 256 MiB announced against a 1 MiB cap: must fail from the
        // header alone, with no payload bytes present.
        let wire = (256u32 << 20).to_be_bytes().to_vec();
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(wire);
        match reader.read_frame(&mut cursor, DEFAULT_MAX_FRAME) {
            Err(FrameError::TooLarge { announced, max }) => {
                assert_eq!(announced, 256 << 20);
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow").unwrap();
        let mut reader = FrameReader::new();
        let mut got = None;
        for byte in wire {
            let mut one = Cursor::new(vec![byte]);
            if let Some(frame) = reader.poll_frame(&mut one, DEFAULT_MAX_FRAME).unwrap() {
                got = Some(frame);
            }
        }
        assert_eq!(got.as_deref(), Some(b"slow".as_slice()));
    }

    #[test]
    fn vectored_write_emits_every_frame_in_order() {
        let payloads: Vec<Vec<u8>> = (0..5).map(|i| format!("frame-{i}").into_bytes()).collect();
        let spans: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut wire = Vec::new();
        write_frames_vectored(&mut wire, &spans).unwrap();
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(wire);
        for want in &payloads {
            assert_eq!(
                &reader.read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
                want
            );
        }
    }

    /// A writer that accepts at most 3 bytes per call, forcing the
    /// vectored path through every partial-write resume case (mid-prefix,
    /// mid-payload, across span boundaries).
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let payloads: Vec<Vec<u8>> = vec![
            b"abcdefgh".to_vec(),
            Vec::new(),
            b"0123456789abcdef".to_vec(),
        ];
        let spans: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut trickle = Trickle(Vec::new());
        write_frames_vectored(&mut trickle, &spans).unwrap();
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(trickle.0);
        for want in &payloads {
            assert_eq!(
                &reader.read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
                want
            );
        }
    }

    #[test]
    fn long_lived_reader_compacts_instead_of_growing() {
        let mut reader = FrameReader::new();
        let payload = vec![7u8; 1024];
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for _ in 0..200 {
            let mut cursor = Cursor::new(wire.clone());
            let got = reader.read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(got, payload);
        }
        // 200 KiB of traffic must not leave a 200 KiB buffer behind.
        assert!(
            reader.buf.capacity() < 64 * 1024,
            "reader buffer grew to {} bytes",
            reader.buf.capacity()
        );
    }
}
