//! Newline-delimited framing over arbitrary byte streams.
//!
//! One frame is one JSON document followed by `\n` (an optional `\r` before
//! the newline is tolerated, so `telnet`-style clients work). Compact JSON
//! never contains a raw newline — control characters are escaped — so the
//! framing needs no length prefix and stays trivially debuggable.
//!
//! [`FrameReader`] enforces the two limits the threat model for untrusted
//! peers requires: a maximum frame size (memory bound) and a per-frame
//! deadline (liveness bound). Deadlines work by setting a short read timeout
//! on the underlying stream and counting ticks here, which also lets a
//! server poll its shutdown flag between ticks.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Default maximum frame size (1 MiB): far above any legitimate tool
/// payload, far below anything that could exhaust server memory per peer.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Why reading a frame failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the stream between frames (clean EOF).
    Closed,
    /// The stream ended in the middle of a frame.
    TruncatedEof,
    /// More than the configured limit arrived without a newline.
    TooLarge {
        /// The configured frame-size limit in bytes.
        limit: usize,
    },
    /// The per-frame deadline elapsed before a full frame arrived.
    Timeout {
        /// The deadline that was exceeded.
        deadline: Duration,
    },
    /// The frame was not valid UTF-8.
    InvalidUtf8,
    /// Any other I/O failure, stringified.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TruncatedEof => write!(f, "stream ended mid-frame"),
            FrameError::TooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Timeout { deadline } => {
                write!(f, "no complete frame within {}ms", deadline.as_millis())
            }
            FrameError::InvalidUtf8 => write!(f, "frame is not valid UTF-8"),
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Bytes asked of the stream per read. A reply of a few kilobytes arrives
/// in one read, and a large one in a few dozen.
const SCRATCH_BYTES: usize = 64 << 10;

/// Buffered reader that yields newline-delimited frames with size and
/// deadline limits. Bytes past a frame boundary are kept for the next call,
/// so pipelined frames are handled correctly.
///
/// Reading a frame is linear in its length: every byte is searched for the
/// newline once (`scanned` remembers how far), and the bytes that make up
/// the frame are moved out of the buffer, not copied. Memory is bounded by
/// `max_frame` plus one scratch.
pub struct FrameReader<R: Read> {
    inner: R,
    /// Bytes received and not yet handed out as a frame.
    buf: Vec<u8>,
    /// `buf[..scanned]` is known to hold no newline.
    scanned: usize,
    /// Where `read` puts its bytes before they are appended to `buf`;
    /// allocated once, so a read costs no zeroing.
    scratch: Box<[u8]>,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a stream; frames longer than `max_frame` bytes are rejected.
    pub fn new(inner: R, max_frame: usize) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            scratch: vec![0; SCRATCH_BYTES].into_boxed_slice(),
            max_frame,
        }
    }

    /// Bytes buffered toward an incomplete frame. Lets callers distinguish
    /// an idle peer (nothing buffered at timeout) from a slow-loris one.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Read one frame.
    ///
    /// `deadline` bounds the wall-clock wait for a complete frame; it only
    /// has effect when the underlying stream returns `WouldBlock`/`TimedOut`
    /// periodically (i.e. a socket with a short read timeout) — a fully
    /// blocking stream (stdio) simply blocks until data or EOF. When `stop`
    /// is set the reader returns [`FrameError::Closed`] at the next tick,
    /// which is how server connections notice graceful shutdown.
    pub fn read_frame(
        &mut self,
        deadline: Option<Duration>,
        stop: Option<&AtomicBool>,
    ) -> Result<String, FrameError> {
        let start = Instant::now();
        loop {
            let newline = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
            if let Some(offset) = newline {
                return self.take_frame(self.scanned + offset);
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max_frame {
                return Err(FrameError::TooLarge {
                    limit: self.max_frame,
                });
            }
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return Err(FrameError::Closed);
            }
            if let Some(deadline) = deadline {
                if start.elapsed() >= deadline {
                    return Err(FrameError::Timeout { deadline });
                }
            }
            match self.inner.read(&mut self.scratch) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        FrameError::Closed
                    } else {
                        FrameError::TruncatedEof
                    });
                }
                Ok(n) => self.buf.extend_from_slice(&self.scratch[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    // A tick: loop back to re-check stop flag and deadline.
                }
                Err(e) => return Err(FrameError::Io(e.to_string())),
            }
        }
    }

    /// Hand out the frame that ends at the newline at `buf[pos]` and keep
    /// what follows it. The frame keeps the buffer's allocation; only the
    /// bytes after the newline (none, unless the peer pipelines) are copied.
    fn take_frame(&mut self, pos: usize) -> Result<String, FrameError> {
        let rest = self.buf.split_off(pos + 1);
        let mut frame = std::mem::replace(&mut self.buf, rest);
        self.scanned = 0;
        if pos > self.max_frame {
            return Err(FrameError::TooLarge {
                limit: self.max_frame,
            });
        }
        frame.pop();
        if frame.last() == Some(&b'\r') {
            frame.pop();
        }
        String::from_utf8(frame).map_err(|_| FrameError::InvalidUtf8)
    }
}

/// Write one frame: the text, a newline, and a flush. `frame` must not
/// contain a raw newline (compact JSON never does). The newline is appended
/// to the frame itself, so the payload and the delimiter go out in a single
/// write without being copied — two small writes on a TCP stream interact
/// with Nagle + delayed ACK and cost tens of milliseconds per frame.
pub fn write_frame<W: Write>(writer: &mut W, mut frame: String) -> io::Result<()> {
    debug_assert!(!frame.contains('\n'), "frames are single-line");
    frame.push('\n');
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(data: &str, max: usize) -> FrameReader<Cursor<Vec<u8>>> {
        FrameReader::new(Cursor::new(data.as_bytes().to_vec()), max)
    }

    #[test]
    fn splits_pipelined_frames() {
        let mut r = reader("{\"a\":1}\n{\"b\":2}\r\n", 64);
        assert_eq!(r.read_frame(None, None).unwrap(), "{\"a\":1}");
        assert_eq!(r.read_frame(None, None).unwrap(), "{\"b\":2}");
        assert_eq!(r.read_frame(None, None), Err(FrameError::Closed));
    }

    /// Hands out `data` in pieces of the given sizes (the last size
    /// repeats), whatever buffer the reader offers.
    struct Pieces {
        data: Vec<u8>,
        at: usize,
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Pieces {
        fn new(data: impl Into<Vec<u8>>, sizes: &[usize]) -> Self {
            Pieces {
                data: data.into(),
                at: 0,
                sizes: sizes.to_vec(),
                reads: 0,
            }
        }
    }

    impl Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads.min(self.sizes.len() - 1)];
            self.reads += 1;
            let n = size.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_frame_split_at_every_byte_offset_reads_the_same() {
        let stream = "{\"a\":\"é😀\"}\r\n{\"b\":2}\n";
        for split in 1..stream.len() {
            let mut r = FrameReader::new(Pieces::new(stream, &[split, usize::MAX]), 64);
            assert_eq!(
                r.read_frame(None, None).unwrap(),
                "{\"a\":\"é😀\"}",
                "{split}"
            );
            assert_eq!(r.read_frame(None, None).unwrap(), "{\"b\":2}", "{split}");
            assert_eq!(r.read_frame(None, None), Err(FrameError::Closed));
        }
        // And a byte at a time.
        let mut r = FrameReader::new(Pieces::new(stream, &[1]), 64);
        assert_eq!(r.read_frame(None, None).unwrap(), "{\"a\":\"é😀\"}");
        assert_eq!(r.read_frame(None, None).unwrap(), "{\"b\":2}");
    }

    #[test]
    fn several_frames_in_one_read_come_out_one_by_one() {
        let mut source = Pieces::new("1\n22\n\n333\r\n4", &[usize::MAX]);
        let mut r = FrameReader::new(&mut source, 64);
        for want in ["1", "22", "", "333"] {
            assert_eq!(r.read_frame(None, None).unwrap(), want);
        }
        assert_eq!(r.pending_bytes(), 1);
        assert_eq!(r.read_frame(None, None), Err(FrameError::TruncatedEof));
        // One read delivered everything; the second saw the end of input.
        assert_eq!(source.reads, 2);
    }

    #[test]
    fn a_frame_longer_than_the_scratch_is_assembled_across_reads() {
        let long = "x".repeat(3 * SCRATCH_BYTES + 17);
        let stream = format!("{long}\nnext\n");
        let mut r = FrameReader::new(Pieces::new(stream, &[usize::MAX]), 4 * SCRATCH_BYTES);
        assert_eq!(r.read_frame(None, None).unwrap(), long);
        assert_eq!(r.read_frame(None, None).unwrap(), "next");
    }

    /// A peer that dribbles a large frame a byte per read: a reader that
    /// searched its whole buffer after every read would compare 2^35 bytes
    /// here; one that remembers how far it has searched compares 2^18.
    #[test]
    fn a_dribbled_frame_is_searched_once_not_once_per_read() {
        let long = "x".repeat(1 << 18);
        let mut r = FrameReader::new(Pieces::new(format!("{long}\n"), &[1]), 1 << 20);
        let start = Instant::now();
        assert_eq!(r.read_frame(None, None).unwrap(), long);
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn a_stream_that_never_sends_a_newline_is_cut_off_with_bounded_memory() {
        let max = 100_000;
        let mut r = FrameReader::new(io::repeat(b'x'), max);
        assert_eq!(
            r.read_frame(None, None),
            Err(FrameError::TooLarge { limit: max })
        );
        assert!(r.pending_bytes() > max);
        assert!(r.pending_bytes() <= max + SCRATCH_BYTES);
    }

    #[test]
    fn oversize_frame_rejected_with_bounded_memory() {
        let long = "x".repeat(100);
        let mut r = reader(&format!("{long}\n"), 10);
        assert_eq!(
            r.read_frame(None, None),
            Err(FrameError::TooLarge { limit: 10 })
        );
    }

    #[test]
    fn eof_mid_frame_is_truncation() {
        let mut r = reader("{\"unterminated\"", 64);
        assert_eq!(r.read_frame(None, None), Err(FrameError::TruncatedEof));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut r = FrameReader::new(Cursor::new(vec![0xff, 0xfe, b'\n']), 64);
        assert_eq!(r.read_frame(None, None), Err(FrameError::InvalidUtf8));
    }

    #[test]
    fn stop_flag_reads_as_closed() {
        struct Pending;
        impl Read for Pending {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::WouldBlock))
            }
        }
        let stop = AtomicBool::new(true);
        let mut r = FrameReader::new(Pending, 64);
        assert_eq!(r.read_frame(None, Some(&stop)), Err(FrameError::Closed));
    }

    #[test]
    fn deadline_fires_on_slow_stream() {
        struct Slow;
        impl Read for Slow {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                std::thread::sleep(Duration::from_millis(5));
                Err(io::Error::from(io::ErrorKind::TimedOut))
            }
        }
        let mut r = FrameReader::new(Slow, 64);
        let err = r
            .read_frame(Some(Duration::from_millis(20)), None)
            .unwrap_err();
        assert!(matches!(err, FrameError::Timeout { .. }));
    }

    #[test]
    fn write_frame_appends_newline() {
        let mut out = Vec::new();
        write_frame(&mut out, "{\"x\":1}".to_owned()).unwrap();
        assert_eq!(out, b"{\"x\":1}\n");
    }
}
