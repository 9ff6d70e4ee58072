//! Per-connection buffering for the newline-JSON protocol — the pure,
//! unit-testable half of the reactor.
//!
//! [`LineBuffer`] reassembles request lines from arbitrary `read()`
//! fragments (a newline may land anywhere, including mid-UTF-8);
//! [`WriteQueue`] absorbs responses and drains them through short
//! writes and `WouldBlock` without losing bytes or reordering them.
//! Neither touches a socket: the event loop feeds them chunks, the
//! tests feed them adversarial ones.

use std::collections::VecDeque;
use std::io::{self, Write};

/// A request line exceeded the configured maximum without a newline —
/// the connection is hostile or confused and should be closed after an
/// error response.
#[derive(Debug, PartialEq, Eq)]
pub struct LineTooLong {
    pub limit: usize,
}

impl std::fmt::Display for LineTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request line exceeds {} bytes without a newline",
            self.limit
        )
    }
}

/// Reassembles `\n`-terminated lines from read fragments. The line
/// limit bounds the unterminated tail; complete lines stay until the
/// first push after they are popped. Every byte is scanned for a newline
/// once when it is pushed and once more when its line is popped, so an
/// unterminated line that grows across many reads costs time linear in
/// its length.
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Start of the unpopped bytes: everything before it belongs to lines
    /// already returned by [`LineBuffer::next_line`].
    head: usize,
    /// Start of the unterminated tail: one past the last newline in
    /// `buf`, or `head` when there is none.
    tail: usize,
    max_line: usize,
}

impl LineBuffer {
    pub fn new(max_line: usize) -> LineBuffer {
        LineBuffer {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            max_line,
        }
    }

    /// Appends one read fragment. Fails if the pending unterminated data
    /// would exceed the line limit (complete lines are only bounded by
    /// the same limit, since they drain immediately).
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), LineTooLong> {
        // Drop the lines already popped. Only the unpopped rest moves:
        // for a caller that pops every complete line between pushes,
        // that is at most the part of one read after its last newline.
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.tail -= self.head;
            self.head = 0;
        }
        // Only the tail *after the last newline* counts against the
        // limit: everything before it will drain as complete lines.
        if let Some(pos) = chunk.iter().rposition(|&b| b == b'\n') {
            self.tail = self.buf.len() + pos + 1;
        }
        self.buf.extend_from_slice(chunk);
        if self.buf.len() - self.tail > self.max_line {
            return Err(LineTooLong {
                limit: self.max_line,
            });
        }
        Ok(())
    }

    /// Pops the next complete line (without its newline), decoding
    /// lossily — the protocol layer reports bad JSON on mojibake, which
    /// is the right error for a non-UTF-8 client.
    pub fn next_line(&mut self) -> Option<String> {
        let complete = &self.buf[self.head..self.tail];
        let len = complete.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&complete[..len]).into_owned();
        self.head += len + 1;
        Some(line)
    }

    /// True when bytes of an unterminated line are pending — the state
    /// the slow-loris timeout watches.
    pub fn has_partial(&self) -> bool {
        self.tail < self.buf.len()
    }
}

/// An outgoing byte queue that survives partial writes.
#[derive(Default)]
pub struct WriteQueue {
    buf: VecDeque<u8>,
}

impl WriteQueue {
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    pub fn enqueue(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes);
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Writes as much as the sink accepts. Returns `Ok(true)` when the
    /// queue fully drained, `Ok(false)` when the sink pushed back with
    /// `WouldBlock` (re-arm write interest and come back later). Short
    /// writes just advance the queue; `Interrupted` retries in place.
    pub fn flush_into(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        while !self.buf.is_empty() {
            let (front, _) = self.buf.as_slices();
            match sink.write(front) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection sink accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn lines_reassemble_across_arbitrary_fragment_boundaries() {
        let mut lb = LineBuffer::new(1024);
        // A newline split from its line, a line split mid-byte, and two
        // lines arriving in one fragment.
        lb.push(b"{\"cmd\":\"sta").unwrap();
        assert_eq!(lb.next_line(), None);
        assert!(lb.has_partial());
        lb.push(b"ts\"}").unwrap();
        assert_eq!(lb.next_line(), None);
        lb.push(b"\n").unwrap();
        assert_eq!(lb.next_line().as_deref(), Some("{\"cmd\":\"stats\"}"));
        assert_eq!(lb.next_line(), None);
        assert!(!lb.has_partial());

        lb.push(b"first\nsecond\nthird").unwrap();
        assert_eq!(lb.next_line().as_deref(), Some("first"));
        assert_eq!(lb.next_line().as_deref(), Some("second"));
        assert_eq!(lb.next_line(), None);
        assert!(lb.has_partial());
        lb.push(b"\n").unwrap();
        assert_eq!(lb.next_line().as_deref(), Some("third"));
    }

    #[test]
    fn byte_at_a_time_delivery_works() {
        let mut lb = LineBuffer::new(64);
        for b in b"{\"cmd\":\"stats\"}\n" {
            lb.push(&[*b]).unwrap();
        }
        assert_eq!(lb.next_line().as_deref(), Some("{\"cmd\":\"stats\"}"));
    }

    #[test]
    fn an_unterminated_line_over_the_limit_is_rejected() {
        let mut lb = LineBuffer::new(16);
        lb.push(b"0123456789").unwrap();
        assert_eq!(lb.push(b"0123456789"), Err(LineTooLong { limit: 16 }));

        // Complete lines of any count pass through the same limit window.
        let mut lb = LineBuffer::new(16);
        lb.push(b"aaaa\nbbbb\ncccc\ndddd\n").unwrap();
        assert_eq!(lb.next_line().as_deref(), Some("aaaa"));
    }

    #[test]
    fn an_overlong_line_is_rejected_in_time_linear_in_its_length() {
        // The production limit, fed the way the reactor reads: 16 KiB at
        // a time, with a poll for complete lines and the slow-loris
        // sweep's check after every read.
        let max_line = crate::reactor::ReactorConfig::default().max_line;
        let read = vec![b'x'; 16 * 1024];
        let bound = Duration::from_secs(5);
        let start = Instant::now();
        let mut lb = LineBuffer::new(max_line);
        let mut fed = 0;
        while fed <= max_line {
            let n = read.len().min(max_line + 1 - fed);
            let pushed = lb.push(&read[..n]);
            fed += n;
            if fed <= max_line {
                assert_eq!(pushed, Ok(()));
                assert!(lb.has_partial());
            } else {
                assert_eq!(pushed, Err(LineTooLong { limit: max_line }));
            }
            assert_eq!(lb.next_line(), None);
            assert!(
                start.elapsed() < bound,
                "{fed} of {} bytes took over {bound:?}",
                max_line + 1
            );
        }
    }

    #[test]
    fn popped_lines_make_room_without_reordering_the_tail() {
        let mut lb = LineBuffer::new(8);
        lb.push(b"aaaaaaa\nbb").unwrap();
        assert_eq!(lb.next_line().as_deref(), Some("aaaaaaa"));
        assert!(lb.has_partial());
        // The 2-byte tail outlives the popped line: 6 more bytes fill it
        // to the limit, and the newline completes it.
        lb.push(b"bbbbbb").unwrap();
        lb.push(b"\ncc").unwrap();
        assert_eq!(lb.next_line().as_deref(), Some("bbbbbbbb"));
        assert_eq!(lb.next_line(), None);
        assert!(lb.has_partial());
        // The new 2-byte tail plus 7 bytes passes the limit.
        assert_eq!(lb.push(b"ccccccc"), Err(LineTooLong { limit: 8 }));
    }

    /// A sink that accepts at most `cap` bytes per write and can be told
    /// to push back with `WouldBlock` — a full kernel socket buffer in
    /// miniature.
    struct ThrottledSink {
        accepted: Vec<u8>,
        cap: usize,
        block_after: Option<usize>,
    }

    impl Write for ThrottledSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if let Some(limit) = self.block_after {
                if self.accepted.len() >= limit {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
            }
            let n = buf.len().min(self.cap).max(1).min(buf.len());
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_drain_without_loss_or_reorder() {
        let mut wq = WriteQueue::new();
        wq.enqueue(b"{\"ok\":true,\"id\":1}\n");
        wq.enqueue(b"{\"ok\":true,\"id\":2}\n");
        let mut sink = ThrottledSink {
            accepted: Vec::new(),
            cap: 3,
            block_after: None,
        };
        assert!(wq.flush_into(&mut sink).unwrap());
        assert!(wq.is_empty());
        assert_eq!(
            sink.accepted,
            b"{\"ok\":true,\"id\":1}\n{\"ok\":true,\"id\":2}\n"
        );
    }

    #[test]
    fn wouldblock_pauses_the_queue_and_resumes_where_it_left_off() {
        let mut wq = WriteQueue::new();
        wq.enqueue(b"abcdefghij");
        let mut sink = ThrottledSink {
            accepted: Vec::new(),
            cap: 4,
            block_after: Some(4),
        };
        // First flush: 4 bytes land, then the "kernel buffer" fills.
        assert!(!wq.flush_into(&mut sink).unwrap());
        assert_eq!(wq.len(), 6);
        assert_eq!(sink.accepted, b"abcd");
        // Buffer space frees up (EPOLLOUT in real life): the rest lands
        // in order.
        sink.block_after = None;
        assert!(wq.flush_into(&mut sink).unwrap());
        assert_eq!(sink.accepted, b"abcdefghij");
        assert!(wq.is_empty());
    }

    #[test]
    fn a_zero_byte_write_is_an_error_not_a_spin() {
        let mut wq = WriteQueue::new();
        wq.enqueue(b"x");
        struct ZeroSink;
        impl Write for ZeroSink {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(wq.flush_into(&mut ZeroSink).is_err());
    }
}
