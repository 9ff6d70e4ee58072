//! Request-line framing for the newline-JSON protocol — the pure,
//! unit-testable half of a connection.
//!
//! [`LineBuffer`] reassembles request lines from arbitrary `read()`
//! fragments (a newline may land anywhere, including mid-UTF-8). It
//! never touches a socket: the connection loop feeds it reads, the
//! tests feed it adversarial fragments.

/// The longest request line the daemon accepts, in bytes: 32 MiB, since
/// a `submit_batch` line carries every job of the batch. A longer line
/// gets one `line_too_long` response and the connection closes.
pub const MAX_LINE: usize = 32 << 20;

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
        // The production limit, fed the way the connection loop reads:
        // 16 KiB at a time, with a poll for complete lines and the
        // slow-loris check after every read.
        let max_line = MAX_LINE;
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
}
