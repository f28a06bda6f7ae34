//! Incremental newline-frame scanning over a reused per-connection buffer.
//!
//! One [`FrameScanner`] per connection owns a single growable buffer that
//! is appended to as bytes arrive and scanned incrementally — each byte
//! is examined for `\n` exactly once, however the frames are split or
//! batched across socket reads. The daemon's connection readers and the
//! load generator's answer reader share it.
//!
//! Growth is bounded: once more than `max_frame` bytes accumulate without
//! a newline the scanner reports [`Scan::Oversized`] and the caller
//! answers `400` and hangs up, so a hostile client can never buffer the
//! daemon into the ground. Consumed frames are compacted away whenever
//! the scanner drains, keeping the steady-state footprint at one partial
//! frame.

use std::ops::Range;

/// Outcome of one [`FrameScanner::next_frame`] probe.
#[derive(Debug, PartialEq, Eq)]
pub enum Scan {
    /// A complete frame: the byte range of the line (newline excluded)
    /// within [`FrameScanner::bytes`]. The range is already consumed —
    /// the next probe moves past it.
    Frame(Range<usize>),
    /// No complete frame buffered yet; feed more bytes.
    Incomplete,
    /// The pending line exceeds the frame cap (with or without its
    /// newline in sight). The connection should be answered with a `400`
    /// and closed; the scanner is poisoned and keeps reporting this.
    Oversized,
}

/// A per-connection incremental line scanner with bounded buffering.
pub struct FrameScanner {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte.
    pos: usize,
    /// How far the newline search has progressed; bytes before this have
    /// been examined exactly once.
    scanned: usize,
    max_frame: usize,
    oversized: bool,
}

impl FrameScanner {
    /// A scanner admitting frames of at most `max_frame` bytes (newline
    /// excluded; minimum 1).
    #[must_use]
    pub fn new(max_frame: usize) -> Self {
        FrameScanner {
            buf: Vec::new(),
            pos: 0,
            scanned: 0,
            max_frame: max_frame.max(1),
            oversized: false,
        }
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The underlying buffer; index with the range from [`Scan::Frame`].
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Unconsumed bytes currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Scans for the next complete frame. See [`Scan`].
    pub fn next_frame(&mut self) -> Scan {
        if self.oversized {
            return Scan::Oversized;
        }
        if let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let newline = self.scanned + offset;
            let frame = self.pos..newline;
            self.pos = newline + 1;
            self.scanned = self.pos;
            if frame.len() > self.max_frame {
                self.oversized = true;
                return Scan::Oversized;
            }
            return Scan::Frame(frame);
        }
        self.scanned = self.buf.len();
        if self.buffered() > self.max_frame {
            self.oversized = true;
            return Scan::Oversized;
        }
        self.compact();
        Scan::Incomplete
    }

    /// Drops consumed bytes so the buffer only ever holds the pending
    /// partial frame, and releases outsized capacity left over from a
    /// large (but legal) frame.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.scanned -= self.pos;
            self.pos = 0;
        }
        let cap_floor = self.max_frame.clamp(4096, 64 * 1024);
        if self.buf.capacity() > 2 * cap_floor && self.buf.len() <= cap_floor {
            self.buf.shrink_to(cap_floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_text(scanner: &FrameScanner, range: Range<usize>) -> String {
        String::from_utf8_lossy(&scanner.bytes()[range]).into_owned()
    }

    #[test]
    fn whole_frame_in_one_read() {
        let mut s = FrameScanner::new(64);
        s.extend(b"{\"endpoint\":\"ping\"}\n");
        match s.next_frame() {
            Scan::Frame(r) => assert_eq!(frame_text(&s, r), "{\"endpoint\":\"ping\"}"),
            other => panic!("expected frame, got {other:?}"),
        }
        assert_eq!(s.next_frame(), Scan::Incomplete);
        assert_eq!(s.buffered(), 0, "consumed frames are compacted away");
    }

    #[test]
    fn frame_split_across_reads_reassembles() {
        let mut s = FrameScanner::new(64);
        s.extend(b"{\"endpoint\":");
        assert_eq!(s.next_frame(), Scan::Incomplete);
        s.extend(b"\"ping\"}");
        assert_eq!(s.next_frame(), Scan::Incomplete);
        s.extend(b"\n{\"id\":2}\n");
        match s.next_frame() {
            Scan::Frame(r) => assert_eq!(frame_text(&s, r), "{\"endpoint\":\"ping\"}"),
            other => panic!("{other:?}"),
        }
        match s.next_frame() {
            Scan::Frame(r) => assert_eq!(frame_text(&s, r), "{\"id\":2}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.next_frame(), Scan::Incomplete);
    }

    #[test]
    fn oversized_without_newline_poisons() {
        let mut s = FrameScanner::new(8);
        s.extend(b"aaaaaaaaaa"); // 10 > 8, no newline yet
        assert_eq!(s.next_frame(), Scan::Oversized);
        s.extend(b"\n{\"id\":1}\n");
        assert_eq!(
            s.next_frame(),
            Scan::Oversized,
            "poisoned scanners stay poisoned"
        );
    }

    #[test]
    fn oversized_with_newline_poisons() {
        let mut s = FrameScanner::new(4);
        s.extend(b"short\n");
        assert_eq!(s.next_frame(), Scan::Oversized);
    }

    #[test]
    fn exact_cap_frame_is_legal() {
        let mut s = FrameScanner::new(5);
        s.extend(b"12345\n");
        match s.next_frame() {
            Scan::Frame(r) => assert_eq!(frame_text(&s, r), "12345"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_lines_are_frames() {
        // The dispatcher skips blank lines, but the scanner must hand
        // them over rather than desynchronize.
        let mut s = FrameScanner::new(16);
        s.extend(b"\n\nx\n");
        assert!(matches!(s.next_frame(), Scan::Frame(r) if r.is_empty()));
        assert!(matches!(s.next_frame(), Scan::Frame(r) if r.is_empty()));
        match s.next_frame() {
            Scan::Frame(r) => assert_eq!(frame_text(&s, r), "x"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn buffer_stays_bounded_under_many_frames() {
        let mut s = FrameScanner::new(64);
        for i in 0..10_000 {
            s.extend(format!("{{\"id\":{i}}}\n").as_bytes());
            match s.next_frame() {
                Scan::Frame(r) => assert_eq!(frame_text(&s, r), format!("{{\"id\":{i}}}")),
                other => panic!("{other:?}"),
            }
            assert_eq!(s.next_frame(), Scan::Incomplete);
            assert!(
                s.buf.capacity() <= 8192,
                "capacity crept: {}",
                s.buf.capacity()
            );
        }
    }
}
