//! Readiness polling over raw syscalls — no `libc` crate, keeping the
//! workspace zero-dependency.
//!
//! Linux gets `epoll` (O(ready) wakeups); everything else gets a portable
//! `poll(2)` set rebuilt per wait. Both present the same tiny interface:
//! register a file descriptor with a token and an interest, wait, get
//! `(token, readable, writable, hangup)` events back. Each backend has a
//! direct unit test, so the fallback is covered on Linux too.

use std::io;
use std::os::unix::io::RawFd;

/// What a registered descriptor should wake the loop for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable (and hangup/error, which are always reported).
    Read,
    /// Readable or writable.
    ReadWrite,
}

/// One readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Data (or EOF) is readable.
    pub readable: bool,
    /// The socket can accept writes again.
    pub writable: bool,
    /// The peer hung up or the descriptor errored.
    pub hangup: bool,
}

/// A readiness poller: epoll where available, `poll(2)` otherwise.
pub enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Portable(PortablePoll),
}

impl Poller {
    /// Picks the best backend for the platform: epoll on Linux, the
    /// portable `poll(2)` fallback elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        let poller = Poller::Epoll(Epoll::new()?);
        #[cfg(not(target_os = "linux"))]
        let poller = Poller::Portable(PortablePoll::new());
        Ok(poller)
    }

    /// Starts watching `fd`, reporting events under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(ffi::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Portable(p) => {
                p.entries.push(Entry {
                    fd,
                    token,
                    interest,
                });
                Ok(())
            }
        }
    }

    /// Changes the interest (or token) of a watched descriptor.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(ffi::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Portable(p) => {
                for entry in &mut p.entries {
                    if entry.fd == fd {
                        entry.token = token;
                        entry.interest = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Stops watching `fd`. Call *before* the descriptor is closed.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(ffi::EPOLL_CTL_DEL, fd, 0, Interest::Read),
            Poller::Portable(p) => {
                p.entries.retain(|entry| entry.fd != fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one event is ready (or `timeout_ms` elapses;
    /// `None` waits indefinitely), appending into `events` after clearing
    /// it. Interrupted waits are retried.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<()> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(events, timeout_ms),
            Poller::Portable(p) => p.wait(events, timeout_ms),
        }
    }
}

// ---------------------------------------------------------------------------
// epoll (Linux)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod ffi {
    //! The four syscalls the poller needs, declared directly — the
    //! kernel ABI is stable and this avoids vendoring a libc crate.

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Matches the kernel's `struct epoll_event`: packed on x86-64, where
    /// the 64-bit `data` member is not 8-aligned.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// The epoll backend: one epoll instance per poller.
#[cfg(target_os = "linux")]
pub struct Epoll {
    epfd: RawFd,
    buf: Vec<ffi::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            buf: vec![ffi::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = ffi::EpollEvent {
            events: match interest {
                Interest::Read => ffi::EPOLLIN | ffi::EPOLLRDHUP,
                Interest::ReadWrite => ffi::EPOLLIN | ffi::EPOLLOUT | ffi::EPOLLRDHUP,
            },
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<()> {
        let timeout = timeout_ms.unwrap_or(-1);
        loop {
            // SAFETY: `buf` is a live allocation of `buf.len()` events.
            let n = unsafe {
                ffi::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for raw in &self.buf[..n as usize] {
                let bits = raw.events;
                events.push(Event {
                    token: raw.data,
                    readable: bits & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0,
                    writable: bits & ffi::EPOLLOUT != 0,
                    hangup: bits & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
                });
            }
            return Ok(());
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: epfd came from epoll_create1 and is closed exactly once.
        unsafe { ffi::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// poll(2) fallback
// ---------------------------------------------------------------------------

mod poll_ffi {
    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        // `nfds_t` is `unsigned long`, which matches the pointer width on
        // every unix target this builds for.
        pub fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }
}

struct Entry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

/// The portable backend: the registration list is replayed into a fresh
/// `pollfd` array per wait. O(n) per call, which is fine for a fallback.
pub struct PortablePoll {
    entries: Vec<Entry>,
    buf: Vec<poll_ffi::PollFd>,
}

impl PortablePoll {
    // Linux picks epoll, so there only the unit test builds this backend.
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    fn new() -> Self {
        PortablePoll {
            entries: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<()> {
        self.buf.clear();
        for entry in &self.entries {
            self.buf.push(poll_ffi::PollFd {
                fd: entry.fd,
                events: match entry.interest {
                    Interest::Read => poll_ffi::POLLIN,
                    Interest::ReadWrite => poll_ffi::POLLIN | poll_ffi::POLLOUT,
                },
                revents: 0,
            });
        }
        let timeout = timeout_ms.unwrap_or(-1);
        loop {
            // SAFETY: `buf` is a live array of `buf.len()` pollfds.
            let n = unsafe { poll_ffi::poll(self.buf.as_mut_ptr(), self.buf.len(), timeout) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for (slot, entry) in self.buf.iter().zip(&self.entries) {
                let bits = slot.revents;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token: entry.token,
                    readable: bits & (poll_ffi::POLLIN | poll_ffi::POLLHUP) != 0,
                    writable: bits & poll_ffi::POLLOUT != 0,
                    hangup: bits & (poll_ffi::POLLERR | poll_ffi::POLLHUP) != 0,
                });
            }
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    fn readiness_roundtrip(mut poller: Poller) {
        let (mut tx, mut rx) = socket_pair();
        rx.set_nonblocking(true).expect("nonblocking");
        let mut events = Vec::new();

        poller
            .register(rx.as_raw_fd(), 7, Interest::Read)
            .expect("register");
        poller.wait(&mut events, Some(0)).expect("wait");
        assert!(events.iter().all(|e| !e.readable), "nothing written yet");

        tx.write_all(b"x").expect("write");
        poller.wait(&mut events, Some(1000)).expect("wait");
        let event = events
            .iter()
            .find(|e| e.token == 7)
            .expect("readable event");
        assert!(event.readable);
        let mut byte = [0u8; 8];
        assert_eq!(rx.read(&mut byte).expect("read"), 1);

        // Write interest on an idle socket reports writable immediately.
        poller
            .modify(rx.as_raw_fd(), 7, Interest::ReadWrite)
            .expect("modify");
        poller.wait(&mut events, Some(1000)).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(rx.as_raw_fd()).expect("deregister");
        tx.write_all(b"y").expect("write");
        poller.wait(&mut events, Some(0)).expect("wait");
        assert!(
            events.iter().all(|e| e.token != 7),
            "deregistered fd is silent"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_reports_readiness() {
        readiness_roundtrip(Poller::Epoll(Epoll::new().expect("epoll")));
    }

    #[test]
    fn portable_backend_reports_readiness() {
        readiness_roundtrip(Poller::Portable(PortablePoll::new()));
    }
}
