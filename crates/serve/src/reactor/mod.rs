//! Socket building blocks shared by the daemon and the load generator.
//!
//! [`frame`] splits a byte stream into newline-delimited frames under a
//! size cap; the daemon's connection readers use it, and so does any
//! client that reads answers off the wire. [`poller`] is a readiness
//! poller over raw syscalls (epoll on Linux, `poll(2)` elsewhere) for
//! clients that watch many connections from one thread.
//!
//! The module keeps its name because the benchmark imports these paths;
//! the daemon itself lives in [`crate::server`].

pub mod frame;
#[cfg(unix)]
pub mod poller;
