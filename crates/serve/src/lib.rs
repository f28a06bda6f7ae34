//! `uptime-serve`: a long-lived broker serving daemon.
//!
//! The one-shot `brokerctl recommend` flow pays full catalog construction
//! and optimizer cost per invocation. This crate turns the broker into a
//! resident service that amortizes that cost across requests:
//!
//! * **Protocol** ([`protocol`]) — newline-delimited JSON frames over
//!   plain TCP. One request per line, one response per line; responses
//!   carry HTTP-flavored status codes (`200`/`400`/`404`/`429`/`500`/`503`)
//!   plus the telemetry epoch they were computed under.
//! * **Recommendation cache** ([`cache`]) — response bodies keyed by a
//!   canonical fingerprint of `(endpoint, request)` and stamped with the
//!   telemetry epoch; any absorb of new telemetry bumps the epoch and
//!   implicitly invalidates everything computed before it.
//! * **Single-flight coalescing** ([`singleflight`]) — concurrent
//!   identical requests share one backend execution.
//! * **Admission control** ([`queue`]) — a bounded queue between
//!   connection readers and the worker pool; overload sheds with explicit
//!   `429`-style responses instead of queueing unboundedly, and shutdown
//!   drains everything already admitted.
//!
//! The daemon is generic over [`backend::ServeBackend`], so the broker
//! dependency points broker → serve and the machinery here is testable
//! with synthetic backends. `uptime-broker` provides the production
//! backend and wires it into `brokerctl serve`.

pub mod backend;
pub mod cache;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod schema;
pub mod server;
pub mod singleflight;

pub use backend::{BackendError, ServeBackend};
pub use cache::{EpochCache, Lookup};
pub use protocol::{code, RequestFrame, ResponseFrame, Status, PROTOCOL_VERSION};
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerConfig, ServerHandle};
pub use singleflight::{Flight, FlightResult, Role, SingleFlight};
