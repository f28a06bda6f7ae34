//! The trait a serving daemon fronts: some domain service that can
//! fingerprint, execute, and epoch-stamp requests.
//!
//! `uptime-serve` is deliberately broker-agnostic — the daemon machinery
//! (admission control, caching, coalescing, draining) lives here, while
//! `uptime-broker` supplies the [`ServeBackend`] that knows what a
//! `SolutionRequest` is. That keeps the dependency arrow pointing one way
//! (broker → serve) and lets the daemon be tested with synthetic
//! backends.

use serde::Value;

/// Why a backend call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The request body did not parse or validate.
    BadRequest(String),
    /// The endpoint name is not served by this backend.
    UnknownEndpoint(String),
    /// The backend itself failed.
    Internal(String),
}

impl BackendError {
    /// The HTTP-flavored status code for this error.
    #[must_use]
    pub fn code(&self) -> u16 {
        match self {
            BackendError::BadRequest(_) => crate::protocol::code::BAD_REQUEST,
            BackendError::UnknownEndpoint(_) => crate::protocol::code::NOT_FOUND,
            BackendError::Internal(_) => crate::protocol::code::INTERNAL,
        }
    }

    /// The human-readable detail.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            BackendError::BadRequest(m) => format!("bad request: {m}"),
            BackendError::UnknownEndpoint(e) => format!("unknown endpoint `{e}`"),
            BackendError::Internal(m) => format!("internal error: {m}"),
        }
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message())
    }
}

impl std::error::Error for BackendError {}

/// The domain service behind the daemon.
///
/// Implementations must be cheap to call concurrently: the worker pool
/// invokes `handle` from many threads at once.
pub trait ServeBackend: Send + Sync + 'static {
    /// The current telemetry epoch: a monotonically increasing counter
    /// bumped whenever the backend's knowledge base absorbs new inputs.
    /// Cached responses are only served while the epoch they were
    /// computed under is still current.
    fn epoch(&self) -> u64;

    /// A canonical fingerprint of `(endpoint, body)`, or `None` when the
    /// endpoint must not be cached or coalesced (mutating or
    /// time-varying endpoints such as `health`/`sync`).
    ///
    /// Semantically equal requests — regardless of float formatting or
    /// omitted defaulted fields in the client's JSON — must fingerprint
    /// identically; semantically different requests must (modulo hash
    /// collisions over a 128-bit space) differ.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::BadRequest`] for bodies that do not parse
    /// and [`BackendError::UnknownEndpoint`] for endpoints this backend
    /// does not serve.
    fn fingerprint(&self, endpoint: &str, body: &Value) -> Result<Option<u128>, BackendError>;

    /// Executes the request and returns the response body.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] classifying the failure.
    fn handle(&self, endpoint: &str, body: &Value) -> Result<Value, BackendError>;

    /// [`Self::handle`] under a request trace, rendered to the compact JSON
    /// text the daemon sends and caches. The daemon calls this once per
    /// executed request; hits and coalesced followers reuse its text.
    ///
    /// Backends that want their own stage spans in the flight recorder
    /// override this and hang children below `parent`; a backend that
    /// holds typed answers can also print them directly rather than
    /// through a [`Value`]. The default ignores the span and prints
    /// [`Self::handle`]'s value. Either way the text must be exactly
    /// `serde_json::to_string(&self.handle(endpoint, body)?)`: traces
    /// attribute time, they never change results.
    ///
    /// # Errors
    ///
    /// Same as [`Self::handle`].
    fn render_traced(
        &self,
        endpoint: &str,
        body: &Value,
        parent: &uptime_obs::TraceSpan,
    ) -> Result<String, BackendError> {
        let _ = parent;
        let value = self.handle(endpoint, body)?;
        serde_json::to_string(&value)
            .map_err(|err| BackendError::Internal(format!("unserializable body: {err}")))
    }
}
