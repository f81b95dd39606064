//! Server configuration: the typed builder for [`ServeConfig`] plus the
//! per-tenant epoch and recovery policies.

use mercury_tensor::exec::ExecutorKind;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// A structurally invalid [`ServeConfig`] (or tenant policy). Every way a
/// configuration can be rejected is its own variant, matching the
/// `ConfigError` convention in `mercury-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `queue_capacity` was zero: a tenant that can never admit a request
    /// is a misconfiguration, not a policy.
    ZeroQueueCapacity,
    /// `batch_window` was zero: a tick that can never drain a request
    /// would make the server spin without serving.
    ZeroBatchWindow,
    /// An [`EpochPolicy::EveryRequests`] interval was zero; epochs need at
    /// least one request between boundaries.
    ZeroEpochInterval,
    /// A [`PacingPolicy::Deadline`] of zero duration was configured: the
    /// service thread would spin ticking the instant work arrived, which
    /// is [`PacingPolicy::Saturation`] with a busy-loop bolted on. Ask
    /// for saturation pacing instead of a zero deadline.
    ZeroDeadline,
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::ZeroQueueCapacity => {
                write!(f, "per-tenant queue capacity must be positive")
            }
            ServeConfigError::ZeroBatchWindow => {
                write!(f, "batching window must be positive")
            }
            ServeConfigError::ZeroEpochInterval => {
                write!(f, "epoch-every-N-requests interval must be positive")
            }
            ServeConfigError::ZeroDeadline => {
                write!(
                    f,
                    "deadline pacing needs a positive duration \
                     (use PacingPolicy::Saturation for tick-as-soon-as-possible)"
                )
            }
        }
    }
}

impl Error for ServeConfigError {}

/// When a tenant's session advances its epoch (evicting every layer's
/// banked MCACHE, the §V persistence boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochPolicy {
    /// Advance after every `n` served requests (`n ≥ 1`). The boundary
    /// lands *exactly* after the `n`-th request regardless of how the
    /// batching window groups requests, so a tenant's output stream is
    /// bit-identical to a dedicated session replaying the same requests
    /// with `advance_epoch` every `n` submits.
    EveryRequests(u64),
    /// No automatic boundary: the caches persist until
    /// [`Server::advance_epoch`](crate::Server::advance_epoch) or the
    /// memory budget evicts them.
    Never,
}

/// When the ingress service thread runs a [`tick`](crate::Server::tick)
/// — the pacing half of the channel-driven front end
/// ([`Server::serve`](crate::Server::serve)).
///
/// Pacing trades latency against batching: ticking sooner answers the
/// requests already queued, ticking later lets the batching window fill
/// so each `submit_batch` amortizes better. Whatever the policy, the
/// determinism law is untouched — per-tenant completion streams depend
/// only on admission order, never on *when* ticks happen — so pacing is
/// purely a throughput/latency knob.
///
/// Every policy runs the same pacing loop. An idle server blocks for the
/// next message, and a tenant with a full batching window is ticked at
/// once; the policy only sets how long the loop waits for more work
/// before ticking what is queued: not at all (`Saturation`), until a
/// deadline (`Deadline`), or until the next `tick_now` (`Manual`).
///
/// The synchronous embedding mode (driving [`tick`](crate::Server::tick)
/// yourself) ignores this policy; it exists for the service thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacingPolicy {
    /// Tick as soon as there is work: whenever a tenant's batching
    /// window fills, or the ingress channel runs dry with requests
    /// queued. Lowest latency, window-limited batching. The default.
    #[default]
    Saturation,
    /// Tick on a wall-clock budget: work first queued after a tick or an
    /// idle spell opens a window of this length, and admission keeps
    /// absorbing requests until it elapses (or a batching window fills
    /// first — a full window gains nothing by waiting); then a tick
    /// serves what accumulated. Bounds the batching delay any request
    /// can pay. Must be positive — [`ServeConfigError::ZeroDeadline`]
    /// otherwise.
    Deadline(Duration),
    /// Tick only on an explicit
    /// [`ServeHandle::tick_now`](crate::ServeHandle::tick_now) control
    /// message: the operator (or a test) owns the clock. Submissions are
    /// still admitted eagerly; they wait in the bounded queues until the
    /// lever is pulled. [`shutdown`](crate::ServeHandle::shutdown) still
    /// drains — a manual service cannot strand admitted work.
    Manual,
}

/// How the server responds to a tenant layer poisoned by an engine
/// failure (the PR 7 containment contract: the layer refuses requests
/// with typed errors until `recover` quarantines its cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// At the end of any tick that served the tenant, every poisoned
    /// layer is recovered automatically: its bank is quarantined by
    /// flash-clear and the layer re-enters service in the configured
    /// exact-compute warm-up. The default — a service self-heals.
    #[default]
    Immediate,
    /// Poisoned layers stay fenced (answering
    /// [`MercuryError::Poisoned`](mercury_core::MercuryError::Poisoned))
    /// until an explicit [`Server::recover`](crate::Server::recover).
    Manual,
}

/// Configuration of a [`Server`](crate::Server).
///
/// Build with [`ServeConfig::builder`]; the builder funnels every
/// instance through [`validate`](Self::validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Execution backend for the **one** worker pool every tenant session
    /// shares. Resolved once at server creation; each tenant's
    /// `MercuryConfig::executor` field is overridden by it — a server's
    /// whole point is that N tenants do not spawn N pools. Defaults to
    /// `MERCURY_EXECUTOR` when set, serial otherwise.
    pub executor: ExecutorKind,
    /// Bounded ingress depth per tenant: an
    /// [`enqueue`](crate::Server::enqueue) beyond this answers a typed
    /// [`QueueFull`](crate::ServeError::QueueFull) instead of growing
    /// without bound (admission control, not load shedding by OOM).
    pub queue_capacity: usize,
    /// Batching window: the most requests one tick coalesces per tenant
    /// into a single `submit_batch` call. Within a tenant the window
    /// preserves FIFO order; epoch boundaries cap it so they land on
    /// exact request counts.
    pub batch_window: usize,
    /// Global cap on the summed
    /// [`bank_bytes`](mercury_core::MercurySession::bank_bytes) of every
    /// tenant — the tags and stored result rows its banks hold — enforced
    /// after each tick by evicting banked caches, least recently served
    /// tenant first. `None` disables the budget.
    pub memory_budget: Option<usize>,
    /// Poisoned-layer handling (see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
    /// When the ingress service thread ticks (see [`PacingPolicy`]).
    /// Only consulted by [`Server::serve`](crate::Server::serve); the
    /// synchronous embedding mode paces itself by calling
    /// [`tick`](crate::Server::tick).
    pub pacing: PacingPolicy,
}

impl ServeConfig {
    /// Starts a builder seeded with the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`ServeConfigError`] variant describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.queue_capacity == 0 {
            return Err(ServeConfigError::ZeroQueueCapacity);
        }
        if self.batch_window == 0 {
            return Err(ServeConfigError::ZeroBatchWindow);
        }
        if self.pacing == PacingPolicy::Deadline(Duration::ZERO) {
            return Err(ServeConfigError::ZeroDeadline);
        }
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            executor: ExecutorKind::from_env_or(ExecutorKind::Serial),
            queue_capacity: 64,
            batch_window: 8,
            memory_budget: None,
            recovery: RecoveryPolicy::default(),
            pacing: PacingPolicy::default(),
        }
    }
}

/// Typed builder for [`ServeConfig`], mirroring the
/// `MercuryConfigBuilder` convention.
///
/// # Defaults
///
/// Every knob the builder exposes, with the value an untouched builder
/// produces:
///
/// | Knob | Default | Meaning |
/// |------|---------|---------|
/// | [`executor`](Self::executor) | `MERCURY_EXECUTOR`, else serial | Backend of the one shared worker pool |
/// | [`queue_capacity`](Self::queue_capacity) | `64` | Bounded ingress depth per tenant (`QueueFull` beyond it) |
/// | [`batch_window`](Self::batch_window) | `8` | Max requests one tick coalesces per tenant |
/// | [`memory_budget`](Self::memory_budget) | `None` | Global cap on summed tenant `bank_bytes` (`None` = unbounded) |
/// | [`recovery`](Self::recovery) | [`RecoveryPolicy::Immediate`] | Poisoned layers auto-recover at tick end |
/// | [`pacing`](Self::pacing) | [`PacingPolicy::Saturation`] | Service thread ticks as soon as work is queued |
///
/// # Examples
///
/// ```
/// use mercury_serve::{PacingPolicy, ServeConfig};
/// use std::time::Duration;
///
/// let config = ServeConfig::builder()
///     .queue_capacity(16)
///     .batch_window(4)
///     .memory_budget(Some(1 << 20))
///     .pacing(PacingPolicy::Deadline(Duration::from_millis(2)))
///     .build()
///     .expect("valid configuration");
/// assert_eq!(config.batch_window, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the shared worker-pool backend.
    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.config.executor = executor;
        self
    }

    /// Sets the bounded per-tenant ingress depth.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the per-tenant batching window.
    pub fn batch_window(mut self, window: usize) -> Self {
        self.config.batch_window = window;
        self
    }

    /// Sets (or clears) the global memory budget in bytes.
    pub fn memory_budget(mut self, budget: Option<usize>) -> Self {
        self.config.memory_budget = budget;
        self
    }

    /// Sets the poisoned-layer recovery policy.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// Sets the ingress tick pacing policy.
    /// [`Deadline`](PacingPolicy::Deadline) must be positive —
    /// [`build`](Self::build) rejects a zero deadline with
    /// [`ServeConfigError::ZeroDeadline`] instead of letting the service
    /// thread spin.
    pub fn pacing(mut self, pacing: PacingPolicy) -> Self {
        self.config.pacing = pacing;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ServeConfigError`] the configuration violates.
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = ServeConfig::default();
        c.validate().unwrap();
        assert!(c.queue_capacity > 0);
        assert!(c.batch_window > 0);
        assert_eq!(c.memory_budget, None);
        assert_eq!(c.recovery, RecoveryPolicy::Immediate);
        assert_eq!(c.pacing, PacingPolicy::Saturation);
    }

    #[test]
    fn zero_deadline_is_a_typed_error_not_a_panic() {
        assert_eq!(
            ServeConfig::builder()
                .pacing(PacingPolicy::Deadline(Duration::ZERO))
                .build()
                .unwrap_err(),
            ServeConfigError::ZeroDeadline
        );
        // Any positive deadline is fine, down to a nanosecond.
        for d in [Duration::from_nanos(1), Duration::from_millis(5)] {
            let c = ServeConfig::builder()
                .pacing(PacingPolicy::Deadline(d))
                .build()
                .unwrap();
            assert_eq!(c.pacing, PacingPolicy::Deadline(d));
        }
        // The other policies never reject.
        for p in [PacingPolicy::Saturation, PacingPolicy::Manual] {
            ServeConfig::builder().pacing(p).build().unwrap();
        }
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let c = ServeConfig::builder()
            .queue_capacity(3)
            .batch_window(2)
            .memory_budget(Some(4096))
            .recovery(RecoveryPolicy::Manual)
            .build()
            .unwrap();
        assert_eq!(c.queue_capacity, 3);
        assert_eq!(c.batch_window, 2);
        assert_eq!(c.memory_budget, Some(4096));
        assert_eq!(c.recovery, RecoveryPolicy::Manual);

        assert_eq!(
            ServeConfig::builder()
                .queue_capacity(0)
                .build()
                .unwrap_err(),
            ServeConfigError::ZeroQueueCapacity
        );
        assert_eq!(
            ServeConfig::builder().batch_window(0).build().unwrap_err(),
            ServeConfigError::ZeroBatchWindow
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            ServeConfigError::ZeroQueueCapacity,
            ServeConfigError::ZeroBatchWindow,
            ServeConfigError::ZeroEpochInterval,
            ServeConfigError::ZeroDeadline,
        ] {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_none());
        }
    }
}
