use mercury_mcache::MCacheConfig;
use mercury_tensor::exec::ExecutorKind;
use std::error::Error;
use std::fmt;

/// A structurally invalid [`MercuryConfig`].
///
/// Every way a configuration can be rejected is its own variant, so
/// callers can match on the failure instead of parsing a message — the
/// typed replacement for the old `Result<(), String>` validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `initial_signature_bits` was zero; signatures need at least one bit.
    ZeroInitialSignatureBits,
    /// `max_signature_bits` was below `initial_signature_bits`, leaving the
    /// adaptive growth of §III-D nowhere to go.
    SignatureBoundsInverted {
        /// Configured starting length.
        initial: usize,
        /// Configured (smaller) upper bound.
        max: usize,
    },
    /// `max_signature_bits` exceeded what [`mercury_rpq`] can represent.
    SignatureBitsUnsupported {
        /// Configured upper bound.
        max: usize,
        /// Largest supported length ([`mercury_rpq::MAX_SIGNATURE_BITS`]).
        supported: usize,
    },
    /// A session/banked engine was asked to split the cache across a bank
    /// count that does not divide the set count evenly.
    BankSplit {
        /// Total sets in the configured cache.
        sets: usize,
        /// Requested bank count.
        banks: usize,
    },
    /// A banked engine was requested with zero banks.
    ZeroBanks,
    /// The MCACHE geometry (carried here) had a zero set count or
    /// associativity, so no signature could be placed.
    ZeroCacheGeometry(MCacheConfig),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroInitialSignatureBits => {
                write!(f, "initial signature length must be positive")
            }
            ConfigError::SignatureBoundsInverted { initial, max } => {
                write!(f, "max signature bits {max} below initial {initial}")
            }
            ConfigError::SignatureBitsUnsupported { max, supported } => {
                write!(f, "max signature bits {max} exceeds supported {supported}")
            }
            ConfigError::BankSplit { sets, banks } => {
                write!(f, "{banks} banks do not divide {sets} cache sets evenly")
            }
            ConfigError::ZeroBanks => write!(f, "need at least one cache bank"),
            ConfigError::ZeroCacheGeometry(c) => write!(
                f,
                "cache geometry {}x{} (sets x ways) has a zero dimension",
                c.sets, c.ways
            ),
        }
    }
}

impl Error for ConfigError {}

/// What a [`MercurySession`](crate::MercurySession) does with an input
/// tensor containing NaN or infinity.
///
/// Non-finite values are uniquely dangerous to a *persistent* reuse
/// cache: a NaN that reaches signature generation plants signatures in
/// the banked MCACHE that every later request may match against, turning
/// one bad ingress into wrong reuse decisions forever after. `Reject`
/// fences that class off at the session boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonfinitePolicy {
    /// Let non-finite values flow through, IEEE-style (the default, and
    /// the behaviour of every release before this policy existed). Exact
    /// compute propagates them faithfully; reuse may plant them in a
    /// persistent bank.
    #[default]
    Propagate,
    /// Refuse the request with a typed
    /// [`NonfiniteInput`](crate::MercuryError::NonfiniteInput) error
    /// *before* any engine or cache state is touched — bank state stays
    /// byte-identical to never having seen the request.
    Reject,
}

/// Configuration of the full MERCURY system.
///
/// Defaults mirror the paper's evaluation setup: a 1024-entry 16-way
/// MCACHE and 20-bit initial signatures growing to at most 64 bits. The
/// accelerator is not configuration: the engines charge cycles on the
/// paper's 168-PE row-stationary array
/// ([`AcceleratorConfig::paper_default`]). Nor are the §III-D adaptation
/// windows: [`AdaptiveController::new`](crate::AdaptiveController::new)
/// takes them, and the `mercury-dnn` trainer builds it with the paper's
/// K = 5, tolerance 1e-3 and T = 3.
///
/// Prefer [`MercuryConfig::builder`] for constructing non-default
/// configurations: the builder funnels every instance through
/// [`validate`](Self::validate) and reports failures as a typed
/// [`ConfigError`].
///
/// [`AcceleratorConfig::paper_default`]: mercury_accel::config::AcceleratorConfig::paper_default
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MercuryConfig {
    /// MCACHE geometry.
    pub cache: MCacheConfig,
    /// Signature length at the start of training (the paper suggests ~20).
    pub initial_signature_bits: usize,
    /// Upper bound on adaptive signature growth.
    pub max_signature_bits: usize,
    /// Execution backend for every parallel path the engines own: the
    /// reuse pass's compute rows (one contiguous chunk per worker, for
    /// conv, FC and attention alike), the conv engine's per-channel
    /// sharding, the banked MCACHE's concurrent bank probing, and
    /// [`MercurySession::submit_batch`](crate::MercurySession::submit_batch)
    /// fan-out. [`ExecutorKind::Serial`] is the reference semantics; the
    /// threaded backend is bit-identical to it (pinned by the
    /// `parallel_determinism` suite). Defaults to `Serial` unless the
    /// `MERCURY_EXECUTOR` environment variable says otherwise.
    pub executor: ExecutorKind,
    /// Session-boundary treatment of NaN/Inf inputs (see
    /// [`NonfinitePolicy`]). Defaults to `Propagate`.
    pub nonfinite_policy: NonfinitePolicy,
    /// Number of exact-compute warm-up requests a layer serves after
    /// [`MercurySession::recover`](crate::MercurySession::recover) before
    /// reuse detection re-arms. During the warm-up the layer is correct
    /// but unaccelerated and its
    /// [`ReuseReport::degraded`](crate::ReuseReport::degraded) flag is
    /// set. `0` re-arms immediately on recovery. Defaults to 8.
    pub recovery_warmup: usize,
}

impl MercuryConfig {
    /// Starts a builder seeded with the paper-default configuration.
    pub fn builder() -> MercuryConfigBuilder {
        MercuryConfigBuilder {
            config: MercuryConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] variant describing the first violated
    /// constraint: inverted or zero signature bounds, or a cache geometry
    /// with a zero dimension.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.initial_signature_bits == 0 {
            return Err(ConfigError::ZeroInitialSignatureBits);
        }
        if self.max_signature_bits < self.initial_signature_bits {
            return Err(ConfigError::SignatureBoundsInverted {
                initial: self.initial_signature_bits,
                max: self.max_signature_bits,
            });
        }
        if self.max_signature_bits > mercury_rpq::MAX_SIGNATURE_BITS {
            return Err(ConfigError::SignatureBitsUnsupported {
                max: self.max_signature_bits,
                supported: mercury_rpq::MAX_SIGNATURE_BITS,
            });
        }
        let c = self.cache;
        if c.sets == 0 || c.ways == 0 {
            return Err(ConfigError::ZeroCacheGeometry(c));
        }
        Ok(())
    }
}

impl Default for MercuryConfig {
    fn default() -> Self {
        MercuryConfig {
            cache: MCacheConfig::paper_default(),
            initial_signature_bits: 20,
            max_signature_bits: 64,
            executor: ExecutorKind::from_env_or(ExecutorKind::Serial),
            nonfinite_policy: NonfinitePolicy::default(),
            recovery_warmup: 8,
        }
    }
}

/// Typed builder for [`MercuryConfig`].
///
/// Starts from the paper defaults; every setter overrides one field and
/// [`build`](Self::build) validates the result once, returning a
/// [`ConfigError`] instead of panicking or stringly-typed failure.
///
/// # Examples
///
/// ```
/// use mercury_core::MercuryConfig;
///
/// let config = MercuryConfig::builder()
///     .initial_signature_bits(16)
///     .max_signature_bits(48)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(config.initial_signature_bits, 16);
/// ```
#[derive(Debug, Clone)]
pub struct MercuryConfigBuilder {
    config: MercuryConfig,
}

impl MercuryConfigBuilder {
    /// Sets the MCACHE geometry.
    pub fn cache(mut self, cache: MCacheConfig) -> Self {
        self.config.cache = cache;
        self
    }

    /// Sets the starting signature length in bits.
    pub fn initial_signature_bits(mut self, bits: usize) -> Self {
        self.config.initial_signature_bits = bits;
        self
    }

    /// Sets the upper bound on adaptive signature growth.
    pub fn max_signature_bits(mut self, bits: usize) -> Self {
        self.config.max_signature_bits = bits;
        self
    }

    /// Sets the execution backend (serial reference vs scoped thread
    /// pool); both produce bit-identical results on every engine and
    /// session.
    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.config.executor = executor;
        self
    }

    /// Sets the session-boundary policy for NaN/Inf inputs.
    pub fn nonfinite_policy(mut self, policy: NonfinitePolicy) -> Self {
        self.config.nonfinite_policy = policy;
        self
    }

    /// Sets the post-recovery exact-compute warm-up length (requests
    /// served with reuse disabled after
    /// [`MercurySession::recover`](crate::MercurySession::recover)).
    pub fn recovery_warmup(mut self, requests: usize) -> Self {
        self.config.recovery_warmup = requests;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration violates.
    pub fn build(self) -> Result<MercuryConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paper_shaped() {
        let c = MercuryConfig::default();
        c.validate().unwrap();
        assert_eq!(c.initial_signature_bits, 20);
        assert_eq!(c.cache.entries(), 1024);
    }

    #[test]
    fn validation_reports_typed_errors() {
        let c = MercuryConfig {
            max_signature_bits: 10,
            ..MercuryConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::SignatureBoundsInverted {
                initial: 20,
                max: 10
            })
        );
        let c = MercuryConfig {
            max_signature_bits: 500,
            ..MercuryConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::SignatureBitsUnsupported {
                max: 500,
                supported: mercury_rpq::MAX_SIGNATURE_BITS
            })
        );
        let c = MercuryConfig {
            initial_signature_bits: 0,
            ..MercuryConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroInitialSignatureBits));
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let c = MercuryConfig::builder()
            .initial_signature_bits(8)
            .max_signature_bits(32)
            .build()
            .unwrap();
        assert_eq!(c.initial_signature_bits, 8);
        assert_eq!(c.max_signature_bits, 32);

        let err = MercuryConfig::builder()
            .initial_signature_bits(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroInitialSignatureBits);
    }

    #[test]
    fn builder_sets_executor() {
        let c = MercuryConfig::builder()
            .executor(ExecutorKind::Threaded { threads: 4 })
            .build()
            .unwrap();
        assert_eq!(c.executor, ExecutorKind::Threaded { threads: 4 });
        // Two configs differing only in executor compare unequal — the
        // backend is part of the configuration identity even though it
        // never changes results.
        assert_ne!(
            c,
            MercuryConfig {
                executor: ExecutorKind::Serial,
                ..c
            }
        );
    }

    #[test]
    fn fault_containment_knobs_default_and_build() {
        let c = MercuryConfig::default();
        assert_eq!(c.nonfinite_policy, NonfinitePolicy::Propagate);
        assert_eq!(c.recovery_warmup, 8);

        let c = MercuryConfig::builder()
            .nonfinite_policy(NonfinitePolicy::Reject)
            .recovery_warmup(0)
            .build()
            .unwrap();
        assert_eq!(c.nonfinite_policy, NonfinitePolicy::Reject);
        assert_eq!(c.recovery_warmup, 0);
    }

    #[test]
    fn zero_cache_geometry_fails_at_construction() {
        // Each zero dimension is refused up front, by validation, by the
        // engines and by the session — not by a divide-by-zero panic at
        // the first forward pass.
        for (sets, ways) in [(0, 16), (64, 0)] {
            let cache = MCacheConfig { sets, ways };
            let config = MercuryConfig {
                cache,
                ..MercuryConfig::default()
            };
            let want = ConfigError::ZeroCacheGeometry(cache);
            assert_eq!(config.validate(), Err(want));
            assert_eq!(crate::ConvEngine::try_new(config, 1).unwrap_err(), want);
            assert_eq!(crate::MercurySession::new(config, 1).unwrap_err(), want);
            assert!(want.to_string().contains("zero dimension"));
        }
    }

    #[test]
    fn config_error_displays_and_sources() {
        let e = ConfigError::BankSplit { sets: 64, banks: 7 };
        assert!(e.to_string().contains("7 banks"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
