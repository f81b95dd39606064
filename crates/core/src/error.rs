use crate::config::ConfigError;
use crate::session::LayerId;
use mercury_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error type for MERCURY engine and session operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MercuryError {
    /// An underlying tensor operation failed (shape mismatch etc.).
    Tensor(TensorError),
    /// The engine configuration is invalid.
    Config(ConfigError),
    /// A [`ReuseEngine`](crate::ReuseEngine) was handed a
    /// [`LayerOp`](crate::LayerOp) family it does not implement (e.g. an
    /// attention op submitted to a convolution engine).
    UnsupportedOp {
        /// The engine that rejected the op.
        engine: &'static str,
        /// The op family it was handed.
        op: &'static str,
    },
    /// A [`MercurySession`](crate::MercurySession) call referenced a layer
    /// id the session never issued.
    UnknownLayer(LayerId),
    /// A parameter update targeted a layer with no updatable parameters
    /// (non-parametric self-attention).
    NoParameters(LayerId),
    /// A submitted input's shape does not match the registered layer.
    /// Raised at the session boundary *before* any engine or cache state
    /// is touched, so a mis-shaped request never poisons the layer or
    /// plants signatures in its persistent bank.
    ShapeMismatch {
        /// The layer that rejected the input.
        layer: LayerId,
        /// The expected shape; `None` marks a free dimension (e.g. the
        /// row count of an FC input or the spatial extent of a conv
        /// input).
        expected: Vec<Option<usize>>,
        /// The shape actually submitted.
        actual: Vec<usize>,
    },
    /// A submitted input contains NaN or infinity and the session's
    /// [`NonfinitePolicy`](crate::NonfinitePolicy) is `Reject`. Raised at
    /// the session boundary before any cache mutation, so the offending
    /// request leaves bank state byte-identical.
    NonfiniteInput {
        /// The layer that rejected the input.
        layer: LayerId,
        /// Index of the first non-finite element in the input's backing
        /// storage (row-major).
        index: usize,
    },
    /// An engine panicked while serving this layer. The panic was caught
    /// at the session boundary; the layer is now poisoned (see
    /// [`Poisoned`](Self::Poisoned)) until
    /// [`MercurySession::recover`](crate::MercurySession::recover)
    /// quarantines its cache.
    EnginePanic {
        /// The layer whose engine panicked.
        layer: LayerId,
        /// The panic payload, stringified when it was a `&str`/`String`
        /// (the common case — including injected faults).
        message: String,
    },
    /// The layer was poisoned by an earlier engine panic or error and has
    /// not been recovered. Its persistent cache may be half-mutated, so
    /// every submit is refused until
    /// [`MercurySession::recover`](crate::MercurySession::recover)
    /// flash-clears the bank and re-enters the layer into service.
    Poisoned(LayerId),
}

impl fmt::Display for MercuryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MercuryError::Tensor(e) => write!(f, "tensor error: {e}"),
            MercuryError::Config(e) => write!(f, "invalid mercury configuration: {e}"),
            MercuryError::UnsupportedOp { engine, op } => {
                write!(f, "{engine} engine does not support {op} ops")
            }
            MercuryError::UnknownLayer(id) => write!(f, "unknown session layer {id}"),
            MercuryError::NoParameters(id) => {
                write!(f, "session layer {id} has no updatable parameters")
            }
            MercuryError::ShapeMismatch {
                layer,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "input shape {actual:?} does not match layer {layer} (expected ["
                )?;
                for (i, dim) in expected.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match dim {
                        Some(d) => write!(f, "{d}")?,
                        None => write!(f, "_")?,
                    }
                }
                write!(f, "])")
            }
            MercuryError::NonfiniteInput { layer, index } => {
                write!(
                    f,
                    "input to layer {layer} has a non-finite value at element {index} \
                     and the session policy is Reject"
                )
            }
            MercuryError::EnginePanic { layer, message } => {
                write!(f, "engine panicked while serving layer {layer}: {message}")
            }
            MercuryError::Poisoned(id) => {
                write!(
                    f,
                    "session layer {id} is poisoned by an earlier failure; \
                     call recover({id}) to quarantine its cache and resume"
                )
            }
        }
    }
}

impl Error for MercuryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MercuryError::Tensor(e) => Some(e),
            MercuryError::Config(e) => Some(e),
            MercuryError::UnsupportedOp { .. }
            | MercuryError::UnknownLayer(_)
            | MercuryError::NoParameters(_)
            | MercuryError::ShapeMismatch { .. }
            | MercuryError::NonfiniteInput { .. }
            | MercuryError::EnginePanic { .. }
            | MercuryError::Poisoned(_) => None,
        }
    }
}

#[doc(hidden)]
impl From<TensorError> for MercuryError {
    fn from(e: TensorError) -> Self {
        MercuryError::Tensor(e)
    }
}

#[doc(hidden)]
impl From<ConfigError> for MercuryError {
    fn from(e: ConfigError) -> Self {
        MercuryError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e = MercuryError::from(TensorError::ZeroDim);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("tensor error"));
        let c = MercuryError::from(ConfigError::ZeroBanks);
        assert!(c.source().is_some());
        assert!(c.to_string().contains("configuration"));
    }

    #[test]
    fn leaf_variants_have_no_source() {
        let e = MercuryError::UnsupportedOp {
            engine: "conv",
            op: "attention",
        };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("attention"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MercuryError>();
    }

    #[test]
    fn shape_mismatch_renders_free_dims_as_underscores() {
        let id = LayerId::for_tests(3);
        let e = MercuryError::ShapeMismatch {
            layer: id,
            expected: vec![None, Some(16)],
            actual: vec![4, 9],
        };
        assert!(e.source().is_none());
        let s = e.to_string();
        assert!(s.contains("[4, 9]"), "{s}");
        assert!(s.contains("[_, 16]"), "{s}");
    }

    #[test]
    fn fault_variants_name_the_layer() {
        let id = LayerId::for_tests(7);
        for e in [
            MercuryError::NonfiniteInput {
                layer: id,
                index: 5,
            },
            MercuryError::EnginePanic {
                layer: id,
                message: "boom".into(),
            },
            MercuryError::Poisoned(id),
        ] {
            assert!(e.source().is_none());
            assert!(e.to_string().contains(&id.to_string()), "{e}");
        }
        assert!(MercuryError::Poisoned(id).to_string().contains("recover"));
    }
}
