use std::error::Error;
use std::fmt;

/// Error type for MCACHE configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McacheError {
    /// A configuration parameter was zero or otherwise unusable.
    InvalidConfig(String),
}

impl fmt::Display for McacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McacheError::InvalidConfig(msg) => write!(f, "invalid mcache configuration: {msg}"),
        }
    }
}

impl Error for McacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = McacheError::InvalidConfig("need at least one bank".to_string());
        assert_eq!(
            e.to_string(),
            "invalid mcache configuration: need at least one bank"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<McacheError>();
    }
}
