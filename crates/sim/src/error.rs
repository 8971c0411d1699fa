//! Error types shared by the simulation substrate.

use std::error::Error;
use std::fmt;

/// An invalid configuration was supplied to a network or scenario.
///
/// Returned by checks that validate their arguments, e.g. network
/// parameters the datapath cannot run with, or scenario reservations
/// that oversubscribe a link.
///
/// # Example
///
/// ```
/// use noc_sim::ConfigError;
///
/// let err = ConfigError::new("frame size must be positive");
/// assert_eq!(err.to_string(), "frame size must be positive");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given message.
    ///
    /// Messages follow the Rust convention: lowercase, no trailing
    /// punctuation.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Returns the human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_message() {
        let err = ConfigError::new("bad");
        assert_eq!(format!("{err}"), "bad");
        assert_eq!(err.message(), "bad");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }

    #[test]
    fn clone_and_eq() {
        let a = ConfigError::new("x");
        let b = a.clone();
        assert_eq!(a, b);
    }
}
