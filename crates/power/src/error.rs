//! Error types for power-state operations.

use std::error::Error;
use std::fmt;

use simcore::SimTime;

use crate::{PowerState, TransitionKind};

/// Errors returned by [`crate::PowerStateMachine`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerError {
    /// The requested transition cannot start from the current state
    /// (e.g. `Suspend` while already `Suspended`, or while mid-transition).
    InvalidTransition {
        /// State the machine was in when the transition was requested.
        from: PowerState,
        /// The transition that was requested.
        kind: TransitionKind,
    },
    /// The host's power profile does not implement the requested transition
    /// (e.g. a legacy server without working suspend-to-RAM).
    UnsupportedTransition(TransitionKind),
    /// `complete` was called but no transition is in flight.
    NotTransitioning,
    /// `complete` was called at a different instant than the transition's
    /// scheduled completion time — an event-scheduling bug in the caller.
    CompletionTimeMismatch {
        /// When the in-flight transition is due to complete.
        expected: SimTime,
        /// When `complete` was actually called.
        actual: SimTime,
    },
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::InvalidTransition { from, kind } => {
                write!(f, "cannot start {kind} transition from state {from}")
            }
            PowerError::UnsupportedTransition(kind) => {
                write!(f, "power profile does not support {kind}")
            }
            PowerError::NotTransitioning => write!(f, "no transition in flight"),
            PowerError::CompletionTimeMismatch { expected, actual } => write!(
                f,
                "transition completes at {expected}, but complete() was called at {actual}"
            ),
        }
    }
}

impl Error for PowerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = PowerError::InvalidTransition {
            from: PowerState::Suspended,
            kind: TransitionKind::Suspend,
        };
        assert!(e.to_string().contains("suspend"));
        assert!(e.to_string().contains("Suspended"));
        let e = PowerError::CompletionTimeMismatch {
            expected: SimTime::from_secs(10),
            actual: SimTime::from_secs(11),
        };
        assert!(e.to_string().contains("10s"));
    }
}
