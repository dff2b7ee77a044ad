use std::error::Error;
use std::fmt;

/// Errors raised by the simulation [`Engine`](crate::Engine). Every
/// variant names the 1-based step it belongs to. The enum is exhaustive
/// on purpose: snapshot encoders match every variant, so a new one
/// fails to compile there instead of being encoded as something else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A balancer that declares itself non-overdrawing planned to send
    /// more tokens than the node holds.
    ///
    /// The paper's own schemes never overdraw ("NL" column of Table 1);
    /// seeing this error means an implementation violates its class.
    Overdraw {
        /// The node that planned to send too much.
        node: usize,
        /// The node's load `x_t(u)` before the step.
        load: i64,
        /// The total the node would send, `f_t^out(u)`.
        planned: u64,
        /// The step at which it happened (1-based, matching the paper).
        step: usize,
    },
    /// A balancer was asked to split a negative load it cannot
    /// handle (only overdraw-capable schemes accept negative loads).
    NegativeLoad {
        /// The node with negative load.
        node: usize,
        /// Its load.
        load: i64,
        /// The step at which it was observed.
        step: usize,
    },
    /// A topology schedule emitted an event the graph rejected (an
    /// absent edge, a duplicate edge, a double sleep, …). The round is
    /// rolled back whole: loads, injection and any already-applied
    /// events of the same round.
    Topology {
        /// The step whose churn was rejected (1-based).
        step: usize,
        /// The graph layer's description of the violation.
        reason: String,
    },
    /// A round's injection would take a node's load, the engine's
    /// cumulative net injection, or the positive load total
    /// `Σ max(x, 0)` (which bounds every load the round's flows can
    /// form) outside the `i64` range. The round is rolled back whole,
    /// like [`NegativeLoad`](EngineError::NegativeLoad).
    InjectionOverflow {
        /// The first node, in id order, whose load, running injection
        /// total or running positive load total would overflow.
        node: usize,
        /// The step whose injection overflowed (1-based).
        step: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Overdraw {
                node,
                load,
                planned,
                step,
            } => write!(
                f,
                "node {node} planned to send {planned} tokens but holds only {load} at step {step}"
            ),
            EngineError::NegativeLoad { node, load, step } => write!(
                f,
                "node {node} has negative load {load} at step {step} under a scheme that forbids it"
            ),
            EngineError::Topology { step, reason } => {
                write!(f, "topology event rejected at step {step}: {reason}")
            }
            EngineError::InjectionOverflow { node, step } => {
                write!(f, "injection at step {step} overflows i64 at node {node}")
            }
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_fields() {
        let e = EngineError::Overdraw {
            node: 3,
            load: 5,
            planned: 9,
            step: 12,
        };
        let msg = e.to_string();
        assert!(msg.contains("node 3") && msg.contains('9') && msg.contains("step 12"));

        let e = EngineError::NegativeLoad {
            node: 1,
            load: -2,
            step: 5,
        };
        assert!(e.to_string().contains("-2"));

        let e = EngineError::InjectionOverflow { node: 6, step: 2 };
        assert!(e.to_string().contains("node 6") && e.to_string().contains("step 2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
