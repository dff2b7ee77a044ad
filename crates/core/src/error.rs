use std::error::Error;
use std::fmt;

/// Errors raised by the simulation [`Engine`](crate::Engine).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
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
        /// The total the plan would send, `f_t^out(u)`.
        planned: u64,
        /// The step at which it happened (1-based, matching the paper).
        step: usize,
    },
    /// A balancer produced a plan for a differently-shaped graph.
    ShapeMismatch {
        /// Expected number of nodes.
        expected_nodes: usize,
        /// Number of nodes the plan covers.
        found_nodes: usize,
    },
    /// A balancer was asked to plan for a negative load it cannot
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
    /// A round's injection would take a node's load, or the engine's
    /// cumulative net injection, outside the `i64` range. The round is
    /// rolled back whole, like [`NegativeLoad`](EngineError::NegativeLoad).
    InjectionOverflow {
        /// The first node, in id order, whose load or running injection
        /// total would overflow.
        node: usize,
        /// The step whose injection overflowed (1-based).
        step: usize,
    },
    /// A worker thread of an earlier multi-threaded round protocol
    /// panicked mid-round, and the round was rolled back whole. No
    /// current execution path raises it (the range-split workers run
    /// only arithmetic whose preconditions the engine checks first); it
    /// stays so that snapshots and journals recording it still decode.
    WorkerPanic {
        /// The step during which the panic unwound (1-based).
        step: usize,
        /// The panic payload, stringified.
        message: String,
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
            EngineError::ShapeMismatch {
                expected_nodes,
                found_nodes,
            } => write!(
                f,
                "flow plan covers {found_nodes} nodes, engine expected {expected_nodes}"
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
            EngineError::WorkerPanic { step, message } => {
                write!(f, "worker thread panicked at step {step}: {message}")
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

        let e = EngineError::ShapeMismatch {
            expected_nodes: 8,
            found_nodes: 4,
        };
        assert!(e.to_string().contains('8') && e.to_string().contains('4'));

        let e = EngineError::NegativeLoad {
            node: 1,
            load: -2,
            step: 5,
        };
        assert!(e.to_string().contains("-2"));

        let e = EngineError::InjectionOverflow { node: 6, step: 2 };
        assert!(e.to_string().contains("node 6") && e.to_string().contains("step 2"));

        let e = EngineError::WorkerPanic {
            step: 4,
            message: String::from("boom"),
        };
        assert!(e.to_string().contains("step 4") && e.to_string().contains("boom"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
