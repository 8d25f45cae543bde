//! Fleet-level rules: conditions evaluated on the *merged* view, not on
//! any single collector's state.
//!
//! The collector's per-flow `EventRule`s catch a hot flow inside one
//! process; fleet rules catch conditions no single collector can see —
//! a hop whose tail latency is fine in every pod but hot in aggregate,
//! or path-reconstruction stalling across the fleet. A fleet rule is a
//! [`QueryPlan`] plus a threshold: after every applied snapshot the
//! aggregator runs each rule's plan on the merged view and compares the
//! answer. Rules report both edges: [`FleetEdge::Fired`] when a
//! condition starts holding, [`FleetEdge::Cleared`] when it stops
//! (hysteresis — same contract as the collector tier's
//! `EventKind::Cleared`).

use pint_collector::FlowId;
use pint_query::{Projection, QueryPlan, QueryResult, Selector, ValueDecodeSpec};

/// The observable predicate of a fleet rule. Each condition reads one
/// projection of the rule's selection.
#[derive(Debug, Clone)]
pub enum FleetCondition {
    /// Holds when the ϕ-quantile of hop `hop`'s value stream — merged
    /// across every latency flow in scope, decoded through `decode` —
    /// exceeds `threshold` (value space), with at least `min_samples`
    /// packets backing it. Reads a decoded
    /// [`Projection::HopQuantiles`].
    QuantileAbove {
        /// 1-based hop index.
        hop: usize,
        /// Quantile in `[0, 1]`.
        phi: f64,
        /// Value-space threshold (e.g. nanoseconds).
        threshold: f64,
        /// Minimum in-scope packets before the rule may fire.
        min_samples: u64,
        /// The deployment's value codec, which maps the merged sketch's
        /// code back to a value.
        decode: ValueDecodeSpec,
    },
    /// Holds when the fraction of in-scope path-tracing flows with a
    /// fully reconstructed route drops below `min_fraction` (with at
    /// least `min_flows` such flows tracked) — fleet-wide inference is
    /// stalling. Reads [`Projection::PathCompletion`].
    PathCompletionBelow {
        /// Completion fraction in `[0, 1]` below which the rule holds.
        min_fraction: f64,
        /// Minimum path-tracing flows before the rule may fire.
        min_flows: usize,
    },
    /// Holds when total routing-inconsistency signals across in-scope
    /// flows reach `min_total` (the paper's §7 routing-change signal,
    /// summed fleet-wide). Reads [`Projection::Stats`].
    InconsistenciesAbove {
        /// Total contradictory digests required.
        min_total: u64,
    },
}

/// A fleet rule: a condition plus an optional flow scope.
///
/// The rule is one [`QueryPlan`] and a threshold: its selector is the
/// scope (or [`Selector::All`]) and its projection is the one its
/// condition reads. A rule therefore fires exactly when the answer to
/// [`plan`](Self::plan), run as a fleet query, crosses the threshold,
/// and [`FleetEvent::observed`] is the value that query returns.
///
/// Scopes are query-tier selectors, so a rule can watch an explicit
/// flow set *or* a structural predicate — e.g.
/// `Selector::PathThroughSwitch(s)` alarms on "every flow routed
/// through switch S" without the operator maintaining a flow list.
/// A quantile rule merges its flows' sketches in the selector's row
/// order, as the query does: ascending flow ID, except heaviest first
/// under [`Selector::TopK`] and request order under
/// [`Selector::WatchList`].
#[derive(Debug, Clone)]
pub struct FleetRule {
    /// The predicate.
    pub condition: FleetCondition,
    /// Restrict evaluation to the flows a selector names. `None` =
    /// every flow in the fleet view.
    pub scope: Option<Selector>,
}

impl FleetRule {
    /// A rule over every flow in the fleet view.
    pub fn new(condition: FleetCondition) -> Self {
        Self {
            condition,
            scope: None,
        }
    }

    /// Restricts the rule to an explicit flow set (shorthand for
    /// [`scoped_by`](Self::scoped_by) with [`Selector::FlowSet`]).
    pub fn scoped(self, flows: Vec<FlowId>) -> Self {
        self.scoped_by(Selector::FlowSet(flows))
    }

    /// Restricts the rule to the flows a query selector names — e.g.
    /// `Selector::PathThroughSwitch(19)` or `Selector::TopK(100)`.
    pub fn scoped_by(mut self, selector: Selector) -> Self {
        self.scope = Some(selector);
        self
    }

    /// The fleet query whose answer this rule compares against its
    /// threshold.
    pub fn plan(&self) -> QueryPlan {
        let projection = match self.condition {
            FleetCondition::QuantileAbove {
                hop, phi, decode, ..
            } => Projection::HopQuantiles {
                hop,
                phis: vec![phi],
                decode: Some(decode),
            },
            FleetCondition::PathCompletionBelow { .. } => Projection::PathCompletion,
            FleetCondition::InconsistenciesAbove { .. } => Projection::Stats,
        };
        QueryPlan {
            selector: self.scope.clone().unwrap_or(Selector::All),
            projection,
            options: Default::default(),
        }
    }

    /// Compares the answer to [`plan`](Self::plan) against the
    /// threshold: `Some(observed)` when the condition holds (the value
    /// that crossed it), `None` otherwise.
    pub(crate) fn observe(&self, answer: &QueryResult) -> Option<f64> {
        match (&self.condition, answer) {
            (
                &FleetCondition::QuantileAbove {
                    threshold,
                    min_samples,
                    ..
                },
                QueryResult::HopQuantilesDecoded {
                    samples, quantiles, ..
                },
            ) => {
                let &(_, value) = quantiles.first()?;
                (*samples >= min_samples && value > threshold).then_some(value)
            }
            (
                &FleetCondition::PathCompletionBelow {
                    min_fraction,
                    min_flows,
                },
                &QueryResult::PathCompletion { complete, total },
            ) => {
                if total == 0 || total < min_flows as u64 {
                    return None;
                }
                let fraction = complete as f64 / total as f64;
                (fraction < min_fraction).then_some(fraction)
            }
            (&FleetCondition::InconsistenciesAbove { min_total }, QueryResult::Stats(s)) => {
                (s.inconsistencies >= min_total).then_some(s.inconsistencies as f64)
            }
            _ => None,
        }
    }
}

/// Which edge of a rule's condition an event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEdge {
    /// The condition started holding.
    Fired,
    /// A previously fired condition stopped holding.
    Cleared,
}

/// A fleet-rule event, as drained from the aggregator.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// Index of the rule in [`FleetConfig::rules`](crate::FleetConfig).
    pub rule: usize,
    /// Fired or cleared.
    pub edge: FleetEdge,
    /// The observation at the edge: the quantile estimate, completion
    /// fraction, or inconsistency total that was compared against the
    /// rule's threshold (last-seen value for `Cleared`).
    pub observed: f64,
    /// Collectors contributing to the view that produced the event.
    pub collectors: usize,
}
