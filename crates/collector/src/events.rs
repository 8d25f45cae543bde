//! Streaming event detection.
//!
//! Post-hoc analysis answers "what was the p99 yesterday"; operators also
//! need "tell me *now* when a hop's tail latency crosses X" (cf.
//! *Programmable Event Detection for In-Band Network Telemetry*). Rules
//! are evaluated on the shard workers as digest batches are applied, so
//! detection latency is one batch, not one query cycle.
//!
//! A rule is a [`RuleCondition`] plus an optional per-rule *cooldown*,
//! with full hysteresis: rules report both edges of a condition.
//!
//! * **Rising edge** — an armed rule whose condition starts holding
//!   fires once (its condition-specific [`EventKind`]).
//! * **Falling edge** — a fired rule whose condition later *stops*
//!   holding emits an explicit [`EventKind::Cleared`] event and
//!   re-arms, so operators see recoveries instead of inferring them
//!   from silence, and the rule can fire again on the next rising edge.
//! * **Cooldown** — with [`EventRule::with_cooldown`], a fired rule is
//!   re-checked only after the given quiet period (in sink-timestamp
//!   units): if the condition still holds it re-fires (bounded alarm
//!   stream for a persistently hot flow); if it cleared meanwhile, the
//!   `Cleared` event is emitted then. Without a cooldown, clearing is
//!   detected at the normal evaluation stride.
//!
//! The fired set is a bitmask in the flow table, so a flow that is
//! evicted and later recreated starts re-armed (with no `Cleared`
//! event — eviction is not a recovery signal). Fired events go to one
//! queue the shards share, drained by `Collector::drain_events`. It
//! grows only as events arrive, so a collector whose rules never fire
//! holds no event memory, and it never holds more than
//! [`EVENT_CAPACITY`](crate::config::EVENT_CAPACITY) events: past that
//! a shard counts the event as dropped and never blocks.

use crate::config::FlowId;
use pint_core::FlowRecorder;

/// The observable predicate of a rule — what to test on a flow's
/// recorder.
#[derive(Debug, Clone)]
pub enum RuleCondition {
    /// Holds when hop `hop`'s ϕ-quantile of the flow's value stream
    /// exceeds `threshold` (value space, e.g. nanoseconds) with at least
    /// `min_samples` recorded packets backing the estimate.
    QuantileAbove {
        /// 1-based hop index.
        hop: usize,
        /// Quantile in `[0, 1]`, e.g. `0.99`.
        phi: f64,
        /// Value-space threshold.
        threshold: f64,
        /// Minimum recorded packets before the rule may fire (suppresses
        /// noise from tiny samples).
        min_samples: u64,
    },
    /// Holds when a path-tracing flow's route is fully reconstructed.
    PathResolved,
    /// Holds when a flow's digests contradict its inferred path at least
    /// `min_inconsistencies` times — the paper's §7 routing-change /
    /// multipath signal.
    PathChanged {
        /// Contradictory digests required before firing.
        min_inconsistencies: u64,
    },
    /// Holds when some value appears in at least a `theta` fraction of
    /// hop `hop`'s stream (with `min_samples` backing it).
    FrequentValue {
        /// 1-based hop index.
        hop: usize,
        /// Frequency threshold in `(0, 1]`.
        theta: f64,
        /// Minimum recorded packets before the rule may fire.
        min_samples: u64,
    },
}

/// A user-registered detection rule: a condition plus firing policy.
#[derive(Debug, Clone)]
pub struct EventRule {
    /// The predicate evaluated against each touched flow's recorder.
    pub condition: RuleCondition,
    /// Quiet period (sink-timestamp units) after a firing during which
    /// the rule stays silent for that flow; once elapsed the rule
    /// re-arms. `None` (default) = fire once per flow residency.
    pub cooldown: Option<u64>,
}

impl EventRule {
    /// A rule that fires once per flow residency (rising edge).
    pub fn new(condition: RuleCondition) -> Self {
        Self {
            condition,
            cooldown: None,
        }
    }

    /// Lets the rule re-fire after `quiet` sink-timestamp units of
    /// silence (see the module docs for semantics).
    pub fn with_cooldown(mut self, quiet: u64) -> Self {
        self.cooldown = Some(quiet.max(1));
        self
    }
}

impl From<RuleCondition> for EventRule {
    fn from(condition: RuleCondition) -> Self {
        Self::new(condition)
    }
}

/// What a fired rule observed.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Quantile estimate that crossed the threshold.
    QuantileAbove {
        /// 1-based hop index.
        hop: usize,
        /// The quantile queried.
        phi: f64,
        /// The estimate (value space).
        value: f64,
    },
    /// The reconstructed path.
    PathResolved {
        /// Switch IDs, hop 1..k.
        path: Vec<u64>,
    },
    /// Routing-change signal.
    PathChanged {
        /// Contradictory digests seen.
        inconsistencies: u64,
    },
    /// Heavy-hitter value detected.
    FrequentValue {
        /// 1-based hop index.
        hop: usize,
        /// The frequent value.
        value: u64,
        /// Its estimated fraction of the hop's stream.
        fraction: f64,
    },
    /// A previously fired rule's condition stopped holding for this
    /// flow (falling edge). The rule index is in [`Event::rule`]; the
    /// rule is re-armed and will fire again on its next rising edge.
    Cleared,
}

/// A fired event, as delivered to the collector's event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Flow the event concerns.
    pub flow: FlowId,
    /// Shard that detected it.
    pub shard: usize,
    /// Index of the triggering rule in `CollectorConfig::rules`.
    pub rule: usize,
    /// Observation details.
    pub kind: EventKind,
    /// Sink timestamp of the batch that triggered the rule.
    pub ts: u64,
}

impl RuleCondition {
    /// Evaluates the condition against one flow's recorder; `Some(kind)`
    /// means the rule fires now. Called only for rules currently armed
    /// for this flow.
    pub(crate) fn evaluate(&self, rec: &mut dyn FlowRecorder) -> Option<EventKind> {
        match *self {
            RuleCondition::QuantileAbove {
                hop,
                phi,
                threshold,
                min_samples,
            } => {
                if rec.packets() < min_samples {
                    return None;
                }
                let value = rec.quantile(hop, phi)?;
                (value > threshold).then_some(EventKind::QuantileAbove { hop, phi, value })
            }
            RuleCondition::PathResolved => {
                let progress = rec.path_progress()?;
                let path = progress.path?;
                Some(EventKind::PathResolved { path })
            }
            RuleCondition::PathChanged {
                min_inconsistencies,
            } => {
                let inconsistencies = rec.inconsistencies();
                (inconsistencies >= min_inconsistencies)
                    .then_some(EventKind::PathChanged { inconsistencies })
            }
            RuleCondition::FrequentValue {
                hop,
                theta,
                min_samples,
            } => {
                if rec.packets() < min_samples {
                    return None;
                }
                let (value, fraction) = rec.frequent(hop, theta).into_iter().next()?;
                Some(EventKind::FrequentValue {
                    hop,
                    value,
                    fraction,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
    use pint_core::statictrace::{PathTracer, TracerConfig};
    use pint_core::value::Digest;

    #[test]
    fn quantile_rule_requires_samples_then_fires() {
        let agg = DynamicAggregator::new(3, 8, 100.0, 1.0e7);
        let mut rec = DynamicRecorder::new_exact(agg.clone(), 2);
        let rule = EventRule::new(RuleCondition::QuantileAbove {
            hop: 1,
            phi: 0.5,
            threshold: 5_000.0,
            min_samples: 100,
        });
        for pid in 0..500u64 {
            let mut d = Digest::new(1);
            for hop in 1..=2 {
                agg.encode_hop(pid, hop, 10_000.0, &mut d, 0);
            }
            rec.record(pid, &d, 0);
            let fired = rule.condition.evaluate(&mut rec).is_some();
            if rec.packets() < 100 {
                assert!(!fired, "fired below min_samples at {pid}");
            }
        }
        match rule.condition.evaluate(&mut rec) {
            Some(EventKind::QuantileAbove { hop: 1, value, .. }) => {
                assert!(value > 5_000.0, "median {value}");
            }
            other => panic!("expected fire, got {other:?}"),
        }
    }

    #[test]
    fn path_resolved_rule_fires_on_completion() {
        let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
        let path = [2u64, 11, 19];
        let mut dec = tracer.decoder((0..32).collect(), path.len());
        let rule = EventRule::new(RuleCondition::PathResolved);
        let mut pid = 0u64;
        loop {
            pid += 1;
            assert!(pid < 100_000, "no convergence");
            if pint_core::statictrace::PathDecoder::absorb(
                &mut dec,
                pid,
                &tracer.encode_path(pid, &path),
            ) {
                break;
            }
            assert!(rule.condition.evaluate(&mut dec).is_none(), "fired early");
        }
        match rule.condition.evaluate(&mut dec) {
            Some(EventKind::PathResolved { path: p }) => assert_eq!(p, path),
            other => panic!("expected fire, got {other:?}"),
        }
    }

    #[test]
    fn cooldown_builder_clamps_to_positive() {
        let rule = EventRule::new(RuleCondition::PathResolved).with_cooldown(0);
        assert_eq!(rule.cooldown, Some(1), "zero cooldown clamps to 1 tick");
        let rule: EventRule = RuleCondition::PathResolved.into();
        assert_eq!(rule.cooldown, None, "From keeps rising-edge default");
    }
}
