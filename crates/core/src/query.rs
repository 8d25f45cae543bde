//! The PINT query language and Query Engine (paper §3.3–3.4).
//!
//! The paper's query is the tuple ⟨value, aggregation, bit-budget,
//! optional: space-budget, flow definition, frequency⟩. [`QuerySpec`]
//! carries the four that shape the plan; flows are keyed by each
//! digest report's `flow`, and a recorder's constructor sets its
//! per-flow space. The operator registers
//! multiple queries plus a *global* bit budget; the Query Engine compiles
//! them into an **execution plan** — a probability distribution over query
//! *sets*, each set's cumulative bit budget fitting the global budget
//! (Fig. 3). Every switch evaluates the same selection hash on the packet
//! ID, so all switches run the same set on a given packet without
//! communication (§4.1).

use crate::hash::GlobalHash;
use crate::value::MetadataKind;

/// The three aggregation types (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationKind {
    /// Fold across the packet's path (max/min/sum/product).
    PerPacket,
    /// Values fixed per (flow, switch); decode across packets
    /// (path tracing).
    StaticPerFlow,
    /// Per-(flow, switch) value streams; sample across packets
    /// (latency quantiles).
    DynamicPerFlow,
}

/// One telemetry query (§3.3).
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Stable identifier (also salts the query's hash family).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// The value the query collects.
    pub value: MetadataKind,
    /// The aggregation type.
    pub aggregation: AggregationKind,
    /// Per-packet bits this query consumes when selected.
    pub bit_budget: u32,
    /// Desired fraction of packets carrying this query (0, 1].
    pub frequency: f64,
}

impl QuerySpec {
    /// Convenience constructor with frequency 1.
    pub fn new(
        id: u32,
        name: &str,
        value: MetadataKind,
        aggregation: AggregationKind,
        bit_budget: u32,
    ) -> Self {
        Self {
            id,
            name: name.to_owned(),
            value,
            aggregation,
            bit_budget,
            frequency: 1.0,
        }
    }

    /// Sets the query frequency (fraction of packets; §3.3).
    pub fn with_frequency(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "frequency must be in (0,1]");
        self.frequency = f;
        self
    }
}

/// Errors from plan compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A single query's bit budget exceeds the global budget.
    QueryTooWide {
        /// The offending query.
        query: u32,
        /// Its bit budget.
        bits: u32,
        /// The global budget.
        global: u32,
    },
    /// The requested frequencies cannot be met even with perfect packing.
    Infeasible {
        /// Total requested bit-fraction (Σ freq·bits / global).
        demand: f64,
    },
    /// No queries were supplied.
    Empty,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::QueryTooWide {
                query,
                bits,
                global,
            } => write!(
                f,
                "query {query} needs {bits} bits, above the global budget {global}"
            ),
            PlanError::Infeasible { demand } => write!(
                f,
                "requested frequencies need {demand:.2}× the available digest capacity"
            ),
            PlanError::Empty => write!(f, "no queries supplied"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A compiled execution plan: disjoint probabilities over query subsets
/// (Fig. 3's table, e.g. `{Q2}: 0.4, {Q3}: 0.3, {Q1,Q4}: 0.3`).
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// (query-ID set, probability) entries; probabilities sum to ≤ 1.
    sets: Vec<(Vec<u32>, f64)>,
    /// Selection hash shared by all switches.
    selector: GlobalHash,
    global_budget: u32,
}

impl ExecutionPlan {
    /// The query sets and their probabilities.
    pub fn sets(&self) -> &[(Vec<u32>, f64)] {
        &self.sets
    }

    /// The global per-packet bit budget.
    pub fn global_budget(&self) -> u32 {
        self.global_budget
    }

    /// Returns the query set to run on packet `pid` — identical at every
    /// switch and at the sink, by the global-hash argument of §4.1.
    pub fn select(&self, pid: u64) -> &[u32] {
        let u = self.selector.unit1(pid);
        let mut acc = 0.0;
        for (set, p) in &self.sets {
            acc += p;
            if u < acc {
                return set;
            }
        }
        &[]
    }

    /// Fraction of packets on which query `id` runs under this plan.
    pub fn effective_frequency(&self, id: u32) -> f64 {
        self.sets
            .iter()
            .filter(|(set, _)| set.contains(&id))
            .map(|(_, p)| p)
            .sum()
    }
}

/// Compiles queries into execution plans.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    seed: u64,
}

impl QueryEngine {
    /// Creates an engine; `seed` keys the selection hash that switches and
    /// sink share.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Compiles an execution plan: a water-filling packer that repeatedly
    /// groups the queries with the largest unmet frequency into a set
    /// fitting the global budget and assigns it the limiting probability.
    ///
    /// Exact for the paper's configurations (e.g. Fig. 11: path@1 +
    /// latency@15/16 + HPCC@1/16 under 16 bits → `{path, latency}: 15/16,
    /// {path, hpcc}: 1/16`).
    pub fn plan(
        &self,
        queries: &[QuerySpec],
        global_budget: u32,
    ) -> Result<ExecutionPlan, PlanError> {
        if queries.is_empty() {
            return Err(PlanError::Empty);
        }
        for q in queries {
            if q.bit_budget > global_budget {
                return Err(PlanError::QueryTooWide {
                    query: q.id,
                    bits: q.bit_budget,
                    global: global_budget,
                });
            }
        }
        let demand: f64 = queries
            .iter()
            .map(|q| q.frequency * f64::from(q.bit_budget))
            .sum::<f64>()
            / f64::from(global_budget);
        let mut residual: Vec<(usize, f64)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (i, q.frequency))
            .collect();
        let mut sets: Vec<(Vec<u32>, f64)> = Vec::new();
        let mut total_p = 0.0;
        const EPS: f64 = 1e-12;
        while residual.iter().any(|&(_, r)| r > EPS) {
            // Greedy: largest residual first, pack while bits fit.
            residual.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            let mut bits = 0u32;
            let mut chosen: Vec<usize> = Vec::new();
            for &(i, r) in &residual {
                if r > EPS && bits + queries[i].bit_budget <= global_budget {
                    bits += queries[i].bit_budget;
                    chosen.push(i);
                }
            }
            if chosen.is_empty() {
                break;
            }
            // The set runs until its most constrained member is satisfied.
            let p_set = chosen
                .iter()
                .map(|&i| residual.iter().find(|&&(j, _)| j == i).expect("chosen").1)
                .fold(f64::INFINITY, f64::min)
                .min(1.0 - total_p);
            if p_set <= EPS {
                break;
            }
            for (j, r) in residual.iter_mut() {
                if chosen.contains(j) {
                    *r -= p_set;
                }
            }
            let mut ids: Vec<u32> = chosen.iter().map(|&i| queries[i].id).collect();
            ids.sort_unstable();
            sets.push((ids, p_set));
            total_p += p_set;
            if 1.0 - total_p <= EPS {
                break;
            }
        }
        if residual.iter().any(|&(_, r)| r > 1e-9) {
            // Greedy packing can strand capacity on symmetric demands
            // (e.g. three queries at 2/3 each in two lanes). When every
            // query has the same bit budget the problem is exactly
            // fractional scheduling on ⌊global/b⌋ identical machines, and
            // McNaughton's wrap-around rule is optimal.
            if let Some(plan) = self.mcnaughton(queries, global_budget) {
                return Ok(plan);
            }
            return Err(PlanError::Infeasible { demand });
        }
        Ok(ExecutionPlan {
            sets,
            selector: GlobalHash::new(self.seed ^ 0x51EC_7104),
            global_budget,
        })
    }

    /// McNaughton wrap-around schedule for uniform bit budgets: lay each
    /// query's frequency on a `[0,1)` timeline across `m = ⌊global/b⌋`
    /// lanes; every maximal timeline segment becomes one query set.
    fn mcnaughton(&self, queries: &[QuerySpec], global_budget: u32) -> Option<ExecutionPlan> {
        let b = queries.first()?.bit_budget;
        if queries.iter().any(|q| q.bit_budget != b) {
            return None;
        }
        let m = (global_budget / b) as f64;
        let total: f64 = queries.iter().map(|q| q.frequency).sum();
        if total > m + 1e-9 || queries.iter().any(|q| q.frequency > 1.0 + 1e-12) {
            return None;
        }
        // Each query occupies [start, start+freq) on the wrapped timeline.
        let mut intervals: Vec<(f64, f64, u32)> = Vec::new(); // (start, end, id) unwrapped
        let mut cursor = 0.0f64;
        for q in queries {
            let s = cursor;
            let e = cursor + q.frequency;
            // Split on wrap points so each piece lives inside one lane.
            let (mut lo, hi) = (s, e);
            while lo < hi - 1e-12 {
                let lane_end = lo.floor() + 1.0;
                let piece_end = hi.min(lane_end);
                intervals.push((lo % 1.0, (piece_end - lo) + lo % 1.0, q.id));
                lo = piece_end;
            }
            cursor = e;
        }
        // Breakpoints on [0,1).
        let mut cuts: Vec<f64> = intervals
            .iter()
            .flat_map(|&(s, e, _)| [s, e.min(1.0)])
            .chain([0.0, 1.0])
            .collect();
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let mut sets = Vec::new();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi - lo < 1e-12 {
                continue;
            }
            let mid = (lo + hi) / 2.0;
            let mut ids: Vec<u32> = intervals
                .iter()
                .filter(|&&(s, e, _)| s <= mid && mid < e)
                .map(|&(_, _, id)| id)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            if !ids.is_empty() {
                debug_assert!(ids.len() as f64 <= m + 1e-9);
                sets.push((ids, hi - lo));
            }
        }
        Some(ExecutionPlan {
            sets,
            selector: GlobalHash::new(self.seed ^ 0x51EC_7104),
            global_budget,
        })
    }

    /// Like [`Self::plan`], but when the requested frequencies are
    /// infeasible, scales all of them down uniformly until they fit and
    /// returns the applied scale factor (1.0 when no scaling was needed).
    pub fn plan_best_effort(
        &self,
        queries: &[QuerySpec],
        global_budget: u32,
    ) -> Result<(ExecutionPlan, f64), PlanError> {
        match self.plan(queries, global_budget) {
            Ok(p) => Ok((p, 1.0)),
            Err(PlanError::Infeasible { demand }) => {
                // Leave 1% slack so greedy packing rounding cannot tip the
                // scaled instance back over the edge.
                let scale = (1.0 / demand) * 0.99;
                let scaled: Vec<QuerySpec> = queries
                    .iter()
                    .map(|q| {
                        let mut q = q.clone();
                        q.frequency = (q.frequency * scale).max(1e-9);
                        q
                    })
                    .collect();
                self.plan(&scaled, global_budget).map(|p| (p, scale))
            }
            Err(e) => Err(e),
        }
    }
}

/// The application classes PINT enables, per aggregation mode
/// (paper Table 2). Documentation-level enumeration used by examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseCase {
    /// Congestion control with in-network support (per-packet).
    CongestionControl,
    /// Diagnosis of short-lived congestion events (per-packet).
    CongestionAnalysis,
    /// Determine network state, i.e. queue status (per-packet).
    NetworkTomography,
    /// Determine under-utilized network elements (per-packet).
    PowerManagement,
    /// Detect sudden changes in network status (per-packet).
    RealTimeAnomalyDetection,
    /// Detect the path taken by a flow (static per-flow).
    PathTracing,
    /// Identify unwanted paths taken by a flow (static per-flow).
    RoutingMisconfiguration,
    /// Check for policy violations (static per-flow).
    PathConformance,
    /// Load balance traffic based on network status (dynamic per-flow).
    UtilizationAwareRouting,
    /// Determine links processing more traffic (dynamic per-flow).
    LoadImbalance,
    /// Determine flows experiencing high latency (dynamic per-flow).
    NetworkTroubleshooting,
}

impl UseCase {
    /// The aggregation mode Table 2 assigns to this use case.
    pub fn aggregation(self) -> AggregationKind {
        use UseCase::*;
        match self {
            CongestionControl
            | CongestionAnalysis
            | NetworkTomography
            | PowerManagement
            | RealTimeAnomalyDetection => AggregationKind::PerPacket,
            PathTracing | RoutingMisconfiguration | PathConformance => {
                AggregationKind::StaticPerFlow
            }
            UtilizationAwareRouting | LoadImbalance | NetworkTroubleshooting => {
                AggregationKind::DynamicPerFlow
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u32, bits: u32, freq: f64) -> QuerySpec {
        QuerySpec::new(
            id,
            &format!("q{id}"),
            MetadataKind::SwitchId,
            AggregationKind::StaticPerFlow,
            bits,
        )
        .with_frequency(freq)
    }

    #[test]
    fn single_query_full_frequency() {
        let engine = QueryEngine::new(1);
        let plan = engine.plan(&[q(1, 8, 1.0)], 16).unwrap();
        assert_eq!(plan.sets().len(), 1);
        assert!((plan.effective_frequency(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_eight_bit_queries_share_sixteen_bits() {
        // §3.4: "if the global bit-budget is 16 bits, we can run two
        // 8-bit-budget queries on the same packet".
        let engine = QueryEngine::new(2);
        let plan = engine.plan(&[q(1, 8, 1.0), q(2, 8, 1.0)], 16).unwrap();
        assert!((plan.effective_frequency(1) - 1.0).abs() < 1e-9);
        assert!((plan.effective_frequency(2) - 1.0).abs() < 1e-9);
        assert_eq!(plan.sets().len(), 1);
        assert_eq!(plan.sets()[0].0, vec![1, 2]);
    }

    #[test]
    fn fig11_configuration() {
        // Path tracing on all packets, latency on 15/16, HPCC on 1/16,
        // 16-bit global budget (§6.4).
        let engine = QueryEngine::new(3);
        let queries = [
            q(1, 8, 1.0),         // path
            q(2, 8, 15.0 / 16.0), // latency
            q(3, 8, 1.0 / 16.0),  // HPCC
        ];
        let plan = engine.plan(&queries, 16).unwrap();
        assert!((plan.effective_frequency(1) - 1.0).abs() < 1e-9);
        assert!((plan.effective_frequency(2) - 15.0 / 16.0).abs() < 1e-9);
        assert!((plan.effective_frequency(3) - 1.0 / 16.0).abs() < 1e-9);
        // Two sets: {path, latency} at 15/16 and {path, hpcc} at 1/16.
        assert_eq!(plan.sets().len(), 2);
    }

    #[test]
    fn selection_matches_probabilities() {
        let engine = QueryEngine::new(4);
        let queries = [q(1, 8, 1.0), q(2, 8, 0.5), q(3, 8, 0.5)];
        let plan = engine.plan(&queries, 16).unwrap();
        let n = 200_000u64;
        let mut counts = std::collections::HashMap::new();
        for pid in 0..n {
            for &id in plan.select(pid) {
                *counts.entry(id).or_insert(0u64) += 1;
            }
        }
        for q in &queries {
            let measured = *counts.get(&q.id).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (measured - q.frequency).abs() < 0.01,
                "query {}: measured {measured} vs {}",
                q.id,
                q.frequency
            );
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let engine = QueryEngine::new(5);
        let plan = engine.plan(&[q(1, 8, 0.7), q(2, 8, 0.9)], 16).unwrap();
        for pid in 0..1000 {
            assert_eq!(plan.select(pid), plan.select(pid));
        }
    }

    #[test]
    fn too_wide_query_rejected() {
        let engine = QueryEngine::new(6);
        let err = engine.plan(&[q(1, 32, 1.0)], 16).unwrap_err();
        assert!(matches!(err, PlanError::QueryTooWide { bits: 32, .. }));
    }

    #[test]
    fn infeasible_frequencies_rejected() {
        // Three full-frequency 8-bit queries cannot fit 16 bits.
        let engine = QueryEngine::new(7);
        let err = engine
            .plan(&[q(1, 8, 1.0), q(2, 8, 1.0), q(3, 8, 1.0)], 16)
            .unwrap_err();
        assert!(matches!(err, PlanError::Infeasible { .. }));
    }

    #[test]
    fn empty_queries_rejected() {
        let engine = QueryEngine::new(8);
        assert_eq!(engine.plan(&[], 16).unwrap_err(), PlanError::Empty);
    }

    #[test]
    fn mixed_widths_pack() {
        // 8+4+4 into 16 at full frequency: all coexist.
        let engine = QueryEngine::new(9);
        let plan = engine
            .plan(&[q(1, 8, 1.0), q(2, 4, 1.0), q(3, 4, 1.0)], 16)
            .unwrap();
        for id in 1..=3 {
            assert!((plan.effective_frequency(id) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn best_effort_scales_infeasible_plans() {
        let engine = QueryEngine::new(10);
        // Demand 1.5× the capacity.
        let queries = [q(1, 8, 1.0), q(2, 8, 1.0), q(3, 8, 1.0)];
        let (plan, scale) = engine.plan_best_effort(&queries, 16).unwrap();
        assert!(scale < 0.7 && scale > 0.6, "scale {scale}");
        for id in 1..=3 {
            let f = plan.effective_frequency(id);
            assert!((f - scale).abs() < 0.02, "query {id}: {f} vs {scale}");
        }
    }

    #[test]
    fn best_effort_passthrough_when_feasible() {
        let engine = QueryEngine::new(11);
        let (_, scale) = engine.plan_best_effort(&[q(1, 8, 1.0)], 16).unwrap();
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn table2_aggregation_modes() {
        assert_eq!(
            UseCase::CongestionControl.aggregation(),
            AggregationKind::PerPacket
        );
        assert_eq!(
            UseCase::PathTracing.aggregation(),
            AggregationKind::StaticPerFlow
        );
        assert_eq!(
            UseCase::NetworkTroubleshooting.aggregation(),
            AggregationKind::DynamicPerFlow
        );
    }
}
