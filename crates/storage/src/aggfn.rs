//! The aggregate function set `Ω = {count, min, max, sum, avg}` (Section 2).
//! The cube engines evaluate it over per-fact pre-aggregates
//! ([`PreAggregated`](crate::PreAggregated)), each fact contributing once.

/// An aggregate function from the paper's `Ω`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// `count` — number of measure values carried by the group's facts.
    /// With the fact itself as implicit measure this is `count(*)` over
    /// *distinct facts* (the corrected Example-3 semantics).
    Count,
    /// `min(M)`.
    Min,
    /// `max(M)`.
    Max,
    /// `sum(M)`.
    Sum,
    /// `avg(M) = sum(M)/count(M)` over per-fact contributions (Variation 2's
    /// correct semantics: each fact contributes once).
    Avg,
}

impl AggFn {
    /// All five functions.
    pub const ALL: [AggFn; 5] = [AggFn::Count, AggFn::Min, AggFn::Max, AggFn::Sum, AggFn::Avg];

    /// SQL-ish label for display.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AggFn::Count => "count",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Sum => "sum",
            AggFn::Avg => "avg",
        }
    }
}

impl std::fmt::Display for AggFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
