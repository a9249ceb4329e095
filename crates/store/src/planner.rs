//! The query planner: per [`LogFilter`], pick how the store answers —
//! full scan, postings lookup, or rollup — and record the choice.
//!
//! The rules are deliberately small and total:
//!
//! **Log queries** ([`plan_logs`]): use [`QueryPlan::Postings`] iff the
//! filter names at least one address or event kind (otherwise every row
//! matches and a scan is already optimal) and its window holds a
//! committed block. Every committed segment carries its sidecar; one
//! that fails its checks is scanned instead at query time, which is
//! always correct.
//!
//! **Aggregate queries** ([`plan_aggregate`]): use [`QueryPlan::Rollup`]
//! iff the committed rollups cover exactly the store's head, the filter
//! spans the whole committed range with no resume cursor, and the
//! grouping dimension can absorb the filter's selection (a per-kind
//! grouping can apply a `kinds` filter by picking rows; it cannot apply
//! an `addresses` filter). Anything else folds pages through the normal
//! log path.
//!
//! Every decision is recorded both in the returned
//! `QueryStats.plan` and in `store.plan.*` counters, so a `RunReport`
//! shows exactly how a run's queries were served.

use crate::manifest::Manifest;
use mev_chain::{LogFilter, QueryPlan};

/// The grouping dimension of an aggregate query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// Per event family ([`mev_chain::EventKind`] tag order).
    Kind,
    /// Per emitting contract address.
    Address,
    /// Per calendar month of the archived timeline.
    Epoch,
}

/// Bump the `store.plan.*` counter for a decision. Called once per
/// query, at plan time.
pub fn record(plan: QueryPlan) {
    match plan {
        QueryPlan::FullScan => mev_obs::counter("store.plan.full_scan").inc(),
        QueryPlan::Postings => mev_obs::counter("store.plan.postings").inc(),
        QueryPlan::Rollup => mev_obs::counter("store.plan.rollup").inc(),
    }
}

/// Choose the strategy for a log query against the committed state.
pub fn plan_logs(filter: &LogFilter, manifest: &Manifest) -> QueryPlan {
    if !filter.is_selective() {
        return QueryPlan::FullScan;
    }
    let Some(head) = manifest.head_block() else {
        return QueryPlan::FullScan;
    };
    let genesis = manifest.timeline.genesis_number;
    if filter.window(genesis, head).is_none() {
        // Empty window: neither path reads anything.
        return QueryPlan::FullScan;
    }
    QueryPlan::Postings
}

/// Choose the strategy for an aggregate query grouped by `group_by`.
/// Returns [`QueryPlan::Rollup`] only when the committed rollup tables
/// can answer it exactly; otherwise the plan the fold-over-pages path
/// would use.
pub fn plan_aggregate(filter: &LogFilter, group_by: GroupBy, manifest: &Manifest) -> QueryPlan {
    let fallback = plan_logs(filter, manifest);
    let Some(head) = manifest.head_block() else {
        return fallback;
    };
    if manifest.rollups.head_block != Some(head) || filter.resume.is_some() {
        return fallback;
    }
    let genesis = manifest.timeline.genesis_number;
    let full_window =
        filter.from_block.is_none_or(|f| f <= genesis) && filter.to_block.is_none_or(|t| t >= head);
    if !full_window {
        return fallback;
    }
    let answerable = match group_by {
        GroupBy::Kind => filter.addresses.is_empty(),
        GroupBy::Address => filter.kinds.is_empty(),
        GroupBy::Epoch => filter.addresses.is_empty() && filter.kinds.is_empty(),
    };
    if answerable {
        QueryPlan::Rollup
    } else {
        fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::LogBloom;
    use crate::manifest::SegmentMeta;
    use crate::postings::IndexMeta;
    use crate::segment::segment_file_name;
    use mev_chain::{Cursor, EventKind};
    use mev_types::{Address, Timeline};

    fn seg(index: u64, first: u64, last: u64) -> SegmentMeta {
        SegmentMeta {
            index,
            file: segment_file_name(index),
            first_block: first,
            last_block: last,
            blocks: last - first + 1,
            tx_count: 0,
            log_count: 0,
            bytes: 0,
            bloom: LogBloom::new(),
            postings: Some(IndexMeta {
                file: format!("seg-{index:05}.idx"),
                bytes: 1,
                rows: 0,
                addrs: 0,
                chunk_rows: 512,
                dict_addrs: false,
            }),
        }
    }

    fn manifest(segs: Vec<SegmentMeta>) -> Manifest {
        let mut m = Manifest::new(Timeline::paper_span(100), 4);
        m.segments = segs;
        m
    }

    fn selective() -> LogFilter {
        LogFilter::new().address(Address::from_index(1))
    }

    #[test]
    fn unselective_filters_always_scan() {
        let g = 10_000_000;
        let m = manifest(vec![seg(0, g, g + 3)]);
        assert_eq!(plan_logs(&LogFilter::new(), &m), QueryPlan::FullScan);
        assert_eq!(
            plan_logs(&LogFilter::new().from_block(g).limit(5), &m),
            QueryPlan::FullScan
        );
        assert_eq!(plan_logs(&selective(), &m), QueryPlan::Postings);
    }

    #[test]
    fn empty_windows_and_stores_scan() {
        let g = 10_000_000;
        let m = manifest(vec![seg(0, g, g + 3)]);
        assert_eq!(
            plan_logs(&selective().from_block(g + 4), &m),
            QueryPlan::FullScan
        );
        assert_eq!(
            plan_logs(&selective(), &manifest(vec![])),
            QueryPlan::FullScan
        );
    }

    #[test]
    fn aggregates_use_rollups_only_when_exact() {
        let g = 10_000_000;
        let mut m = manifest(vec![seg(0, g, g + 3)]);
        // Rollups behind the head → fold.
        assert_ne!(
            plan_aggregate(&LogFilter::new(), GroupBy::Kind, &m),
            QueryPlan::Rollup
        );
        m.rollups.head_block = Some(g + 3);
        assert_eq!(
            plan_aggregate(&LogFilter::new(), GroupBy::Kind, &m),
            QueryPlan::Rollup
        );
        // A kinds filter is answerable per-kind, not per-epoch.
        let kinds = LogFilter::new().kind(EventKind::Swap);
        assert_eq!(plan_aggregate(&kinds, GroupBy::Kind, &m), QueryPlan::Rollup);
        assert_ne!(
            plan_aggregate(&kinds, GroupBy::Epoch, &m),
            QueryPlan::Rollup
        );
        // An addresses filter cannot be absorbed by per-kind grouping.
        assert_ne!(
            plan_aggregate(&selective(), GroupBy::Kind, &m),
            QueryPlan::Rollup
        );
        assert_eq!(
            plan_aggregate(&selective(), GroupBy::Address, &m),
            QueryPlan::Rollup
        );
        // Sub-window or resumed queries fold.
        assert_ne!(
            plan_aggregate(&LogFilter::new().from_block(g + 1), GroupBy::Kind, &m),
            QueryPlan::Rollup
        );
        assert_ne!(
            plan_aggregate(
                &LogFilter::new().after(Cursor::at(g + 2)),
                GroupBy::Kind,
                &m
            ),
            QueryPlan::Rollup
        );
        // Stale rollups (head moved past them) fold.
        let mut stale = m.clone();
        stale.segments.push(seg(1, g + 4, g + 7));
        assert_ne!(
            plan_aggregate(&LogFilter::new(), GroupBy::Kind, &stale),
            QueryPlan::Rollup
        );
    }
}
