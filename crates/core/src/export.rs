//! Dataset export — the paper's open-science commitment ("we make our
//! datasets and collection code openly available", §3) as a library
//! feature: detections, per-month series, and the Flashbots dataset as
//! JSON or CSV.

use crate::dataset::{Detection, MevDataset, MevKind};
use crate::index::BlockIndex;
use mev_obs::json;
use std::fmt::Write as _;

/// A flat, export-friendly view of one detection.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionRecord {
    pub kind: &'static str,
    pub block: u64,
    pub month: String,
    pub extractor: String,
    pub tx_hashes: Vec<String>,
    pub victim: Option<String>,
    pub gross_eth: f64,
    pub costs_eth: f64,
    pub profit_eth: f64,
    pub miner_revenue_eth: f64,
    pub via_flashbots: bool,
    pub via_flash_loan: bool,
    pub miner: String,
}

impl DetectionRecord {
    /// The record of a detection, or `None` when its block is not in
    /// `index` (the month comes from the index).
    pub fn from_detection(d: &Detection, index: &BlockIndex) -> Option<DetectionRecord> {
        Some(DetectionRecord {
            kind: d.kind.display_name(),
            block: d.block,
            month: index.month_of(d.block)?.to_string(),
            extractor: d.extractor.to_string(),
            tx_hashes: d.tx_hashes.iter().map(|h| h.to_hex()).collect(),
            victim: d.victim.map(|v| v.to_hex()),
            gross_eth: d.gross_wei as f64 / 1e18,
            costs_eth: d.costs_wei as f64 / 1e18,
            profit_eth: d.profit_wei as f64 / 1e18,
            miner_revenue_eth: d.miner_revenue_wei as f64 / 1e18,
            via_flashbots: d.via_flashbots,
            via_flash_loan: d.via_flash_loan,
            miner: d.miner.to_string(),
        })
    }
}

/// The records of every detection in an indexed block, in dataset order.
fn records(dataset: &MevDataset) -> impl Iterator<Item = DetectionRecord> + '_ {
    dataset
        .detections
        .iter()
        .filter_map(|d| DetectionRecord::from_detection(d, &dataset.index))
}

/// Export every detection as a JSON array of records, one field per line.
pub fn detections_json(dataset: &MevDataset) -> String {
    let mut out = String::from("[");
    for (i, r) in records(dataset).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"kind\":");
        json::str(&mut out, r.kind);
        out.push_str(",\"block\":");
        json::u64(&mut out, r.block);
        out.push_str(",\"month\":");
        json::str(&mut out, &r.month);
        out.push_str(",\"extractor\":");
        json::str(&mut out, &r.extractor);
        out.push_str(",\"tx_hashes\":[");
        for (j, h) in r.tx_hashes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::str(&mut out, h);
        }
        out.push_str("],\"victim\":");
        match &r.victim {
            Some(v) => json::str(&mut out, v),
            None => out.push_str("null"),
        }
        for (key, eth) in [
            ("gross_eth", r.gross_eth),
            ("costs_eth", r.costs_eth),
            ("profit_eth", r.profit_eth),
            ("miner_revenue_eth", r.miner_revenue_eth),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            json::f64(&mut out, eth);
        }
        out.push_str(",\"via_flashbots\":");
        json::bool(&mut out, r.via_flashbots);
        out.push_str(",\"via_flash_loan\":");
        json::bool(&mut out, r.via_flash_loan);
        out.push_str(",\"miner\":");
        json::str(&mut out, &r.miner);
        out.push('}');
    }
    out.push(']');
    json::pretty(&out)
}

/// Export every detection as CSV (RFC-4180 style, header included).
pub fn detections_csv(dataset: &MevDataset) -> String {
    let mut out = String::from(
        "kind,block,month,extractor,victim,gross_eth,costs_eth,profit_eth,miner_revenue_eth,via_flashbots,via_flash_loan,miner\n",
    );
    for r in records(dataset) {
        #[expect(clippy::expect_used, reason = "fmt::Write to a String cannot fail")]
        writeln!(
            out,
            "{},{},{},{},{},{:.9},{:.9},{:.9},{:.9},{},{},{}",
            r.kind,
            r.block,
            r.month,
            r.extractor,
            r.victim.unwrap_or_default(),
            r.gross_eth,
            r.costs_eth,
            r.profit_eth,
            r.miner_revenue_eth,
            r.via_flashbots,
            r.via_flash_loan,
            r.miner,
        )
        .expect("write to string");
    }
    out
}

/// Monthly aggregate row for the summary export.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlySummary {
    pub month: String,
    pub sandwiches: usize,
    pub arbitrages: usize,
    pub liquidations: usize,
    pub flashbots_share: f64,
    pub total_profit_eth: f64,
}

/// Per-month aggregates across all strategies.
pub fn monthly_summary(dataset: &MevDataset) -> Vec<MonthlySummary> {
    use std::collections::BTreeMap;
    let mut months: BTreeMap<mev_types::Month, (usize, usize, usize, usize, f64)> = BTreeMap::new();
    for d in &dataset.detections {
        let Some(m) = dataset.index.month_of(d.block) else {
            continue;
        };
        let e = months.entry(m).or_default();
        match d.kind {
            MevKind::Sandwich => e.0 += 1,
            MevKind::Arbitrage => e.1 += 1,
            MevKind::Liquidation => e.2 += 1,
        }
        if d.via_flashbots {
            e.3 += 1;
        }
        e.4 += d.profit_eth();
    }
    months
        .into_iter()
        .map(|(m, (sw, arb, liq, fb, profit))| {
            let total = sw + arb + liq;
            MonthlySummary {
                month: m.to_string(),
                sandwiches: sw,
                arbitrages: arb,
                liquidations: liq,
                flashbots_share: if total == 0 {
                    0.0
                } else {
                    fb as f64 / total as f64
                },
                total_profit_eth: profit,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mev_dex::PriceOracle;
    use mev_store::testutil::test_chain;
    use mev_types::{Address, H256};
    use std::sync::Arc;

    /// One sandwich in the indexed first block and one past the index.
    fn dataset() -> MevDataset {
        let d = Detection {
            kind: MevKind::Sandwich,
            block: 10_000_000,
            extractor: Address::from_index(1),
            tx_hashes: vec![H256::zero()],
            victim: Some(H256::zero()),
            gross_wei: 2 * 10i128.pow(18),
            costs_wei: 10u128.pow(18),
            profit_wei: 10i128.pow(18),
            miner_revenue_wei: 5 * 10u128.pow(17),
            via_flashbots: true,
            via_flash_loan: false,
            miner: Address::from_index(9),
        };
        let unindexed = Detection {
            block: 10_000_500,
            ..d.clone()
        };
        MevDataset {
            index: Arc::new(BlockIndex::build(&test_chain(3, 0))),
            ..MevDataset::from_parts(vec![d, unindexed], PriceOracle::new())
        }
    }

    #[test]
    fn json_lists_indexed_records() {
        let json = detections_json(&dataset());
        assert!(
            json.starts_with(
                "[\n  {\n    \"kind\": \"Sandwiching\",\n    \"block\": 10000000,\n    \
                 \"month\": \"2020-05\",\n"
            ),
            "{json}"
        );
        assert_eq!(
            json.matches("\"kind\"").count(),
            1,
            "the unindexed one is left out"
        );
        for field in [
            "\"tx_hashes\": [\n      \"",
            "\"gross_eth\": 2.0,",
            "\"profit_eth\": 1.0,",
            "\"miner_revenue_eth\": 0.5,",
            "\"via_flashbots\": true,",
            "\"via_flash_loan\": false,",
        ] {
            assert!(json.contains(field), "{field} in {json}");
        }
        assert!(json.ends_with("\"\n  }\n]"), "{json}");
        let empty = MevDataset::from_parts(Vec::new(), PriceOracle::new());
        assert_eq!(detections_json(&empty), "[]");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = detections_csv(&dataset());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("kind,block,month"));
        assert!(lines[1].starts_with("Sandwiching,10000000,2020-05"));
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
    }

    #[test]
    fn monthly_summary_aggregates() {
        let rows = monthly_summary(&dataset());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].sandwiches, 1);
        assert_eq!(rows[0].arbitrages, 0);
        assert!((rows[0].flashbots_share - 1.0).abs() < 1e-12);
        assert!((rows[0].total_profit_eth - 1.0).abs() < 1e-12);
    }
}
