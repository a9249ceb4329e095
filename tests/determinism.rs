//! Reproducibility guarantees: every experiment is a pure function of the
//! scenario, and the detector pipeline is insensitive to execution
//! strategy (serial vs parallel).

use flashpan::prelude::*;

fn tiny() -> Scenario {
    let mut s = Scenario::quick();
    s.months = 12;
    s.blocks_per_month = 40;
    s
}

#[test]
fn identical_scenarios_produce_identical_worlds() {
    let a = Simulation::new(tiny()).run();
    let b = Simulation::new(tiny()).run();
    assert_eq!(a.chain.len(), b.chain.len());
    let head = a.chain.head_number().unwrap();
    for n in [
        a.chain.timeline().genesis_number,
        head / 2 + 5_000_000,
        head,
    ] {
        let (ba, bb) = (a.chain.block(n), b.chain.block(n));
        match (ba, bb) {
            (Some(x), Some(y)) => assert_eq!(x.hash(), y.hash(), "block {n}"),
            (None, None) => {}
            _ => panic!("presence mismatch at {n}"),
        }
    }
    assert_eq!(a.blocks_api.len(), b.blocks_api.len());
    assert_eq!(a.observer.len(), b.observer.len());
    // And the downstream detections agree exactly.
    let da = Inspector::new(&a.chain, &a.blocks_api).run().unwrap();
    let db = Inspector::new(&b.chain, &b.blocks_api).run().unwrap();
    assert_eq!(da.detections, db.detections);
}

#[test]
fn different_seeds_diverge() {
    let mut other = tiny();
    other.seed ^= 1;
    let a = Simulation::new(tiny()).run();
    let b = Simulation::new(other).run();
    let head = a.chain.head_number().unwrap();
    assert_ne!(
        a.chain.block(head).unwrap().hash(),
        b.chain.block(head).unwrap().hash(),
        "seed must actually steer the run"
    );
}

#[test]
fn serial_and_parallel_inspection_agree() {
    let out = Simulation::new(tiny()).run();
    let serial = Inspector::new(&out.chain, &out.blocks_api)
        .threads(1)
        .run()
        .unwrap();
    let parallel = Inspector::new(&out.chain, &out.blocks_api)
        .threads(8)
        .run()
        .unwrap();
    assert_eq!(serial.detections, parallel.detections);
    assert!(
        !serial.detections.is_empty(),
        "tiny scenario still detects MEV"
    );
}

#[test]
fn multi_leg_routes_reach_the_detector() {
    // The triangular scanner emits 3-leg routes; at least some should land
    // and be detected as (multi-exchange) arbitrage across a full tiny run.
    let out = Simulation::new(tiny()).run();
    let ds = Inspector::new(&out.chain, &out.blocks_api).run().unwrap();
    let mut multi_leg = 0;
    for d in ds.of_kind(MevKind::Arbitrage) {
        let receipts = out.chain.receipts(d.block).expect("present");
        let r = receipts
            .iter()
            .find(|r| r.tx_hash == d.tx_hashes[0])
            .expect("receipt");
        let swaps = r
            .logs
            .iter()
            .filter(|l| matches!(l.event, flashpan::types::LogEvent::Swap { .. }))
            .count();
        if swaps >= 3 {
            multi_leg += 1;
        }
    }
    // Triangles are rare by construction; existence is the claim.
    assert!(
        multi_leg >= 1,
        "no 3-leg arbitrage detected in the whole run"
    );
}

/// The open-data export names whole transactions: every hash that
/// `detections.json` and `detections.csv` carry is the full hash of a
/// transaction of the exported chain.
#[test]
fn exported_hashes_resolve_to_transactions_of_the_chain() {
    use flashpan::inspect::export;
    let out = Simulation::new(tiny()).run();
    let ds = Inspector::new(&out.chain, &out.blocks_api).run().unwrap();
    let txs: std::collections::HashSet<String> = out
        .chain
        .iter()
        .flat_map(|(block, _)| block.transactions.iter().map(|tx| tx.hash().to_hex()))
        .collect();
    let (json, csv) = (export::detections_json(&ds), export::detections_csv(&ds));
    for (file, text, at_least) in [
        ("json", &json, ds.detections.len()),
        ("csv", &csv, ds.of_kind(MevKind::Sandwich).count()),
    ] {
        assert!(!text.contains('…'), "{file} carries a truncated hash");
        // A 64-digit hex token is a hash; addresses have 40 digits.
        let hashes: Vec<&str> = text
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|t| t.len() == 66 && t.starts_with("0x"))
            .collect();
        assert!(hashes.len() >= at_least.max(1), "{file}: {}", hashes.len());
        for h in hashes {
            assert!(
                txs.contains(h),
                "{file} names {h}, no transaction of the chain"
            );
        }
    }
}

/// Every figure, the churn and the export read block facts from the
/// dataset's index alone, so analysis is insensitive to where detection
/// ran: a dataset detected over the on-disk store (its index decoded from
/// segments on two threads) gives exactly the series, cohorts and CSV of
/// one detected over the in-memory chain.
#[test]
fn analysis_over_a_store_built_index_equals_the_in_memory_one() {
    use flashpan::inspect::{cohorts, export, hashrate, series};
    let out = Simulation::new(tiny()).run();
    let api = &out.blocks_api;
    let memory = Inspector::new(&out.chain, api).run().unwrap();

    let dir = flashpan::store::testutil::scratch_dir("analysis-identity");
    let mut writer = StoreWriter::create(&dir, out.chain.timeline().clone(), 64).unwrap();
    writer.ingest(&out.chain).unwrap();
    let store = StoreReader::open(&dir).unwrap().with_decode_threads(2);
    let StoreRunOutcome::Complete(stored) = Inspector::from_store(&store, api).run().unwrap()
    else {
        panic!("an unbounded store run completes");
    };
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(stored.index.len(), out.chain.len());
    assert_eq!(stored.detections, memory.detections);

    let analysis = |ds: &MevDataset| {
        (
            series::flashbots_block_ratio(ds, api),
            hashrate::monthly_flashbots_hashrate(ds, api),
            hashrate::monthly_participation(ds, api, &[1, 2, 5]),
            hashrate::max_monthly_flashbots_miners(ds, api),
            series::gas_price_daily(ds),
            series::sandwiches_daily(ds),
            series::mev_breakdown_monthly(ds, api),
            cohorts::monthly_churn(ds),
            cohorts::cohorts(ds),
            export::detections_csv(ds),
        )
    };
    let expected = analysis(&memory);
    assert_eq!(analysis(&stored), expected);
    // Not vacuous: every figure has rows and the CSV every detection.
    let (fig3, fig4, fig5, _, gas, sandwiches, fig7, churn, cohorts, csv) = expected;
    assert!(fig3.iter().any(|(_, r)| *r > 0.0), "Flashbots blocks exist");
    assert!(!fig4.is_empty() && !fig5.is_empty() && !fig7.is_empty());
    assert!(!gas.is_empty() && !sandwiches.is_empty());
    assert!(!churn.is_empty() && !cohorts.is_empty());
    assert_eq!(csv.lines().count(), memory.detections.len() + 1);
}
