//! The live follower's durable state, cycle by cycle: the checkpoint
//! log (a snapshot frame plus one delta per advance) folds to exactly the
//! pipeline's in-memory state, survives a torn or damaged last delta,
//! and — together with the store's journal — makes a cycle's commit cost
//! independent of how much history is behind it. Provisional blocks are
//! re-detected only when a new oracle update can move them.
//!
//! Seeded cases print their seed on failure; replay one with
//! `CHECKPOINT_SEED=<seed> cargo test -p mev-live --test checkpoint_log`.

use mev_core::Inspector;
use mev_live::{CheckpointDelta, LiveCheckpoint, LiveConfig, LiveSession, ShardPlan, TailPipeline};
use mev_sim::{Scenario, Simulation};
use mev_store::StoreReader;
use mev_types::seeded::{for_each_seed, Rng};
use mev_types::LogEvent;
use std::fs;
use std::path::{Path, PathBuf};

const BASE_SEED: u64 = 0xC4EC_4901;
const CASES: u64 = 4;

fn scenario(months: u32) -> Scenario {
    let mut s = Scenario::quick();
    s.months = months;
    s.blocks_per_month = 30;
    s
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flashpan-ckpt-{tag}-{}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    dir
}

fn config(scenario: Scenario, dir: &Path, segment_blocks: u64) -> LiveConfig {
    let mut cfg = LiveConfig::new(scenario, dir);
    cfg.checkpoint = Some(dir.join("live.ckpt"));
    cfg.shards = 2;
    cfg.threads_per_shard = 1;
    cfg.segment_blocks = segment_blocks;
    cfg
}

/// The part of a checkpoint that tracks the pipeline.
type Progress = (u64, Vec<u64>, Vec<mev_core::Detection>);

fn progress_of_session(session: &LiveSession) -> Progress {
    let p = session.pipeline();
    (
        p.detected_blocks(),
        p.provisional().to_vec(),
        p.detections().to_vec(),
    )
}

fn progress_on_disk(path: &Path) -> Progress {
    let cp = LiveCheckpoint::load(path)
        .expect("load checkpoint")
        .expect("checkpoint exists");
    (cp.detected_blocks, cp.provisional, cp.detections)
}

fn verify_store(dir: &Path) {
    StoreReader::open(dir)
        .and_then(|r| r.verify())
        .unwrap_or_else(|e| panic!("store at {} fails verify: {e}", dir.display()));
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create copy");
    for entry in fs::read_dir(from).expect("list dir") {
        let entry = entry.expect("directory entry");
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

/// After every cycle (and after finish) the checkpoint on disk folds to
/// exactly the pipeline's in-memory state, and the store verifies.
#[test]
fn checkpoint_fold_equals_the_pipeline_after_every_cycle() {
    let dir = scratch_dir("fold");
    let path = dir.join("live.ckpt");
    let mut session = LiveSession::start(config(scenario(6), &dir, 16)).expect("start");
    let mut cycles = 0;
    let mut deltas = 0;
    let mut last_len = 0;
    loop {
        let report = session.advance(3).expect("advance");
        cycles += 1;
        assert_eq!(
            progress_on_disk(&path),
            progress_of_session(&session),
            "cycle {cycles}"
        );
        let len = fs::metadata(&path).expect("stat checkpoint").len();
        deltas += u64::from(len > last_len);
        last_len = len;
        if report.done {
            break;
        }
    }
    assert!(
        deltas > cycles / 2,
        "most cycles append a delta ({deltas}/{cycles})"
    );
    verify_store(&dir);
    let outcome = session.finish().expect("finish");
    let cp = LiveCheckpoint::load(&path).unwrap().unwrap();
    assert_eq!(cp.detections, outcome.detections, "finish is checkpointed");
    assert!(cp.provisional.is_empty());
    fs::remove_dir_all(&dir).ok();
}

/// A follow whose last checkpoint commit is a delta, with the progress
/// before and after it.
struct Damaged {
    dir: PathBuf,
    path: PathBuf,
    segment_blocks: u64,
    scenario: Scenario,
    pre: Progress,
    post: Progress,
    file: Vec<u8>,
    start: usize,
}

fn delta_ended_follow(seed: u64, rng: &mut Rng) -> Damaged {
    let scenario = scenario(3);
    let segment_blocks = 4 + rng.below(8);
    let dir = scratch_dir(&format!("damage-{seed:x}"));
    let path = dir.join("live.ckpt");
    let mut session =
        LiveSession::start(config(scenario.clone(), &dir, segment_blocks)).expect("start");
    let min_cycles = 3 + rng.below(6);
    for cycle in 0.. {
        let pre = progress_of_session(&session);
        let before = fs::read(&path).unwrap_or_default();
        let report = session.advance(1 + rng.below(5)).expect("advance");
        assert!(!report.done, "the chain ran out before a delta-ended cycle");
        let file = fs::read(&path).expect("read checkpoint");
        if cycle >= min_cycles && file.len() > before.len() && file.starts_with(&before) {
            let post = progress_of_session(&session);
            assert_ne!(pre, post);
            return Damaged {
                dir,
                path,
                segment_blocks,
                scenario,
                pre,
                post,
                start: before.len(),
                file,
            };
        }
    }
    unreachable!()
}

fn with_file(case: &Damaged, bytes: &[u8], check: impl FnOnce()) {
    fs::write(&case.path, bytes).expect("write damaged checkpoint");
    check();
    fs::write(&case.path, &case.file).expect("restore checkpoint");
}

/// Resume a copy of the follow from the damaged checkpoint and finish it:
/// bit-identical to the cold batch run, store verifying clean.
fn resume_matches_cold_run(case: &Damaged, label: &str) {
    let copy = scratch_dir(label);
    copy_dir(&case.dir, &copy);
    let mut session = LiveSession::start(config(case.scenario.clone(), &copy, case.segment_blocks))
        .expect("resume from damaged checkpoint");
    while !session.advance(7).expect("advance").done {}
    let outcome = session.finish().expect("finish");
    let cold = Inspector::new(&outcome.output.chain, &outcome.output.blocks_api)
        .threads(2)
        .run()
        .expect("cold run");
    assert_eq!(cold.detections, outcome.detections, "{label}");
    verify_store(&copy);
    fs::remove_dir_all(&copy).ok();
}

#[test]
fn damaged_last_delta_folds_to_the_state_before_it() {
    let result = for_each_seed("CHECKPOINT_SEED", BASE_SEED, CASES, |seed| {
        let mut rng = Rng(seed);
        let case = delta_ended_follow(seed, &mut rng);
        let end = case.file.len();
        // Every byte-prefix truncation of the last delta.
        for cut in case.start..=end {
            let want = if cut == end { &case.post } else { &case.pre };
            with_file(&case, &case.file[..cut], || {
                assert_eq!(&progress_on_disk(&case.path), want, "cut at {cut} of {end}");
            });
        }
        let cut = case.start + rng.below((end - case.start) as u64) as usize;
        with_file(&case, &case.file[..cut], || {
            resume_matches_cold_run(&case, &format!("torn-{seed:x}"));
        });
        // One flipped byte, at every position of the last delta.
        for pos in case.start..end {
            let mut bytes = case.file.clone();
            bytes[pos] ^= 1 + rng.below(255) as u8;
            with_file(&case, &bytes, || {
                assert_eq!(progress_on_disk(&case.path), case.pre, "flip at {pos}");
            });
        }
        // A delta whose seq skips one.
        let mut delta: CheckpointDelta =
            mev_types::codec::from_slice(&case.file[case.start + 9..]).expect("decode delta");
        delta.seq += 1;
        let mut skipped = case.file[..case.start].to_vec();
        skipped.extend_from_slice(&delta.to_frame());
        with_file(&case, &skipped, || {
            assert_eq!(progress_on_disk(&case.path), case.pre, "skipped seq");
            resume_matches_cold_run(&case, &format!("skip-{seed:x}"));
        });
        // A crash inside a snapshot commit leaves only the temp file
        // beside the log, which stays live.
        let tmp = case.dir.join(".live.ckpt.tmp");
        fs::write(&tmp, b"half a snapshot").expect("write temp");
        assert_eq!(progress_on_disk(&case.path), case.post, "temp file ignored");
        fs::remove_file(&tmp).ok();
        fs::remove_dir_all(&case.dir).ok();
    });
    if let Err(e) = result {
        panic!("{e}");
    }
}

/// Version-1 (JSON) checkpoints are refused, as are foreign versions.
#[test]
fn older_checkpoints_are_refused() {
    let dir = scratch_dir("versions");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.ckpt");
    fs::write(&path, br#"{"version":1,"seed":1}"#).unwrap();
    assert!(LiveCheckpoint::load(&path).is_err());
    let cp = LiveCheckpoint {
        version: 1,
        seed: 1,
        genesis: 2,
        total_blocks: 3,
        segment_blocks: 4,
        kinds: mev_core::MevKind::ALL.to_vec(),
        detected_blocks: 0,
        provisional: Vec::new(),
        detections: Vec::new(),
    };
    cp.save(&path).unwrap();
    assert!(LiveCheckpoint::load(&path).is_err());
    let current = LiveCheckpoint {
        version: mev_live::CHECKPOINT_VERSION,
        ..cp
    };
    current.save(&path).unwrap();
    assert_eq!(LiveCheckpoint::load(&path).unwrap(), Some(current));
    fs::remove_dir_all(&dir).ok();
}

/// Sizes of every file under the follow's directory, with inode numbers
/// so a rename shows even when the size does not move.
#[cfg(unix)]
fn files(dir: &Path) -> std::collections::BTreeMap<String, (u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    fs::read_dir(dir)
        .expect("list follow dir")
        .map(|e| {
            let e = e.expect("directory entry");
            let m = e.metadata().expect("stat");
            (
                e.file_name().to_string_lossy().into_owned(),
                (m.len(), m.ino()),
            )
        })
        .collect()
}

/// A cycle's commit writes O(new blocks): over a long follow, the last
/// cycle up to 40 that neither snapshots nor seals writes about as many
/// bytes as the first such cycle from 5 on, although several times the
/// history lies behind it.
#[cfg(unix)]
#[test]
fn cycle_commit_bytes_do_not_grow_with_history() {
    let dir = scratch_dir("history");
    let mut session = LiveSession::start(config(scenario(11), &dir, 14)).expect("start");
    let mut written = Vec::new();
    let mut before = files(&dir);
    for cycle in 1..=40u32 {
        session.advance(4).expect("advance");
        let after = files(&dir);
        // Appends only: no file renamed over (inode kept), shrunk or
        // deleted, and no compact sidecar written (a seal).
        let rewritten = before.iter().any(|(name, &(len, ino))| {
            !matches!(after.get(name), Some(&(now, now_ino)) if now >= len && now_ino == ino)
        });
        let sealed = after
            .keys()
            .any(|name| !before.contains_key(name) && name.ends_with(".idx"));
        let append_only = !rewritten && !sealed;
        let bytes: u64 = after
            .iter()
            .map(|(name, &(len, _))| len - before.get(name).map_or(0, |&(old, _)| old.min(len)))
            .sum();
        written.push((cycle, append_only, bytes));
        before = after;
    }
    // Which cycles rewrite a snapshot or seal a segment depends on the
    // byte sizes of the formats, so compare the earliest and latest
    // cycles observed to only append, at least 30 cycles apart.
    let appends = || written.iter().filter(|&&(_, append_only, _)| append_only);
    let early = appends().find(|&&(cycle, ..)| cycle >= 5);
    let late = appends().rfind(|&&(cycle, ..)| cycle <= 40);
    let (Some(&(c_early, _, early)), Some(&(c_late, _, late))) = (early, late) else {
        panic!("no append-only cycle in 5..=40: {written:?}");
    };
    assert!(
        c_late - c_early >= 30,
        "append-only cycles {c_early} and {c_late} are too close: {written:?}"
    );
    assert!(
        (late as f64) <= 1.5 * early as f64,
        "cycle {c_late} wrote {late} B, cycle {c_early} wrote {early} B: {written:?}"
    );
    drop(session);
    verify_store(&dir);
    fs::remove_dir_all(&dir).ok();
}

/// A provisional block is re-detected only when the new tail carries an
/// oracle update (the only thing that can move its valuation); a cycle
/// whose tail carries none re-detects nothing.
#[test]
fn cycles_without_oracle_updates_redetect_nothing() {
    let scenario = scenario(6);
    let genesis = scenario.genesis_block();
    let mut sim = Simulation::new(scenario);
    let mut plan = ShardPlan::new(genesis, 16);
    plan.shards = 2;
    plan.threads_per_shard = 1;
    let mut pipeline = TailPipeline::new(plan);
    let (mut quiet_with_provisional, mut redetected, mut old_rule) = (0, 0, 0);
    while !sim.is_done() {
        let from = sim.chain().head_number().map_or(genesis, |h| h + 1);
        for _ in 0..3 {
            sim.step_block();
        }
        let Some(head) = sim.chain().head_number() else {
            continue;
        };
        let updates = sim
            .chain()
            .range(from, head)
            .flat_map(|(_, receipts)| receipts.iter().flat_map(|r| &r.logs))
            .filter(|l| matches!(l.event, LogEvent::OracleUpdate { .. }))
            .count();
        let provisional_before = pipeline.provisional().len();
        let stats = pipeline
            .advance(sim.chain(), sim.blocks_api())
            .expect("advance");
        if updates == 0 {
            assert_eq!(stats.redetected, 0, "no update in blocks {from}..={head}");
            quiet_with_provisional += usize::from(provisional_before > 0);
        }
        redetected += stats.redetected;
        old_rule += provisional_before;
    }
    assert!(
        quiet_with_provisional > 0,
        "some quiet cycle had provisional blocks"
    );
    assert!(
        redetected < old_rule,
        "re-detected {redetected} blocks; re-detecting every provisional block each cycle: {old_rule}"
    );
    pipeline.finalize(sim.blocks_api()).expect("finalize");
    let out = sim.finish();
    let cold = Inspector::new(&out.chain, &out.blocks_api)
        .threads(2)
        .run()
        .expect("cold run");
    assert_eq!(cold.detections, pipeline.into_detections());
}
