//! One durable state kept as one file: a log of CRC frames (the
//! [`frame`](crate::frame) format) with `mev_types::codec` payloads.
//!
//! ```text
//! [snapshot] frame kind 1 — the whole state
//! [delta]*   frame kind 2 — seq (1, 2, … after the snapshot), then
//!            what one commit changed
//! ```
//!
//! A commit appends one delta frame and `sync_data`s it. When the deltas
//! would outgrow both the snapshot and [`SNAPSHOT_FLOOR`], the commit
//! instead replaces the file with one fresh snapshot (temp file,
//! `sync_data`, rename, directory fsync), so a commit costs O(what it
//! changed) and loading never reads more than the snapshot plus
//! `max(snapshot, SNAPSHOT_FLOOR)` of deltas: O(state). A small state is
//! thus not rewritten on every other commit. A log with no known
//! snapshot (new, or after a failed append) always snapshots first.
//! [`load`] folds in every whole delta whose seq is the previous + 1 and
//! stops at the first frame that is torn, fails its CRC or skips a seq:
//! a torn or damaged last delta costs only that commit.
//! [`SnapshotLog::open`] also cuts such a tail off before the next
//! append. A whole, CRC-valid frame that is not a delta or does not
//! decode was committed by some writer, so loading it is an error and
//! nothing is cut.
//!
//! Every file and directory sync in the store goes through `Syncs`,
//! which counts them for the writer that owns it and into the `mev_obs`
//! counters `store.sync.files` and `store.sync.dirs`.
//!
//! The store manifest (`MANIFEST`), the live follower's checkpoint and
//! `StoreRun`'s checkpoint are all logs of this shape.

use crate::error::StoreError;
use crate::frame::{encode_frame, SliceFrameReader};
use mev_obs::Counter;
use mev_types::codec::{self, Decode, DecodeError, Encode, Reader};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Frame kind of the snapshot that starts every log.
pub const FRAME_SNAPSHOT: u8 = 1;
/// Frame kind of one commit's delta.
pub const FRAME_DELTA: u8 = 2;
/// Deltas up to this many bytes never force a snapshot, however small
/// the snapshot: below it a rewrite costs more than the deltas save.
pub const SNAPSHOT_FLOOR: u64 = 64 * 1024;

/// A state kept as a snapshot-and-delta log.
pub trait Logged: Encode + Decode {
    /// What one commit changes.
    type Change: Encode + Decode;

    /// Fold one committed change in.
    fn fold(&mut self, change: Self::Change) -> Result<(), StoreError>;

    /// Refuse a snapshot payload this build must not read, before it or
    /// any delta is decoded (and so before [`SnapshotLog::open`] cuts
    /// anything off).
    fn check_snapshot(_payload: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
}

/// A delta frame's payload: its seq, then the change.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta<C> {
    /// 1 for the first delta after the snapshot, then consecutive.
    pub seq: u64,
    pub change: C,
}

impl<C: Encode> Encode for Delta<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        let Delta { seq, change } = self;
        seq.encode(out);
        change.encode(out);
    }
}

impl<C: Decode> Decode for Delta<C> {
    const MIN_LEN: usize = 1 + C::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<Delta<C>, DecodeError> {
        Ok(Delta {
            seq: u64::decode(r)?,
            change: C::decode(r)?,
        })
    }
}

impl<C: Encode> Delta<C> {
    /// The delta as one log frame.
    pub fn to_frame(&self) -> Vec<u8> {
        frame(FRAME_DELTA, self)
    }
}

fn frame<T: Encode + ?Sized>(kind: u8, value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(&mut out, kind, &codec::to_vec(value));
    out
}

fn malformed(path: &Path, detail: String) -> StoreError {
    StoreError::Codec {
        path: path.to_path_buf(),
        detail,
    }
}

/// How a commit landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commit {
    Delta,
    Snapshot,
}

/// Load the log at `path` (`Ok(None)` when absent): the snapshot with
/// every replayable delta folded in.
pub fn load<S: Logged>(path: &Path) -> Result<Option<S>, StoreError> {
    Ok(read::<S>(path)?.map(|(state, _, _)| state))
}

/// The state, the append side positioned after its last whole frame,
/// and the file's length.
fn read<S: Logged>(path: &Path) -> Result<Option<(S, SnapshotLog, u64)>, StoreError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io("read log", path, e)),
    };
    let mut reader = SliceFrameReader::new(&bytes, path, bytes.len() as u64);
    let snapshot = match reader.next_frame()? {
        Some(frame) if frame.kind == FRAME_SNAPSHOT => frame,
        Some(frame) => {
            return Err(malformed(
                path,
                format!("first frame kind {} is not a snapshot", frame.kind),
            ))
        }
        None => return Err(malformed(path, "empty log".to_string())),
    };
    S::check_snapshot(snapshot.payload)?;
    let mut state: S = codec::from_slice(snapshot.payload)
        .map_err(|e| malformed(path, format!("snapshot: {e}")))?;
    let mut log = SnapshotLog::new(path);
    log.snapshot_bytes = reader.offset();
    log.end = log.snapshot_bytes;
    // Stop at the first frame that is torn or fails its CRC, or at a
    // delta that does not carry the next seq: a commit that never
    // landed. A whole frame that is not a delta this build decodes was
    // committed, so it is an error, and `open` cuts nothing.
    while let Ok(Some(frame)) = reader.next_frame() {
        if frame.kind != FRAME_DELTA {
            return Err(malformed(
                path,
                format!(
                    "frame kind {} at byte {} is not a delta",
                    frame.kind, frame.offset
                ),
            ));
        }
        let delta = codec::from_slice::<Delta<S::Change>>(frame.payload)
            .map_err(|e| malformed(path, format!("delta at byte {}: {e}", frame.offset)))?;
        if delta.seq != log.seq + 1 {
            break;
        }
        state.fold(delta.change)?;
        log.seq = delta.seq;
        log.end = reader.offset();
    }
    Ok(Some((state, log, bytes.len() as u64)))
}

/// The append side of one log file.
#[derive(Debug)]
pub struct SnapshotLog {
    path: PathBuf,
    /// Seq of the last delta after the current snapshot.
    seq: u64,
    /// End of the last whole frame: where the next delta goes.
    end: u64,
    /// Size of the current snapshot frame; 0 until one is known, so the
    /// next commit writes a snapshot.
    snapshot_bytes: u64,
    syncs: Syncs,
}

impl SnapshotLog {
    /// A log whose first commit writes a snapshot, replacing whatever
    /// the file held.
    pub fn new(path: impl Into<PathBuf>) -> SnapshotLog {
        SnapshotLog {
            path: path.into(),
            seq: 0,
            end: 0,
            snapshot_bytes: 0,
            syncs: Syncs::default(),
        }
    }

    /// [`load`] the log at `path` to commit after it, cutting off any
    /// torn or damaged tail past the last delta it folds in. `Ok(None)`
    /// when absent.
    pub fn open<S: Logged>(path: &Path) -> Result<Option<(S, SnapshotLog)>, StoreError> {
        let Some((state, log, len)) = read::<S>(path)? else {
            return Ok(None);
        };
        if len > log.end {
            fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(log.end))
                .map_err(|e| StoreError::io("cut log tail", path, e))?;
        }
        Ok(Some((state, log)))
    }

    /// The log's file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The `(file, directory)` syncs this log has made.
    pub fn syncs(&self) -> (u64, u64) {
        (self.syncs.files, self.syncs.dirs)
    }

    /// Atomically replace the file with one snapshot of `state`.
    pub fn snapshot<S: Encode + ?Sized>(&mut self, state: &S) -> Result<(), StoreError> {
        let frame = frame(FRAME_SNAPSHOT, state);
        // If any step fails, the next commit snapshots again.
        self.snapshot_bytes = 0;
        self.syncs.atomic_write(&self.path, &frame)?;
        self.seq = 0;
        self.end = frame.len() as u64;
        self.snapshot_bytes = self.end;
        Ok(())
    }

    /// Commit one change: append it as the next delta and `sync_data`
    /// it, or — when no snapshot is known, or the deltas would grow
    /// larger than both the snapshot and [`SNAPSHOT_FLOOR`] — write
    /// `snapshot()` instead. A failed append leaves at most a torn frame
    /// past the last whole one, and the next commit snapshots.
    pub fn commit<C: Encode + ?Sized, S: Encode>(
        &mut self,
        change: &C,
        snapshot: impl FnOnce() -> Result<S, StoreError>,
    ) -> Result<Commit, StoreError> {
        let frame = Delta {
            seq: self.seq + 1,
            change,
        }
        .to_frame();
        let deltas = self.end.saturating_sub(self.snapshot_bytes);
        let limit = self.snapshot_bytes.max(SNAPSHOT_FLOOR);
        if self.snapshot_bytes == 0 || deltas + frame.len() as u64 > limit {
            self.snapshot(&snapshot()?)?;
            return Ok(Commit::Snapshot);
        }
        if let Err(e) = self.append(&frame) {
            self.snapshot_bytes = 0;
            return Err(e);
        }
        self.seq += 1;
        self.end += frame.len() as u64;
        Ok(Commit::Delta)
    }

    /// Write `frame` after the last whole frame and `sync_data` it. The
    /// file is opened per append and must still end where the last
    /// commit left it, so a commit after the file at the log's path was
    /// replaced fails instead of landing in an unlinked or foreign file.
    fn append(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        let mut file = fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| StoreError::io("open log", &self.path, e))?;
        let len = file
            .metadata()
            .map_err(|e| StoreError::io("stat log", &self.path, e))?
            .len();
        if len != self.end {
            return Err(malformed(
                &self.path,
                format!("{len} bytes where the last commit left {}", self.end),
            ));
        }
        file.seek(SeekFrom::Start(self.end))
            .and_then(|_| file.write_all(frame))
            .map_err(|e| StoreError::io("append delta", &self.path, e))?;
        self.syncs.sync_file(&file, &self.path)
    }
}

/// The file and directory syncs one writer has made. Every sync in the
/// store is made through one of these.
#[derive(Debug, Default)]
pub(crate) struct Syncs {
    /// Files `sync_data`ed.
    pub(crate) files: u64,
    /// Directories fsynced.
    pub(crate) dirs: u64,
}

impl Syncs {
    /// `sync_data` `file` (at `path`, for the error).
    pub(crate) fn sync_file(&mut self, file: &fs::File, path: &Path) -> Result<(), StoreError> {
        file.sync_data()
            .map_err(|e| StoreError::io("sync file", path, e))?;
        self.files += 1;
        sync_counters()[0].inc();
        Ok(())
    }

    /// `fsync` a directory so entries created or renamed in it are
    /// durable. A directory that cannot be opened is skipped (some
    /// platforms refuse); a failed fsync fails the commit.
    pub(crate) fn sync_dir(&mut self, dir: &Path) -> Result<(), StoreError> {
        let Ok(d) = fs::File::open(dir) else {
            return Ok(());
        };
        d.sync_all()
            .map_err(|e| StoreError::io("sync directory", dir, e))?;
        self.dirs += 1;
        sync_counters()[1].inc();
        Ok(())
    }

    /// Write `bytes` to `path` atomically: temp file in the same
    /// directory, `sync_data`, `rename`, directory `fsync`. Readers see
    /// the old or the new content, never a torn mix.
    fn atomic_write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let dir = path.parent().unwrap_or(Path::new("."));
        let tmp: PathBuf = match path.file_name() {
            Some(name) => {
                let mut tmp_name = std::ffi::OsString::from(".");
                tmp_name.push(name);
                tmp_name.push(".tmp");
                dir.join(tmp_name)
            }
            None => {
                return Err(StoreError::Io {
                    op: "atomic write",
                    path: path.to_path_buf(),
                    source: std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "not a file path",
                    ),
                })
            }
        };
        {
            let mut f =
                fs::File::create(&tmp).map_err(|e| StoreError::io("create temp", &tmp, e))?;
            f.write_all(bytes)
                .map_err(|e| StoreError::io("write temp", &tmp, e))?;
            self.sync_file(&f, &tmp)?;
        }
        fs::rename(&tmp, path).map_err(|e| StoreError::io("rename temp", path, e))?;
        // Persist the rename itself.
        self.sync_dir(dir)
    }
}

/// `store.sync.files` and `store.sync.dirs`, fetched once.
fn sync_counters() -> &'static [Arc<Counter>; 2] {
    static COUNTERS: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
    COUNTERS.get_or_init(|| ["store.sync.files", "store.sync.dirs"].map(mev_obs::counter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;
    use mev_types::seeded::check_seeds;

    /// A byte string; a change appends to it.
    #[derive(Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl Encode for Blob {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
    }

    impl Decode for Blob {
        fn decode(r: &mut Reader<'_>) -> Result<Blob, DecodeError> {
            Vec::decode(r).map(Blob)
        }
    }

    impl Logged for Blob {
        type Change = Vec<u8>;

        fn fold(&mut self, change: Vec<u8>) -> Result<(), StoreError> {
            self.0.extend(change);
            Ok(())
        }
    }

    #[test]
    fn the_file_never_exceeds_the_snapshot_plus_the_larger_of_it_and_the_floor() {
        check_seeds("SNAPSHOT_LOG_SEED", 0x5AA9_F100, 4, |rng| {
            let dir = scratch_dir("snapshot-log-bound");
            let path = dir.join("log");
            let mut log = SnapshotLog::new(&path);
            let mut state = Blob(Vec::new());
            let mut snapshots = 0;
            // Changes of 0 B to 4 KiB grow the state well past the floor.
            for i in 0..120u64 {
                let change: Vec<u8> = (0..rng.below(4 * 1024)).map(|b| (b ^ i) as u8).collect();
                state.0.extend(&change);
                let landed = log.commit(&change, || Ok(&state)).unwrap();
                if i == 0 {
                    assert_eq!(landed, Commit::Snapshot, "a new log snapshots first");
                }
                snapshots += u64::from(landed == Commit::Snapshot);
                let len = fs::metadata(&path).unwrap().len();
                let snapshot = log.snapshot_bytes;
                assert!(
                    len <= snapshot + snapshot.max(SNAPSHOT_FLOOR),
                    "commit {i}: {len} bytes past a {snapshot}-byte snapshot"
                );
                assert_eq!(load::<Blob>(&path).unwrap(), Some(Blob(state.0.clone())));
            }
            assert!(snapshots >= 3, "{snapshots} snapshots");
            assert!(state.0.len() as u64 > 3 * SNAPSHOT_FLOOR);
            fs::remove_dir_all(&dir).ok();
        });
    }

    #[test]
    fn a_small_state_is_not_rewritten() {
        let dir = scratch_dir("snapshot-log-floor");
        let path = dir.join("log");
        let mut log = SnapshotLog::new(&path);
        let mut state = Blob(Vec::new());
        let mut kinds = Vec::new();
        for i in 0..100u8 {
            let change = vec![i; 100];
            state.0.extend(&change);
            kinds.push(log.commit(&change, || Ok(&state)).unwrap());
        }
        // ~10 KB of deltas stay under the floor: one snapshot, then deltas.
        assert_eq!(kinds[0], Commit::Snapshot);
        assert!(kinds[1..].iter().all(|&k| k == Commit::Delta));
        assert_eq!(log.syncs(), (100, 1));
        assert_eq!(load::<Blob>(&path).unwrap(), Some(state));
        fs::remove_dir_all(&dir).ok();
    }
}
