//! Segmented append-only write-ahead log for mirrored events.
//!
//! ## On-disk format
//!
//! A log is a directory of segment files named `wal-<first_idx>.seg`, where
//! `<first_idx>` is the zero-padded send index of the segment's first frame.
//! Each segment is a sequence of frames:
//!
//! ```text
//! [u32 len (LE)] [u32 crc32 (LE)] [payload: len bytes]
//! payload = [u64 send_idx (LE)] [wire-encoded Frame bytes]
//! ```
//!
//! The CRC covers the payload only; `len` is validated against the remaining
//! file size before the payload is read, so a torn tail (partial header or
//! partial payload from a crash mid-write) is detected without reading past
//! the end. The wire bytes are exactly what [`mirror_echo::wire::SharedEvent`]
//! caches for the fan-out path, so journaling an event costs one buffered
//! write, never a second encode. Appends accumulate in a user-space buffer
//! and reach the file in ~64 KiB `write`s (any sync barrier, segment roll,
//! replay, or drop flushes first); under [`FsyncPolicy::EveryN`] the
//! `fdatasync` itself runs on a background flusher thread, so the hot path
//! pays neither the per-append syscall nor the disk latency.
//!
//! Alongside the segments lives a `watermark` file holding the durable
//! truncation floor: the oldest send index a recovering mirror may still
//! need. It is advanced only at checkpoint commit (mirroring the in-memory
//! `BackupQueue::prune`) and written atomically (tmp + rename + dir fsync).
//!
//! ## Retention slack
//!
//! A commit deletes a closed segment only when the closed segment after it
//! is also wholly below the watermark, so the newest closed segment below
//! the floor stays on disk. Without that slack, a roll shortly before a
//! commit would leave only the frames appended since the roll, and the
//! tail a reader had just seen on disk would vanish with the segment
//! holding it. The cost is at most one extra segment on disk, and at most
//! one extra segment read by a full `replay_from(0)` (cold start and
//! central promotion).
//!
//! ## Recovery
//!
//! [`EventLog::open`] scans segments in index order, verifying each frame's
//! length, CRC, and index monotonicity, and that each segment continues
//! its predecessor: send indices are consecutive, so a segment must be
//! named after the index following the previous segment's last frame. At
//! the first torn or corrupt frame, or the first break in that chain (a
//! closed segment cut short at a frame boundary, or emptied), the segment
//! is truncated to the last valid frame boundary and any later segments
//! are discarded: everything after a hole is beyond the durable prefix.
//! What survives is exactly the gap-free run of frames whose bytes were
//! fully persisted — the crash-recovery property tests drive this with
//! arbitrary byte-offset truncations, bit flips, and forged lengths and
//! CRCs.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use bytes::Bytes;
use mirror_core::event::Event;
use mirror_echo::wire::{decode_frame, Frame};

use crate::crc::crc32;

/// When appended frames are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append. Durable to the last event; slowest.
    PerWrite,
    /// Schedule an `fdatasync` every N appends, serviced by a background
    /// flusher thread so the append path never blocks on the disk (group
    /// commit). Loss is bounded by N-1 events plus whatever the flusher has
    /// not yet serviced; commits and segment rolls still sync
    /// synchronously, and a failed background sync poisons the log (every
    /// later [`EventLog::sync`]/[`EventLog::commit`] errors). The default
    /// trade-off.
    EveryN(u32),
    /// `fdatasync` only when the checkpoint watermark advances. Cheapest;
    /// loss bounded by one commit interval — exactly the window the
    /// in-memory `BackupQueue` already covers.
    OnCommit,
}

/// Tuning for an [`EventLog`].
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Fsync discipline for appends.
    pub fsync: FsyncPolicy,
    /// Roll to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: u64,
}

impl Default for LogConfig {
    /// Fsync every 64 appends; 64 MiB segments. Segment size follows WAL
    /// practice (etcd uses 64 MB): closing a segment costs a synchronous
    /// `fdatasync` on the append path, so small segments turn a steady
    /// stream into periodic multi-millisecond stalls, while truncation
    /// only reclaims whole segments either way.
    fn default() -> Self {
        Self { fsync: FsyncPolicy::EveryN(64), segment_bytes: 64 * 1024 * 1024 }
    }
}

/// Asynchronous fsync scheduler for [`FsyncPolicy::EveryN`]. Appends hand
/// the active segment's (duped) file handle to this thread and continue;
/// `fdatasync` covers every byte written to the file so far, so only the
/// latest request matters and a slow disk coalesces requests instead of
/// stalling the append path — the group-commit trick, without holding
/// appends hostage to disk latency.
struct Flusher {
    shared: Arc<FlushShared>,
    thread: Option<thread::JoinHandle<()>>,
}

struct FlushShared {
    slot: Mutex<FlushSlot>,
    cv: Condvar,
    /// Sticky: a failed background sync poisons the log, because there is
    /// no caller on the async path to hand the error to and pretending the
    /// prefix is durable would be worse.
    failed: AtomicBool,
}

#[derive(Default)]
struct FlushSlot {
    pending: Option<File>,
    shutdown: bool,
}

impl Flusher {
    fn spawn() -> Self {
        let shared = Arc::new(FlushShared {
            slot: Mutex::new(FlushSlot::default()),
            cv: Condvar::new(),
            failed: AtomicBool::new(false),
        });
        let sh = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("mirror-store-flush".into())
            .spawn(move || loop {
                let file = {
                    let mut slot = sh.slot.lock().unwrap();
                    loop {
                        if let Some(f) = slot.pending.take() {
                            break f;
                        }
                        if slot.shutdown {
                            return;
                        }
                        slot = sh.cv.wait(slot).unwrap();
                    }
                };
                if file.sync_data().is_err() {
                    sh.failed.store(true, Ordering::Release);
                }
            })
            .expect("spawn mirror-store flusher");
        Self { shared, thread: Some(thread) }
    }

    /// Replace the pending request with `file` (latest wins).
    fn request(&self, file: File) {
        self.shared.slot.lock().unwrap().pending = Some(file);
        self.shared.cv.notify_one();
    }

    fn check(&self) -> io::Result<()> {
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(io::Error::other("background fdatasync failed; log is poisoned"));
        }
        Ok(())
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.shared.slot.lock().unwrap().shutdown = true;
        self.shared.cv.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join(); // drains any pending request first
        }
    }
}

/// Frame header: `u32` length + `u32` CRC.
const HEADER: u64 = 8;
const WATERMARK_FILE: &str = "watermark";
const WATERMARK_TMP: &str = "watermark.tmp";

fn segment_path(dir: &Path, first_idx: u64) -> PathBuf {
    dir.join(format!("wal-{first_idx:020}.seg"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    stem.parse().ok()
}

/// One valid frame yielded by a segment scan.
struct ScannedFrame {
    idx: u64,
    /// Wire-encoded `Frame` bytes (the payload minus the 8-byte index).
    wire: Bytes,
    /// Offset of the byte *after* this frame in the segment.
    end: u64,
}

/// Read every valid frame from `path`, stopping (without error) at the first
/// torn or corrupt one. Returns the frames and the offset of the valid
/// prefix's end.
fn scan_segment(path: &Path) -> io::Result<(Vec<ScannedFrame>, u64)> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let bytes = Bytes::from(buf);
    let mut frames = Vec::new();
    let mut off = 0usize;
    loop {
        if off + HEADER as usize > bytes.len() {
            break; // torn header
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        let start = off + HEADER as usize;
        // A payload always carries at least the 8-byte index; an absurd
        // length (e.g. from a corrupted header) fails either this bound or
        // the CRC below.
        if len < 8 || start + len > bytes.len() {
            break; // torn or corrupt length
        }
        let payload = &bytes[start..start + len];
        if crc32(payload) != crc {
            break; // corrupt payload (or header corruption aliasing into it)
        }
        let idx = u64::from_le_bytes(payload[..8].try_into().unwrap());
        if let Some(last) = frames.last() {
            let last: &ScannedFrame = last;
            if idx <= last.idx {
                break; // index regression: treat as corruption
            }
        }
        let end = (start + len) as u64;
        frames.push(ScannedFrame { idx, wire: bytes.slice(start + 8..start + len), end });
        off = end as usize;
    }
    let valid_end = frames.last().map_or(0, |f| f.end);
    Ok((frames, valid_end))
}

fn write_atomic(dir: &Path, tmp_name: &str, final_name: &str, contents: &[u8]) -> io::Result<()> {
    let tmp = dir.join(tmp_name);
    let fin = dir.join(final_name);
    let mut f = File::create(&tmp)?;
    f.write_all(contents)?;
    f.sync_data()?;
    fs::rename(&tmp, &fin)?;
    // Persist the rename itself.
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Segmented append-only event log with commit-driven truncation.
pub struct EventLog {
    dir: PathBuf,
    cfg: LogConfig,
    /// Closed segments, keyed by first frame index. Never includes `active`.
    closed: BTreeMap<u64, PathBuf>,
    /// The segment currently being appended to, if any frame has ever been
    /// written (a fresh log creates its first segment lazily, named after
    /// the first index it receives).
    active: Option<ActiveSegment>,
    /// Highest index ever appended (or recovered). Appends must exceed it.
    last_idx: Option<u64>,
    /// Durable truncation floor: oldest index a recovering site may need.
    watermark: u64,
    /// Appends since the last fsync (for [`FsyncPolicy::EveryN`]).
    unsynced: u32,
    /// Background fsync thread, spawned lazily on the first `EveryN`
    /// schedule.
    flusher: Option<Flusher>,
    /// Crash simulation: the log has been [`abandon`](EventLog::abandon)ed —
    /// every further mutation is a no-op and `Drop` does not write out the
    /// append buffer.
    abandoned: bool,
}

struct ActiveSegment {
    first_idx: u64,
    path: PathBuf,
    file: File,
    /// Logical segment length: bytes in the file plus bytes still buffered.
    len: u64,
    /// Appends accumulate here and reach the file in [`FLUSH_BYTES`]-sized
    /// `write`s (or earlier, at any sync barrier): the per-append syscall,
    /// not the fsync, is what would otherwise dominate the hot path.
    buf: Vec<u8>,
}

/// Flush the append buffer to the file once it reaches this size.
const FLUSH_BYTES: usize = 64 * 1024;

impl ActiveSegment {
    /// Push buffered bytes into the file (one `write`); logical length is
    /// unchanged. Every durability barrier and every on-disk read flushes
    /// first.
    fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

impl EventLog {
    /// Open (or create) the log in `dir`, running crash recovery: segments
    /// are scanned in order, the first torn/corrupt frame truncates its
    /// segment, and all later segments are deleted.
    pub fn open(dir: impl Into<PathBuf>, cfg: LogConfig) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        let watermark = read_watermark(&dir)?.unwrap_or(1);

        let mut names: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(first) = entry.file_name().to_str().and_then(parse_segment_name) {
                names.push((first, entry.path()));
            }
        }
        names.sort_by_key(|(first, _)| *first);

        let mut closed = BTreeMap::new();
        let mut last_idx = None;
        let mut tail: Option<(u64, PathBuf, u64)> = None; // (first, path, valid_len)
        let mut hole = false;
        for (i, (first, path)) in names.iter().enumerate() {
            if hole {
                // Beyond the durable prefix: a prior segment had a hole, so
                // nothing after it can be trusted (or reached) — drop it.
                fs::remove_file(path)?;
                continue;
            }
            let (mut frames, mut valid_end) = scan_segment(path)?;
            // Continuity across the segment boundary: scan_segment only
            // checks within one file. A segment continues the log when it
            // is named after the index that follows its predecessor's last
            // frame and its first frame carries that index. Anything else —
            // an overlapping or misnamed segment, or a predecessor cut short
            // at a frame boundary, which no CRC can see — would replay a
            // gap or a regression. Treat it like any other corruption:
            // discard this segment entirely (and, via `hole`, everything
            // after it).
            let continues = last_idx.is_none_or(|last| *first == last + 1)
                && frames.first().is_none_or(|f| f.idx == *first);
            if !continues {
                frames.clear();
                valid_end = 0;
            }
            let file_len = fs::metadata(path)?.len();
            // An empty segment is a hole unless it is the tail: a roll
            // writes the new segment's first frame before the next roll,
            // so only the newest segment can be empty after a crash.
            let empty_inside = frames.is_empty() && i + 1 < names.len();
            if valid_end < file_len || !continues || empty_inside {
                // Torn/corrupt tail: truncate to the last valid frame.
                OpenOptions::new().write(true).open(path)?.set_len(valid_end)?;
                hole = true;
            }
            if let Some(f) = frames.last() {
                last_idx = Some(f.idx);
            }
            if hole || i + 1 == names.len() {
                tail = Some((*first, path.clone(), valid_end));
            } else {
                closed.insert(*first, path.clone());
            }
        }
        // If a hole forced an early tail, every later name was deleted by
        // the `hole` short-circuit above, so `closed` holds only segments
        // strictly before the (possibly truncated) tail.

        let active = match tail {
            // A tail with no surviving frames would leave a segment whose
            // name no longer matches its first frame; drop it and let the
            // next append create a correctly named one.
            Some((_, path, 0)) => {
                fs::remove_file(&path)?;
                None
            }
            Some((first, path, len)) => {
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                file.seek(SeekFrom::Start(len))?;
                Some(ActiveSegment {
                    first_idx: first,
                    path,
                    file,
                    len,
                    buf: Vec::with_capacity(FLUSH_BYTES * 2),
                })
            }
            None => None,
        };

        Ok(Self {
            dir,
            cfg,
            closed,
            active,
            last_idx,
            watermark,
            unsynced: 0,
            flusher: None,
            abandoned: false,
        })
    }

    /// Simulate a process crash: drop the log on the floor mid-write.
    ///
    /// A torn prefix of the append buffer is pushed into the active segment
    /// file (a real crash can land anywhere inside a `write`); the rest of
    /// the buffered tail is lost. Every later mutation is a no-op and `Drop`
    /// skips the clean-shutdown flush, so the on-disk state is exactly what
    /// the next [`EventLog::open`]'s torn-write repair must cope with.
    pub fn abandon(&mut self) {
        self.abandoned = true;
        if let Some(a) = &mut self.active {
            if !a.buf.is_empty() {
                let torn = a.buf.len() / 2;
                use std::io::Write as _;
                let _ = a.file.write_all(&a.buf[..torn]);
                a.buf.clear();
            }
        }
    }

    /// Whether [`abandon`](EventLog::abandon) has been called.
    pub fn is_abandoned(&self) -> bool {
        self.abandoned
    }

    /// The durable truncation floor (oldest index a recovery may need).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Highest index appended or recovered, if any.
    pub fn last_idx(&self) -> Option<u64> {
        self.last_idx
    }

    /// Oldest send index physically present in the log, if any frame is.
    /// `replay_from(i)` is complete iff `i >= first_retained_idx()`.
    pub fn first_retained_idx(&self) -> Option<u64> {
        self.closed
            .keys()
            .next()
            .copied()
            .or_else(|| self.active.as_ref().map(|a| a.first_idx))
            .filter(|_| self.last_idx.is_some())
    }

    /// Append one event frame. `wire` must be the wire encoding of a
    /// [`Frame`] (as produced by `encode_frame`/`SharedEvent::encoded`);
    /// `idx` must exceed every previously appended index, and should be the
    /// next one: recovery keeps frames only up to the first gap between
    /// segments (see the module docs).
    pub fn append(&mut self, idx: u64, wire: &[u8]) -> io::Result<()> {
        if self.abandoned {
            return Ok(());
        }
        if let Some(last) = self.last_idx {
            assert!(idx > last, "log indices must be monotone: {idx} after {last}");
        }
        let frame_len = HEADER + 8 + wire.len() as u64;
        let roll = match &self.active {
            Some(a) => a.len + frame_len > self.cfg.segment_bytes && a.len > 0,
            None => false,
        };
        if roll {
            let mut a = self.active.take().unwrap();
            // Bound loss to the active segment: a closed segment is always
            // fully durable, whatever the append-time policy.
            a.flush()?;
            a.file.sync_data()?;
            self.closed.insert(a.first_idx, a.path);
        }
        if self.active.is_none() {
            let path = segment_path(&self.dir, idx);
            let file = OpenOptions::new().create_new(true).read(true).write(true).open(&path)?;
            self.active = Some(ActiveSegment {
                first_idx: idx,
                path,
                file,
                len: 0,
                buf: Vec::with_capacity(FLUSH_BYTES * 2),
            });
        }

        // Build the record straight into the append buffer — no temporary
        // allocations on the hot path. The CRC slot is patched once the
        // payload is in place.
        let a = self.active.as_mut().unwrap();
        let start = a.buf.len();
        a.buf.extend_from_slice(&((8 + wire.len()) as u32).to_le_bytes());
        a.buf.extend_from_slice(&[0u8; 4]);
        a.buf.extend_from_slice(&idx.to_le_bytes());
        a.buf.extend_from_slice(wire);
        let crc = crc32(&a.buf[start + HEADER as usize..]);
        a.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        a.len += frame_len;
        self.last_idx = Some(idx);

        match self.cfg.fsync {
            FsyncPolicy::PerWrite => {
                a.flush()?;
                a.file.sync_data()?;
            }
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    a.flush()?;
                    let clone = a.file.try_clone()?;
                    self.flusher.get_or_insert_with(Flusher::spawn).request(clone);
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::OnCommit => {}
        }
        if a.buf.len() >= FLUSH_BYTES {
            a.flush()?;
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage (a synchronous
    /// barrier, whatever the append policy). Errors if a background sync
    /// previously failed.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.abandoned {
            return Ok(());
        }
        if let Some(f) = &self.flusher {
            f.check()?;
        }
        if let Some(a) = &mut self.active {
            a.flush()?;
            a.file.sync_data()?;
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Checkpoint commit: make the log durable up to now, advance the
    /// truncation watermark to `floor` (the backup queue's oldest retained
    /// index after the prune), and delete whole segments every frame of
    /// which is below it — except the newest such closed segment, kept as
    /// slack (see the module docs). The watermark only moves forward.
    pub fn commit(&mut self, floor: u64) -> io::Result<()> {
        if self.abandoned {
            return Ok(());
        }
        // Durability point: whatever the append policy, a commit makes the
        // suffix the mirrors just acknowledged recoverable.
        self.sync()?;
        if floor > self.watermark {
            write_atomic(&self.dir, WATERMARK_TMP, WATERMARK_FILE, &encode_watermark(floor))?;
            self.watermark = floor;
        }
        // A closed segment [first, next_first) is wholly below the floor
        // iff the segment after it starts at or below the floor. The oldest
        // closed segment is disposable iff the closed segment after it is
        // wholly below the floor too.
        loop {
            let mut keys = self.closed.keys();
            let (Some(&first), Some(_), after_next) = (keys.next(), keys.next(), keys.next())
            else {
                break;
            };
            let after_next_first =
                after_next.copied().or_else(|| self.active.as_ref().map(|a| a.first_idx));
            match after_next_first {
                Some(nf) if nf <= self.watermark => {
                    let path = self.closed.remove(&first).unwrap();
                    fs::remove_file(path)?;
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// Decode and return every retained event with `send_idx >= from_idx`,
    /// in index order. Complete iff `from_idx >= first_retained_idx()`.
    pub fn replay_from(&mut self, from_idx: u64) -> io::Result<Vec<(u64, Arc<Event>)>> {
        let mut paths: Vec<(u64, PathBuf)> =
            self.closed.iter().map(|(k, v)| (*k, v.clone())).collect();
        if let Some(a) = &mut self.active {
            // The scan reads the file; buffered appends must be in it.
            a.flush()?;
            paths.push((a.first_idx, a.path.clone()));
        }
        // Skip segments that end before `from_idx`: a segment's frames are
        // all below its successor's first index.
        let mut out = Vec::new();
        for (i, (_first, path)) in paths.iter().enumerate() {
            if let Some((next_first, _)) = paths.get(i + 1) {
                if *next_first <= from_idx {
                    continue;
                }
            }
            let (frames, _) = scan_segment(path)?;
            for f in frames {
                if f.idx < from_idx {
                    continue;
                }
                let frame = decode_frame(f.wire).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("wire decode: {e:?}"))
                })?;
                match frame {
                    Frame::Data(ev) => out.push((f.idx, ev)),
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("non-data frame in event log: {other:?}"),
                        ))
                    }
                }
            }
        }
        Ok(out)
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.closed.len() + usize::from(self.active.is_some())
    }
}

impl Drop for EventLog {
    /// A clean shutdown writes out the append buffer (no fsync — the OS
    /// gets the bytes, the policy's durability bound is unchanged), so only
    /// a crash can lose buffered frames.
    fn drop(&mut self) {
        if self.abandoned {
            return;
        }
        if let Some(a) = &mut self.active {
            let _ = a.flush();
        }
    }
}

fn encode_watermark(v: u64) -> Vec<u8> {
    let body = v.to_le_bytes();
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

fn read_watermark(dir: &Path) -> io::Result<Option<u64>> {
    let path = dir.join(WATERMARK_FILE);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut buf)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if buf.len() != 12 {
        return Ok(None); // torn watermark write: fall back to the default
    }
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if crc32(&buf[..8]) != crc {
        return Ok(None);
    }
    Ok(Some(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::{Event, PositionFix};
    use mirror_core::timestamp::VectorTimestamp;
    use mirror_echo::wire::encode_frame;

    fn test_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mirror-store-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn event(seq: u64) -> Arc<Event> {
        let mut e = Event::faa_position(
            seq,
            (seq % 5) as u32,
            PositionFix {
                lat: 1.0,
                lon: 2.0,
                alt_ft: 30000.0,
                speed_kts: 450.0,
                heading_deg: 90.0,
            },
        );
        let mut st = VectorTimestamp::new(2);
        st.advance(0, seq);
        e.stamp = st;
        Arc::new(e)
    }

    fn wire_bytes(seq: u64) -> (Arc<Event>, Bytes) {
        let ev = event(seq);
        let b = encode_frame(&Frame::Data(Arc::clone(&ev)));
        (ev, b)
    }

    #[test]
    fn append_reopen_replay_roundtrip() {
        let dir = test_dir("roundtrip");
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        for i in 1..=10u64 {
            let (_, b) = wire_bytes(i);
            log.append(i, &b).unwrap();
        }
        drop(log);
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let got = log.replay_from(1).unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got.first().unwrap().0, 1);
        assert_eq!(got.last().unwrap().0, 10);
        assert_eq!(log.last_idx(), Some(10));
        let tail = log.replay_from(7).unwrap();
        assert_eq!(tail.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![7, 8, 9, 10]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = test_dir("torn");
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        for i in 1..=5u64 {
            let (_, b) = wire_bytes(i);
            log.append(i, &b).unwrap();
        }
        log.sync().unwrap();
        let seg = segment_path(&dir, 1);
        drop(log);
        // Chop 3 bytes off the last frame: a torn write.
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 3).unwrap();

        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let got = log.replay_from(1).unwrap();
        assert_eq!(got.len(), 4, "last frame was torn; first four survive");
        assert_eq!(log.last_idx(), Some(4));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_truncates_from_that_frame() {
        let dir = test_dir("corrupt");
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let mut offsets = Vec::new();
        let mut running = 0u64;
        for i in 1..=5u64 {
            let (_, b) = wire_bytes(i);
            log.append(i, &b).unwrap();
            running += HEADER + 8 + b.len() as u64;
            offsets.push(running);
        }
        log.sync().unwrap();
        drop(log);
        // Flip a byte inside frame 3's payload.
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let target = offsets[1] as usize + HEADER as usize + 4;
        bytes[target] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();

        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(log.last_idx(), Some(2), "frames 3..5 follow the corruption");
        assert_eq!(log.replay_from(1).unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapping_segment_is_discarded_as_corruption() {
        let dir = test_dir("overlap");
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        for i in 1..=5u64 {
            let (_, b) = wire_bytes(i);
            log.append(i, &b).unwrap();
        }
        drop(log);
        // A second segment claiming to start at 6 but holding frames 1..=5
        // again: its first frame regresses below the predecessor's last
        // index, so the whole segment must be treated as corruption.
        fs::copy(segment_path(&dir, 1), segment_path(&dir, 6)).unwrap();

        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(log.last_idx(), Some(5), "overlap must not extend the log");
        let got = log.replay_from(1).unwrap();
        assert_eq!(got.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert_eq!(log.segment_count(), 1, "the overlapping segment is deleted");
        assert!(!segment_path(&dir, 6).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A closed segment cut at a frame boundary, or emptied, passes every
    /// CRC; the next segment no longer continues it, so recovery stops
    /// there instead of replaying across the gap.
    #[test]
    fn a_closed_segment_cut_at_a_frame_boundary_ends_the_prefix() {
        for keep in [0u64, 1] {
            let dir = test_dir(&format!("gap{keep}"));
            let cfg = LogConfig { fsync: FsyncPolicy::OnCommit, segment_bytes: 250 };
            let mut log = EventLog::open(&dir, cfg).unwrap();
            for i in 1..=9u64 {
                log.append(i, &wire_bytes(i).1).unwrap();
            }
            drop(log);
            let record = HEADER + 8 + wire_bytes(1).1.len() as u64;
            let seg = segment_path(&dir, 1);
            assert!(fs::metadata(&seg).unwrap().len() > record, "two frames per segment");
            OpenOptions::new().write(true).open(&seg).unwrap().set_len(keep * record).unwrap();

            let mut log = EventLog::open(&dir, cfg).unwrap();
            let got: Vec<u64> = log.replay_from(0).unwrap().iter().map(|(i, _)| *i).collect();
            assert_eq!(got, (1..=keep).collect::<Vec<_>>(), "kept {keep} frames");
            assert_eq!(log.segment_count(), keep as usize);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn commit_deletes_whole_segments_below_watermark() {
        let dir = test_dir("commitgc");
        // Tiny segments: every ~2 frames rolls.
        let cfg = LogConfig { fsync: FsyncPolicy::OnCommit, segment_bytes: 160 };
        let mut log = EventLog::open(&dir, cfg).unwrap();
        for i in 1..=12u64 {
            let (_, b) = wire_bytes(i);
            log.append(i, &b).unwrap();
        }
        assert!(log.segment_count() > 2, "expected multiple segments");
        let before = log.segment_count();
        log.commit(9).unwrap();
        assert!(log.segment_count() < before, "commit must GC full segments");
        assert_eq!(log.watermark(), 9);
        // Everything >= 9 must still replay.
        let got = log.replay_from(9).unwrap();
        assert_eq!(got.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![9, 10, 11, 12]);
        assert!(log.first_retained_idx().unwrap() <= 9);
        drop(log);
        // Watermark survives reopen.
        let log = EventLog::open(&dir, cfg).unwrap();
        assert_eq!(log.watermark(), 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_keeps_the_newest_closed_segment_below_the_floor() {
        let dir = test_dir("commitslack");
        let cfg = LogConfig { fsync: FsyncPolicy::OnCommit, segment_bytes: 160 };
        let mut log = EventLog::open(&dir, cfg).unwrap();
        for i in 1..=12u64 {
            let (_, b) = wire_bytes(i);
            log.append(i, &b).unwrap();
        }
        // Past the last frame: every closed segment is below the floor.
        log.commit(13).unwrap();
        assert!(log.segment_count() >= 2, "one closed segment stays as slack");
        let first = log.first_retained_idx().unwrap();
        let got: Vec<u64> = log.replay_from(first).unwrap().iter().map(|(i, _)| *i).collect();
        assert_eq!(got, (first..=12).collect::<Vec<_>>());
        assert!(got.len() >= 2, "the tail outlives the roll: {got:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_never_regresses() {
        let dir = test_dir("wm");
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let (_, b) = wire_bytes(1);
        log.append(1, &b).unwrap();
        log.commit(5).unwrap();
        log.commit(3).unwrap();
        assert_eq!(log.watermark(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }
}
