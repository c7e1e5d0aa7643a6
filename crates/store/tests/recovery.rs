//! Crash-recovery property tests for the durable event log.
//!
//! The acceptance property: truncating a log segment at an *arbitrary* byte
//! offset (simulating a crash mid-write, a torn page, or a partial flush)
//! and reopening must recover exactly the durable prefix — every frame whose
//! bytes fully survive, and nothing after the cut.

use std::fs::{self, OpenOptions};
use std::path::PathBuf;
use std::sync::Arc;

use mirror_core::event::{Event, PositionFix};
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::wire::{encode_frame, Frame};
use mirror_store::{EventLog, FsyncPolicy, LogConfig};
use mirror_workload::rng::check;

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mirror-store-prop-{}-{}", std::process::id(), tag));
    let _ = fs::remove_dir_all(&d);
    d
}

fn event(seq: u64) -> Arc<Event> {
    let mut e = Event::faa_position(
        seq,
        (seq % 6) as u32,
        PositionFix {
            lat: (seq as f64).sin(),
            lon: (seq as f64).cos(),
            alt_ft: 1000.0 + seq as f64,
            speed_kts: 300.0,
            heading_deg: 90.0,
        },
    );
    let mut st = VectorTimestamp::new(2);
    st.advance(0, seq);
    e.stamp = st;
    Arc::new(e)
}

/// Write `n` events into a single-segment log and return the byte offset at
/// which each frame *ends* (frame i fully durable iff file length >= ends[i]).
fn write_log(dir: &PathBuf, n: u64) -> Vec<u64> {
    let cfg = LogConfig { fsync: FsyncPolicy::OnCommit, segment_bytes: u64::MAX };
    let mut log = EventLog::open(dir, cfg).unwrap();
    let mut ends = Vec::new();
    let mut running = 0u64;
    for i in 1..=n {
        let wire = encode_frame(&Frame::Data(event(i)));
        log.append(i, &wire).unwrap();
        running += 8 + 8 + wire.len() as u64; // header + idx + frame bytes
        ends.push(running);
    }
    log.sync().unwrap();
    ends
}

/// Truncate the segment at an arbitrary offset; reopening must yield
/// exactly the frames that ended at or before the cut.
#[test]
fn truncation_recovers_exactly_the_durable_prefix() {
    check("truncation_recovers_exactly_the_durable_prefix", 64, |rng| {
        let n = rng.gen_range(1..40u64);
        let cut_frac: f64 = rng.gen_range(0.0..1.0);
        let dir = test_dir(&format!("trunc-{n}-{}", (cut_frac * 1e6) as u64));
        let ends = write_log(&dir, n);
        let total = *ends.last().unwrap();
        let cut = (total as f64 * cut_frac) as u64;

        // Single segment: first frame has idx 1, so the file is wal-…1.seg.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .expect("segment file exists");
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();

        let expected: Vec<u64> = ends
            .iter()
            .enumerate()
            .filter(|(_, &end)| end <= cut)
            .map(|(i, _)| (i + 1) as u64)
            .collect();

        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let got: Vec<u64> = log.replay_from(0).unwrap().iter().map(|(i, _)| *i).collect();
        assert_eq!(&got, &expected, "cut at {} of {}", cut, total);
        assert_eq!(log.last_idx(), expected.last().copied());

        // The recovered log must accept further appends and replay them.
        drop(log);
        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let next = expected.last().copied().unwrap_or(0) + 1;
        let wire = encode_frame(&Frame::Data(event(next)));
        log.append(next, &wire).unwrap();
        log.sync().unwrap();
        let after: Vec<u64> = log.replay_from(0).unwrap().iter().map(|(i, _)| *i).collect();
        let mut want = expected.clone();
        want.push(next);
        assert_eq!(after, want);

        fs::remove_dir_all(&dir).unwrap();
    });
}

/// Corrupting one byte anywhere in the file must never surface bogus
/// frames: recovery yields a prefix of what was written (frames before
/// the corrupted one), never altered payloads.
#[test]
fn single_byte_corruption_yields_a_clean_prefix() {
    check("single_byte_corruption_yields_a_clean_prefix", 64, |rng| {
        let n = rng.gen_range(2..30u64);
        let pos_frac: f64 = rng.gen_range(0.0..1.0);
        let dir = test_dir(&format!("flip-{n}-{}", (pos_frac * 1e6) as u64));
        let ends = write_log(&dir, n);
        let total = *ends.last().unwrap();
        let pos = ((total.saturating_sub(1)) as f64 * pos_frac) as usize;

        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        bytes[pos] ^= 0xA5;
        fs::write(&seg, &bytes).unwrap();

        // The corrupted byte lives in frame k (first frame whose end is
        // beyond pos); frames before k must survive intact.
        let k = ends.iter().position(|&end| (pos as u64) < end).unwrap();

        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let got = log.replay_from(0).unwrap();
        // Everything strictly before the corrupted frame survives…
        assert!(got.len() >= k, "lost intact frames before the corruption");
        // …and whatever is recovered is a prefix with intact contents.
        for (j, (idx, ev)) in got.iter().enumerate() {
            assert_eq!(*idx, (j + 1) as u64);
            assert_eq!(ev.stamp.get(0), *idx);
        }

        fs::remove_dir_all(&dir).unwrap();
    });
}

/// Multi-segment variant: the cut may land in the middle segment, in which
/// case the whole later segment must be discarded too.
#[test]
fn truncation_in_middle_segment_discards_later_segments() {
    let dir = test_dir("midseg");
    let cfg = LogConfig { fsync: FsyncPolicy::OnCommit, segment_bytes: 200 };
    let mut log = EventLog::open(&dir, cfg).unwrap();
    for i in 1..=30u64 {
        let wire = encode_frame(&Frame::Data(event(i)));
        log.append(i, &wire).unwrap();
    }
    log.sync().unwrap();
    assert!(log.segment_count() >= 3, "need at least three segments");
    drop(log);

    // Chop the second segment in half.
    let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    let victim = &segs[1];
    let len = fs::metadata(victim).unwrap().len();
    OpenOptions::new().write(true).open(victim).unwrap().set_len(len / 2).unwrap();

    let mut log = EventLog::open(&dir, cfg).unwrap();
    let got: Vec<u64> = log.replay_from(0).unwrap().iter().map(|(i, _)| *i).collect();
    assert!(!got.is_empty());
    // Contiguous prefix starting at 1, ending before segment 3's first idx.
    for (j, idx) in got.iter().enumerate() {
        assert_eq!(*idx, (j + 1) as u64);
    }
    assert!(*got.last().unwrap() < 30, "frames past the cut must not survive");
    fs::remove_dir_all(&dir).unwrap();
}

/// The segment files of `dir`, in index order.
fn segments(dir: &PathBuf) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs
}

/// Offsets of the records in an undamaged segment.
fn record_offsets(seg: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut off = 0;
    while off < seg.len() {
        offsets.push(off);
        off += 8 + u32::from_le_bytes(seg[off..off + 4].try_into().unwrap()) as usize;
    }
    offsets
}

/// Replayed indices, after checking every payload is the event written
/// under its index.
fn replay_checked(log: &mut EventLog) -> Vec<u64> {
    let replayed = log.replay_from(0).expect("replay of a recovered log");
    for (idx, ev) in &replayed {
        assert_eq!(**ev, *event(*idx), "payload of {idx} altered");
    }
    replayed.iter().map(|(i, _)| *i).collect()
}

/// Recovery-scan fuzz over multi-segment logs: 1–4 flipped bits anywhere,
/// a cut at any offset of any segment, a record length overwritten with a
/// large `u32`, or a flipped CRC. Whatever the damage, opening and
/// replaying succeed and yield indices exactly `1..=k` with intact
/// payloads; a second open replays the same `k`, and the repaired log
/// takes `k + 1`. A length field is never trusted past the bytes on disk,
/// so no case allocates from one.
#[test]
fn damaged_logs_recover_a_gap_free_prefix() {
    check("damaged_logs_recover_a_gap_free_prefix", 128, |rng| {
        let dir = test_dir("fuzz");
        let n = rng.gen_range(8..40u64);
        let cfg =
            LogConfig { fsync: FsyncPolicy::OnCommit, segment_bytes: rng.gen_range(150..600) };
        let mut log = EventLog::open(&dir, cfg).unwrap();
        for i in 1..=n {
            log.append(i, &encode_frame(&Frame::Data(event(i)))).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let segs = segments(&dir);
        let seg = &segs[rng.gen_range(0..segs.len())];
        let mut bytes = fs::read(seg).unwrap();
        let records = record_offsets(&bytes);
        let record = records[rng.gen_range(0..records.len())];
        match rng.gen_range(0..4u8) {
            0 => {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let seg = &segs[rng.gen_range(0..segs.len())];
                    let mut bytes = fs::read(seg).unwrap();
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= 1 << rng.gen_range(0..8u32);
                    fs::write(seg, &bytes).unwrap();
                }
            }
            1 => {
                // Any offset, record boundaries over-represented: a cut
                // there passes every CRC.
                let cut =
                    if rng.gen_bool() { record } else { rng.gen_range(0..bytes.len()) } as u64;
                OpenOptions::new().write(true).open(seg).unwrap().set_len(cut).unwrap();
            }
            2 => {
                let len = rng.gen_range(bytes.len() as u32..=u32::MAX);
                bytes[record..record + 4].copy_from_slice(&len.to_le_bytes());
                fs::write(seg, &bytes).unwrap();
            }
            _ => {
                bytes[record + 4 + rng.gen_range(0..4usize)] ^= 1 << rng.gen_range(0..8u32);
                fs::write(seg, &bytes).unwrap();
            }
        }

        let mut log = EventLog::open(&dir, cfg).expect("open a damaged log");
        let got = replay_checked(&mut log);
        let k = got.len() as u64;
        assert_eq!(got, (1..=k).collect::<Vec<_>>(), "replay is not a gap-free prefix");
        assert_eq!(log.last_idx(), (k > 0).then_some(k));
        drop(log);

        let mut log = EventLog::open(&dir, cfg).expect("reopen a repaired log");
        assert_eq!(replay_checked(&mut log), got, "a second open replays the same prefix");
        log.append(k + 1, &encode_frame(&Frame::Data(event(k + 1)))).unwrap();
        log.sync().unwrap();
        assert_eq!(replay_checked(&mut log), (1..=k + 1).collect::<Vec<_>>());
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    });
}
