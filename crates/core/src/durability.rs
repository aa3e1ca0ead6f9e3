//! The durable-storage layer under the write-ahead journal: framed,
//! checksummed encoding, checkpoint integrity seals, and the scanner
//! that recovers a trusted prefix from a possibly-corrupt log.
//!
//! PR 2's crash replay assumed the journal survives a crash byte-perfect.
//! Real storage fails *partially*: the last frame of an in-flight write
//! tears, a bit rots, an acknowledged write never lands, a write buffer
//! replays twice, a checkpoint file truncates. This module makes the
//! journal's integrity explicit so recovery can check it instead of
//! assuming it:
//!
//! - every [`JournalRecord`] is appended to a [`DurableLog`] as a
//!   length-prefixed frame `[len:u32][seq:u64][checksum:u64][payload]`,
//!   where `checksum` is FNV-1a over the sequence number and payload
//!   (the same hash the trace sink uses) and `seq` increases by one per
//!   frame — so torn tails, interior corruption, lost writes, and
//!   duplicated frames are all *detectable*;
//! - every checkpoint captures a [`CheckpointSeal`]: the frame count,
//!   byte length, and whole-log running hash at capture, plus a digest
//!   over the seal itself — so recovery can prove a checkpoint and the
//!   log prefix it depends on agree before trusting either;
//! - [`scan`] walks a (possibly struck) byte image and returns the
//!   longest verifiable prefix, dropping exact duplicate frames and
//!   classifying the first anomaly, which
//!   [`RecoveryRung`](crate::recovery::RecoveryRung) selection in the
//!   crash handler turns into a recovery ladder.
//!
//! [`apply_strike`] acts out a [`StorageStrike`] drawn by jord-hw's
//! injector: the hardware crate names the failure mode and supplies raw
//! seeded entropy; this module, which owns the frame geometry, reduces
//! the entropy onto concrete frame/byte/bit coordinates. Everything is
//! deterministic per seed, and nothing here consumes randomness unless a
//! storage fault is actually armed.

use jord_hw::types::Va;
use jord_hw::{StorageFaultKind, StorageStrike};
use jord_sim::SimTime;

use crate::admission::BrownoutLevel;
use crate::function::FunctionId;
use crate::invocation::InvocationId;
use crate::journal::JournalRecord;

/// Frame header size: `len: u32` + `seq: u64` + `checksum: u64`.
pub const FRAME_HEADER_BYTES: usize = 4 + 8 + 8;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a hash.
pub(crate) fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Per-frame checksum: FNV-1a over the sequence number then the payload,
/// so a frame copied to a different position fails verification even if
/// its payload is intact.
fn frame_checksum(seq: u64, payload: &[u8]) -> u64 {
    fnv1a_fold(fnv1a_fold(FNV_OFFSET, &seq.to_le_bytes()), payload)
}

// ----------------------------------------------------------------------
// Record payload codec
// ----------------------------------------------------------------------

/// Crash-scope labels the journal can carry, in encoding order. The
/// journal stores `&'static str` labels; frames store the index.
const SCOPE_LABELS: [&str; 4] = ["executor", "orchestrator", "worker", "cluster-worker"];

fn scope_index(scope: &str) -> u8 {
    SCOPE_LABELS
        .iter()
        .position(|&s| s == scope)
        .map_or(u8::MAX, |i| i as u8)
}

fn brownout_index(level: BrownoutLevel) -> u8 {
    match level {
        BrownoutLevel::Normal => 0,
        BrownoutLevel::Degraded => 1,
        BrownoutLevel::ShedHeavy => 2,
    }
}

fn brownout_from(idx: u8) -> Option<BrownoutLevel> {
    match idx {
        0 => Some(BrownoutLevel::Normal),
        1 => Some(BrownoutLevel::Degraded),
        2 => Some(BrownoutLevel::ShedHeavy),
        _ => None,
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_time(out: &mut Vec<u8>, t: SimTime) {
    put_u64(out, t.as_ps());
}

/// Cursor over a payload; every `take_*` fails (returns `None`) rather
/// than panicking, so corrupt payloads decode to `None`, never UB or
/// garbage values.
struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, off: 0 }
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let end = self.off.checked_add(N)?;
        let bytes: [u8; N] = self.buf.get(self.off..end)?.try_into().ok()?;
        self.off = end;
        Some(bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take::<4>().map(u32::from_le_bytes)
    }

    fn u16(&mut self) -> Option<u16> {
        self.take::<2>().map(u16::from_le_bytes)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn time(&mut self) -> Option<SimTime> {
        self.u64().map(SimTime::from_ps)
    }

    fn done(&self) -> bool {
        self.off == self.buf.len()
    }
}

const TAG_ADMIT: u8 = 0;
const TAG_DISPATCH: u8 = 1;
const TAG_PD_CREATE: u8 = 2;
const TAG_ARGBUF_GRANT: u8 = 3;
const TAG_COMPLETE: u8 = 4;
const TAG_FAIL: u8 = 5;
const TAG_SHED: u8 = 6;
const TAG_RETRY_SCHEDULED: u8 = 7;
const TAG_RETRY_FIRED: u8 = 8;
const TAG_RETRY_DROPPED: u8 = 9;
const TAG_CANCEL: u8 = 10;
const TAG_CRASH: u8 = 11;
const TAG_CHECKPOINT: u8 = 12;
const TAG_BROWNOUT: u8 = 13;

/// Appends the binary payload encoding of `r` (a tag byte followed by
/// fixed-width little-endian fields) to `out`.
pub fn encode_record(r: &JournalRecord, out: &mut Vec<u8>) {
    match *r {
        JournalRecord::Admit {
            id,
            func,
            bytes,
            arrival,
            attempt,
            tag,
        } => {
            out.push(TAG_ADMIT);
            put_u64(out, id.0 as u64);
            put_u32(out, func.0);
            put_u64(out, bytes);
            put_time(out, arrival);
            put_u32(out, attempt);
            put_u64(out, tag);
        }
        JournalRecord::Dispatch { id, executor } => {
            out.push(TAG_DISPATCH);
            put_u64(out, id.0 as u64);
            put_u64(out, executor as u64);
        }
        JournalRecord::PdCreate { id, pd } => {
            out.push(TAG_PD_CREATE);
            put_u64(out, id.0 as u64);
            out.extend_from_slice(&pd.to_le_bytes());
        }
        JournalRecord::ArgBufGrant { id, va, bytes } => {
            out.push(TAG_ARGBUF_GRANT);
            put_u64(out, id.0 as u64);
            put_u64(out, va);
            put_u64(out, bytes);
        }
        JournalRecord::Complete { id, measured } => {
            out.push(TAG_COMPLETE);
            put_u64(out, id.0 as u64);
            out.push(measured as u8);
        }
        JournalRecord::Fail { id, measured } => {
            out.push(TAG_FAIL);
            put_u64(out, id.0 as u64);
            out.push(measured as u8);
        }
        JournalRecord::Shed { func, measured } => {
            out.push(TAG_SHED);
            put_u32(out, func.0);
            out.push(measured as u8);
        }
        JournalRecord::RetryScheduled {
            token,
            id,
            func,
            bytes,
            arrival,
            attempt,
            due,
            tag,
            measured,
        } => {
            out.push(TAG_RETRY_SCHEDULED);
            put_u64(out, token);
            put_u64(out, id.0 as u64);
            put_u32(out, func.0);
            put_u64(out, bytes);
            put_time(out, arrival);
            put_u32(out, attempt);
            put_time(out, due);
            put_u64(out, tag);
            out.push(measured as u8);
        }
        JournalRecord::RetryFired { token } => {
            out.push(TAG_RETRY_FIRED);
            put_u64(out, token);
        }
        JournalRecord::RetryDropped { token, measured } => {
            out.push(TAG_RETRY_DROPPED);
            put_u64(out, token);
            out.push(measured as u8);
        }
        JournalRecord::Cancel { id } => {
            out.push(TAG_CANCEL);
            put_u64(out, id.0 as u64);
        }
        JournalRecord::Crash { scope } => {
            out.push(TAG_CRASH);
            out.push(scope_index(scope));
        }
        JournalRecord::Checkpoint => out.push(TAG_CHECKPOINT),
        JournalRecord::Brownout { level } => {
            out.push(TAG_BROWNOUT);
            out.push(brownout_index(level));
        }
    }
}

/// Decodes one record payload. Returns `None` unless the payload parses
/// completely and exactly (no trailing bytes, no out-of-range field).
pub fn decode_record(payload: &[u8]) -> Option<JournalRecord> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_ADMIT => JournalRecord::Admit {
            id: InvocationId(r.u64()? as usize),
            func: FunctionId(r.u32()?),
            bytes: r.u64()?,
            arrival: r.time()?,
            attempt: r.u32()?,
            tag: r.u64()?,
        },
        TAG_DISPATCH => JournalRecord::Dispatch {
            id: InvocationId(r.u64()? as usize),
            executor: r.u64()? as usize,
        },
        TAG_PD_CREATE => JournalRecord::PdCreate {
            id: InvocationId(r.u64()? as usize),
            pd: r.u16()?,
        },
        TAG_ARGBUF_GRANT => JournalRecord::ArgBufGrant {
            id: InvocationId(r.u64()? as usize),
            va: r.u64()? as Va,
            bytes: r.u64()?,
        },
        TAG_COMPLETE => JournalRecord::Complete {
            id: InvocationId(r.u64()? as usize),
            measured: r.bool()?,
        },
        TAG_FAIL => JournalRecord::Fail {
            id: InvocationId(r.u64()? as usize),
            measured: r.bool()?,
        },
        TAG_SHED => JournalRecord::Shed {
            func: FunctionId(r.u32()?),
            measured: r.bool()?,
        },
        TAG_RETRY_SCHEDULED => JournalRecord::RetryScheduled {
            token: r.u64()?,
            id: InvocationId(r.u64()? as usize),
            func: FunctionId(r.u32()?),
            bytes: r.u64()?,
            arrival: r.time()?,
            attempt: r.u32()?,
            due: r.time()?,
            tag: r.u64()?,
            measured: r.bool()?,
        },
        TAG_RETRY_FIRED => JournalRecord::RetryFired { token: r.u64()? },
        TAG_RETRY_DROPPED => JournalRecord::RetryDropped {
            token: r.u64()?,
            measured: r.bool()?,
        },
        TAG_CANCEL => JournalRecord::Cancel {
            id: InvocationId(r.u64()? as usize),
        },
        TAG_CRASH => JournalRecord::Crash {
            scope: SCOPE_LABELS.get(r.u8()? as usize)?,
        },
        TAG_CHECKPOINT => JournalRecord::Checkpoint,
        TAG_BROWNOUT => JournalRecord::Brownout {
            level: brownout_from(r.u8()?)?,
        },
        _ => return None,
    };
    r.done().then_some(rec)
}

// ----------------------------------------------------------------------
// The framed byte log
// ----------------------------------------------------------------------

/// The journal's durable byte image: every record framed, sequenced, and
/// checksummed, with a whole-log running hash maintained incrementally so
/// checkpoint seals are O(1) to capture.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableLog {
    bytes: Vec<u8>,
    next_seq: u64,
    running_hash: u64,
}

impl Default for DurableLog {
    fn default() -> Self {
        DurableLog {
            bytes: Vec::new(),
            next_seq: 0,
            running_hash: FNV_OFFSET,
        }
    }
}

impl DurableLog {
    /// An empty log.
    pub fn new() -> Self {
        DurableLog::default()
    }

    /// Appends `r` as the next frame. The payload is encoded in place
    /// after a zeroed header, which is then filled in, so a frame costs no
    /// allocation of its own.
    pub fn append(&mut self, r: &JournalRecord) {
        let seq = self.next_seq;
        let start = self.bytes.len();
        let body = start + FRAME_HEADER_BYTES;
        self.bytes.resize(body, 0);
        encode_record(r, &mut self.bytes);
        let payload = &self.bytes[body..];
        let len = payload.len() as u32;
        let checksum = frame_checksum(seq, payload);
        let header = &mut self.bytes[start..body];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..12].copy_from_slice(&seq.to_le_bytes());
        header[12..].copy_from_slice(&checksum.to_le_bytes());
        self.running_hash = fnv1a_fold(self.running_hash, &self.bytes[start..]);
        self.next_seq += 1;
    }

    /// The raw byte image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Frames appended so far (also the next sequence number).
    pub fn frames(&self) -> u64 {
        self.next_seq
    }

    /// The whole-log running FNV-1a hash.
    pub fn running_hash(&self) -> u64 {
        self.running_hash
    }

    /// Captures an integrity seal over the log as of now.
    pub fn seal(&self) -> CheckpointSeal {
        CheckpointSeal::new(self.next_seq, self.bytes.len() as u64, self.running_hash)
    }
}

/// The integrity seal a checkpoint captures over the durable log: how
/// many frames and bytes the log held at capture and what they hashed
/// to, plus a digest over the seal's own fields so a truncated or
/// corrupted checkpoint image is detectable *before* anything trusts
/// its tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSeal {
    /// Frames the log held at capture (replay starts at this record).
    pub frames: u64,
    /// Byte length of the log at capture.
    pub log_bytes: u64,
    /// Whole-log running hash at capture.
    pub log_hash: u64,
    /// FNV-1a over the three fields above: the seal's self-integrity.
    pub digest: u64,
}

impl CheckpointSeal {
    /// Seals a log state.
    pub fn new(frames: u64, log_bytes: u64, log_hash: u64) -> Self {
        CheckpointSeal {
            frames,
            log_bytes,
            log_hash,
            digest: Self::compute_digest(frames, log_bytes, log_hash),
        }
    }

    fn compute_digest(frames: u64, log_bytes: u64, log_hash: u64) -> u64 {
        let mut h = fnv1a_fold(FNV_OFFSET, &frames.to_le_bytes());
        h = fnv1a_fold(h, &log_bytes.to_le_bytes());
        fnv1a_fold(h, &log_hash.to_le_bytes())
    }

    /// True when the seal's own digest is intact (the checkpoint image
    /// was not truncated or corrupted).
    pub fn self_consistent(&self) -> bool {
        self.digest == Self::compute_digest(self.frames, self.log_bytes, self.log_hash)
    }

    /// Full verification against a log image: the seal is
    /// self-consistent *and* the log prefix it covers still hashes to
    /// the sealed value — proving checkpoint and log agree.
    pub fn verifies(&self, log: &[u8]) -> bool {
        self.self_consistent()
            && (self.log_bytes as usize) <= log.len()
            && fnv1a(&log[..self.log_bytes as usize]) == self.log_hash
    }

    /// The seal with its digest ruined — how a truncated checkpoint
    /// image presents to recovery.
    pub fn corrupted(mut self) -> Self {
        self.digest ^= 0xdead_beef;
        self
    }
}

// ----------------------------------------------------------------------
// Scanning a (possibly corrupt) image back into records
// ----------------------------------------------------------------------

/// The first integrity violation a [`scan`] hit, classifying which
/// recovery rung applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameAnomaly {
    /// The image ends mid-frame: a partial final write. Everything
    /// before the torn frame is trustworthy.
    TornTail,
    /// A complete frame failed its checksum or decode: interior
    /// corruption. The log's integrity chain is broken at this frame.
    CorruptFrame {
        /// Sequence number the corrupt frame claimed (or the position
        /// where it sat).
        seq: u64,
    },
    /// A frame's sequence number jumped forward: at least one
    /// acknowledged write never made it to the device.
    SequenceGap {
        /// The sequence number the scan expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
}

/// What a [`scan`] recovered: the longest verifiable record prefix and
/// the classification of whatever stopped it.
#[derive(Debug)]
pub struct ScanReport {
    /// Decoded records of the trusted prefix, duplicate frames dropped.
    pub records: Vec<JournalRecord>,
    /// Frames that verified (checksum + sequence + decode).
    pub frames_verified: u64,
    /// Exact duplicate frames dropped (sequence regression with a valid
    /// checksum — a replayed write buffer).
    pub duplicates_dropped: u64,
    /// Bytes past the end of the trusted prefix (quarantined or torn).
    pub truncated_bytes: u64,
    /// The first integrity violation, or `None` for a clean image.
    pub anomaly: Option<FrameAnomaly>,
}

impl ScanReport {
    /// Frames positively identified as corrupt (quarantined rather than
    /// merely unreadable).
    pub fn frames_quarantined(&self) -> u64 {
        match self.anomaly {
            Some(FrameAnomaly::CorruptFrame { .. }) => 1,
            _ => 0,
        }
    }
}

/// Walks `log` frame by frame, verifying length, checksum, sequence, and
/// decode, and returns the longest trusted prefix.
///
/// Duplicated frames (sequence regression) are dropped and scanning
/// continues — a replayed write changes no state. Any other violation
/// ends the trusted prefix: bytes from the first bad frame onward are
/// reported as truncated, and the anomaly kind tells the recovery ladder
/// which rung applies.
pub fn scan(log: &[u8]) -> ScanReport {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut expected = 0u64;
    let mut verified = 0u64;
    let mut duplicates = 0u64;
    let mut anomaly = None;
    while off < log.len() {
        if log.len() - off < FRAME_HEADER_BYTES {
            anomaly = Some(FrameAnomaly::TornTail);
            break;
        }
        let len = u32::from_le_bytes(log[off..off + 4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(log[off + 4..off + 12].try_into().unwrap());
        let checksum = u64::from_le_bytes(log[off + 12..off + 20].try_into().unwrap());
        let Some(end) = off
            .checked_add(FRAME_HEADER_BYTES)
            .and_then(|h| h.checked_add(len))
            .filter(|&e| e <= log.len())
        else {
            anomaly = Some(FrameAnomaly::TornTail);
            break;
        };
        let payload = &log[off + FRAME_HEADER_BYTES..end];
        if frame_checksum(seq, payload) != checksum {
            anomaly = Some(FrameAnomaly::CorruptFrame { seq: expected });
            break;
        }
        if seq < expected {
            // A replayed write: the identical frame already applied.
            duplicates += 1;
            off = end;
            continue;
        }
        if seq > expected {
            anomaly = Some(FrameAnomaly::SequenceGap {
                expected,
                found: seq,
            });
            break;
        }
        let Some(rec) = decode_record(payload) else {
            anomaly = Some(FrameAnomaly::CorruptFrame { seq });
            break;
        };
        records.push(rec);
        verified += 1;
        expected += 1;
        off = end;
    }
    ScanReport {
        records,
        frames_verified: verified,
        duplicates_dropped: duplicates,
        truncated_bytes: (log.len() - off) as u64,
        anomaly,
    }
}

// ----------------------------------------------------------------------
// Acting out a storage strike
// ----------------------------------------------------------------------

/// Byte spans `(offset, total_len)` of every frame in an intact image.
fn frame_spans(log: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut off = 0usize;
    while off + FRAME_HEADER_BYTES <= log.len() {
        let len = u32::from_le_bytes(log[off..off + 4].try_into().unwrap()) as usize;
        let total = FRAME_HEADER_BYTES + len;
        if off + total > log.len() {
            break;
        }
        spans.push((off, total));
        off += total;
    }
    spans
}

/// Mutates `log` according to `strike`, reducing the strike's raw
/// entropy onto this image's frame geometry. Interior modes (bit flip,
/// dropped write, duplicated frame) never target the final frame — the
/// torn-tail mode owns the tail — so each mode exercises a distinct
/// recovery rung. Returns `false` when the image is too small for the
/// mode to apply (nothing mutated).
///
/// [`StorageFaultKind::TruncatedCheckpoint`] corrupts the checkpoint
/// image, not the log, so it is a no-op here; the crash handler ruins
/// the checkpoint's seal instead.
pub fn apply_strike(log: &mut Vec<u8>, strike: &StorageStrike) -> bool {
    let spans = frame_spans(log);
    let interior = |pick: u64| -> Option<(usize, usize)> {
        if spans.len() < 2 {
            return None;
        }
        Some(spans[(pick % (spans.len() as u64 - 1)) as usize])
    };
    match strike.kind {
        StorageFaultKind::TornTail => {
            let Some(&(_, last_len)) = spans.last() else {
                return false;
            };
            // Tear 1..last_len bytes: the final frame is left incomplete,
            // never cleanly removed.
            let tear = 1 + (strike.byte_pick % (last_len as u64 - 1)) as usize;
            log.truncate(log.len() - tear);
            true
        }
        StorageFaultKind::BitFlip => {
            let Some((off, total)) = interior(strike.frame_pick) else {
                return false;
            };
            // Flip a payload bit: the frame still parses, only the
            // checksum betrays it.
            let payload_len = total - FRAME_HEADER_BYTES;
            let byte = off + FRAME_HEADER_BYTES + (strike.byte_pick % payload_len as u64) as usize;
            log[byte] ^= 1 << (strike.bit_pick % 8);
            true
        }
        StorageFaultKind::DroppedWrite => {
            let Some((off, total)) = interior(strike.frame_pick) else {
                return false;
            };
            log.drain(off..off + total);
            true
        }
        StorageFaultKind::DuplicatedFrame => {
            let Some((off, total)) = interior(strike.frame_pick) else {
                return false;
            };
            let copy: Vec<u8> = log[off..off + total].to_vec();
            log.splice(off + total..off + total, copy);
            true
        }
        StorageFaultKind::TruncatedCheckpoint => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        let id = InvocationId(7);
        let f = FunctionId(3);
        let t = SimTime::from_ns(1_234);
        vec![
            JournalRecord::Admit {
                id,
                func: f,
                bytes: 96,
                arrival: t,
                attempt: 0,
                tag: 11,
            },
            JournalRecord::Dispatch { id, executor: 5 },
            JournalRecord::PdCreate { id, pd: 42 },
            JournalRecord::ArgBufGrant {
                id,
                va: 0xdead_0000,
                bytes: 96,
            },
            JournalRecord::Complete { id, measured: true },
            JournalRecord::Fail {
                id,
                measured: false,
            },
            JournalRecord::Shed {
                func: f,
                measured: true,
            },
            JournalRecord::RetryScheduled {
                token: 9,
                id,
                func: f,
                bytes: 96,
                arrival: t,
                attempt: 2,
                due: SimTime::from_us(50),
                tag: 11,
                measured: true,
            },
            JournalRecord::RetryFired { token: 9 },
            JournalRecord::RetryDropped {
                token: 9,
                measured: false,
            },
            JournalRecord::Cancel { id },
            JournalRecord::Crash { scope: "worker" },
            JournalRecord::Checkpoint,
            JournalRecord::Brownout {
                level: BrownoutLevel::Degraded,
            },
        ]
    }

    fn log_of(records: &[JournalRecord]) -> DurableLog {
        let mut log = DurableLog::new();
        for r in records {
            log.append(r);
        }
        log
    }

    #[test]
    fn every_record_variant_round_trips() {
        for r in sample_records() {
            let mut payload = Vec::new();
            encode_record(&r, &mut payload);
            assert_eq!(decode_record(&payload), Some(r), "round trip of {r:?}");
        }
    }

    /// `append` writes `[len][seq][checksum][payload]` per record, and the
    /// running hash and seal cover exactly those bytes.
    #[test]
    fn frames_follow_the_documented_layout() {
        let records = sample_records();
        let mut expected = Vec::new();
        for (seq, r) in (0u64..).zip(&records) {
            let mut payload = Vec::new();
            encode_record(r, &mut payload);
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&seq.to_le_bytes());
            expected.extend_from_slice(&frame_checksum(seq, &payload).to_le_bytes());
            expected.extend_from_slice(&payload);
        }
        let log = log_of(&records);
        assert_eq!(log.bytes(), expected);
        assert_eq!(log.frames(), records.len() as u64);
        assert_eq!(log.running_hash(), fnv1a(&expected));
        let seal = CheckpointSeal::new(
            records.len() as u64,
            expected.len() as u64,
            fnv1a(&expected),
        );
        assert_eq!(log.seal(), seal);
    }

    #[test]
    fn clean_scan_recovers_everything() {
        let records = sample_records();
        let log = log_of(&records);
        let scan = scan(log.bytes());
        assert_eq!(scan.anomaly, None);
        assert_eq!(scan.records, records);
        assert_eq!(scan.frames_verified, records.len() as u64);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.duplicates_dropped, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let records = sample_records();
        let log = log_of(&records);
        for tear in [1usize, 5, FRAME_HEADER_BYTES] {
            let mut bytes = log.bytes().to_vec();
            bytes.truncate(bytes.len() - tear);
            let scan = scan(&bytes);
            assert_eq!(scan.anomaly, Some(FrameAnomaly::TornTail));
            assert_eq!(scan.records, records[..records.len() - 1]);
        }
    }

    #[test]
    fn bit_flip_is_detected_as_corrupt_frame() {
        let records = sample_records();
        let log = log_of(&records);
        let strike = StorageStrike {
            kind: StorageFaultKind::BitFlip,
            frame_pick: 2,
            byte_pick: 3,
            bit_pick: 6,
        };
        let mut bytes = log.bytes().to_vec();
        assert!(apply_strike(&mut bytes, &strike));
        let scan = scan(&bytes);
        assert_eq!(scan.anomaly, Some(FrameAnomaly::CorruptFrame { seq: 2 }));
        assert_eq!(scan.records, records[..2]);
        assert_eq!(scan.frames_quarantined(), 1);
    }

    #[test]
    fn dropped_write_leaves_a_sequence_gap() {
        let log = log_of(&sample_records());
        let strike = StorageStrike {
            kind: StorageFaultKind::DroppedWrite,
            frame_pick: 4,
            byte_pick: 0,
            bit_pick: 0,
        };
        let mut bytes = log.bytes().to_vec();
        assert!(apply_strike(&mut bytes, &strike));
        let scan = scan(&bytes);
        assert_eq!(
            scan.anomaly,
            Some(FrameAnomaly::SequenceGap {
                expected: 4,
                found: 5
            })
        );
        assert_eq!(scan.frames_verified, 4);
    }

    #[test]
    fn duplicated_frame_is_dropped_and_recovery_is_exact() {
        let records = sample_records();
        let log = log_of(&records);
        let strike = StorageStrike {
            kind: StorageFaultKind::DuplicatedFrame,
            frame_pick: 1,
            byte_pick: 0,
            bit_pick: 0,
        };
        let mut bytes = log.bytes().to_vec();
        assert!(apply_strike(&mut bytes, &strike));
        let scan = scan(&bytes);
        assert_eq!(scan.anomaly, None);
        assert_eq!(scan.duplicates_dropped, 1);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn seal_verifies_the_prefix_it_covers() {
        let records = sample_records();
        let mut log = DurableLog::new();
        for r in &records[..6] {
            log.append(r);
        }
        let seal = log.seal();
        for r in &records[6..] {
            log.append(r);
        }
        // The seal still verifies against the grown log…
        assert!(seal.verifies(log.bytes()));
        assert!(log.seal().verifies(log.bytes()));
        // …fails once the covered prefix is damaged…
        let mut bad = log.bytes().to_vec();
        bad[FRAME_HEADER_BYTES] ^= 0x40;
        assert!(!seal.verifies(&bad));
        // …and a corrupted seal fails before touching the log.
        assert!(!seal.corrupted().self_consistent());
        assert!(!seal.corrupted().verifies(log.bytes()));
    }

    #[test]
    fn strikes_on_tiny_logs_are_safe() {
        let mut empty: Vec<u8> = Vec::new();
        for kind in StorageFaultKind::ALL {
            let strike = StorageStrike {
                kind,
                frame_pick: 1,
                byte_pick: 1,
                bit_pick: 1,
            };
            assert!(!apply_strike(&mut empty, &strike) || kind == StorageFaultKind::TornTail);
        }
        // A single-frame log: interior modes have no target.
        let log = log_of(&[JournalRecord::Checkpoint]);
        for kind in [
            StorageFaultKind::BitFlip,
            StorageFaultKind::DroppedWrite,
            StorageFaultKind::DuplicatedFrame,
        ] {
            let mut bytes = log.bytes().to_vec();
            let strike = StorageStrike {
                kind,
                frame_pick: 0,
                byte_pick: 0,
                bit_pick: 0,
            };
            assert!(!apply_strike(&mut bytes, &strike));
            assert_eq!(bytes, log.bytes());
        }
    }
}
