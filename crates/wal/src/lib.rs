//! Append-only, checksummed, segment-rotating write-ahead log.
//!
//! The crate is deliberately policy-free: payloads are opaque byte
//! strings and the host layer above decides what to log and how to
//! replay it. What lives here is the durability contract itself:
//!
//! * every record is `[len: u32 LE][crc32: u32 LE][payload]`, assigned
//!   a global monotone LSN starting at 1;
//! * segments are named `wal-<start_lsn:016x>.log` and begin with an
//!   8-byte magic so a stray file can never be mistaken for a segment;
//!   a segment rotates only when it fills `segment_bytes`, and with
//!   fsync on a new segment's directory entry is synced with it;
//! * [`Wal::open`] validates every record on the way in and truncates a
//!   torn or corrupted tail back to the last valid record — a crash
//!   mid-`write` loses at most the record that was being written;
//! * a checkpoint is one more record ([`Wal::write_checkpoint`]): an
//!   append and one device sync of the active segment. A crash
//!   mid-checkpoint tears only that record, so the previous checkpoint
//!   and every record after it are still in the log; [`Wal::prune`]
//!   then drops the segments a durable checkpoint covers.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Records recovered by [`Wal::open`]: `(lsn, payload)` pairs in LSN
/// order.
pub type RecoveredRecords = Vec<(u64, Vec<u8>)>;

/// 8-byte magic prefix of every WAL segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"TQWAL001";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors surfaced by the WAL.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A record or segment failed validation in a way that
    /// cannot be repaired by tail truncation.
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — table generated at compile time
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `data` (the polynomial used by zip/png/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// FNV-1a 64 digest — used by the host for state fingerprints
// ---------------------------------------------------------------------------

/// Incremental FNV-1a 64-bit digest. Not cryptographic; used to
/// fingerprint engine state so replay divergence is caught loudly
/// instead of silently emitting wrong rows.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_bool(&mut self, v: bool) {
        self.write(&[v as u8]);
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` digest apart.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Binary codec — hand-rolled, little-endian, length-prefixed strings
// ---------------------------------------------------------------------------

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor over an encoded payload. Every accessor returns
/// [`WalError::Corrupt`] on underrun rather than panicking, so a
/// damaged record surfaces as a recovery error, not a crash loop.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.pos + n > self.buf.len() {
            return Err(WalError::Corrupt(format!(
                "decode underrun: need {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, WalError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn str(&mut self) -> Result<String, WalError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WalError::Corrupt("invalid utf-8 in string field".into()))
    }

    /// True when the payload has been fully consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Counters for the durability layer, surfaced through host metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub records: u64,
    /// Payload + header bytes appended since open.
    pub bytes: u64,
    /// fsync (sync_data) calls issued since open.
    pub fsyncs: u64,
    /// Live segment files (after pruning).
    pub segments: u64,
    /// Checkpoints written since open.
    pub checkpoints: u64,
    /// Payload bytes of every checkpoint written since open.
    pub checkpoint_bytes: u64,
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

const RECORD_HEADER: usize = 8; // len u32 + crc u32

struct Segment {
    start_lsn: u64,
    path: PathBuf,
}

/// A segmented append-only log rooted at one directory.
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    fsync: bool,
    file: File,
    seg_len: u64,
    segments: Vec<Segment>, // ordered by start_lsn; last is active
    next_lsn: u64,
    stats: WalStats,
}

fn segment_path(dir: &Path, start_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{start_lsn:016x}.log"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Create the segment that starts at `start_lsn`, holding only the
/// magic. With `fsync` on the directory is synced too: on POSIX a new
/// file's name is durable only once its directory is, and the records
/// of a segment whose name is lost are lost with it.
fn create_segment(dir: &Path, start_lsn: u64, fsync: bool) -> Result<Segment, WalError> {
    let path = segment_path(dir, start_lsn);
    let mut f = File::create(&path)?;
    f.write_all(SEGMENT_MAGIC)?;
    f.sync_data()?;
    if fsync {
        File::open(dir)?.sync_all()?;
    }
    Ok(Segment { start_lsn, path })
}

impl Wal {
    /// Open (or create) the log in `dir`, validating every existing
    /// record. Returns the log positioned for append plus all valid
    /// `(lsn, payload)` records in order.
    ///
    /// A torn or corrupted tail is truncated back to the last valid
    /// record; any later segments (which can only hold records written
    /// after the corruption point) are deleted so the LSN sequence
    /// stays gap-free. A last segment shorter than [`SEGMENT_MAGIC`] is
    /// a create torn before its magic was written (a crash mid-rotation):
    /// it holds no record, so its magic is written again, at the same
    /// start LSN. A shorter segment anywhere else is corrupt.
    pub fn open(
        dir: &Path,
        segment_bytes: u64,
        fsync: bool,
    ) -> Result<(Wal, RecoveredRecords), WalError> {
        fs::create_dir_all(dir)?;
        // An older format kept its checkpoint in this file and pruned
        // the log up to it, so its log alone lacks what it covered.
        let old = dir.join("checkpoint.bin");
        if old.exists() {
            return Err(WalError::Corrupt(format!(
                "{} is a checkpoint of an older log format, which this version cannot read",
                old.display()
            )));
        }
        let mut starts: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_name(&e.file_name().to_string_lossy()))
            .collect();
        starts.sort_unstable();

        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut truncated = false;
        for (i, &start) in starts.iter().enumerate() {
            let path = segment_path(dir, start);
            if truncated {
                // Everything after a torn segment postdates the tear.
                fs::remove_file(&path)?;
                continue;
            }
            let expect = records.last().map(|(l, _)| l + 1).unwrap_or(start);
            if i > 0 && start != expect {
                return Err(WalError::Corrupt(format!(
                    "segment {} starts at lsn {start}, expected {expect}",
                    path.display()
                )));
            }
            let last = i + 1 == starts.len();
            if last && fs::metadata(&path)?.len() < SEGMENT_MAGIC.len() as u64 {
                segments.push(create_segment(dir, start, fsync)?);
                continue;
            }
            let (recs, valid_len, clean) = read_segment(&path, start)?;
            if !clean {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_len)?;
                f.sync_data()?;
                truncated = true;
            }
            records.extend(recs);
            segments.push(Segment {
                start_lsn: start,
                path,
            });
        }

        if segments.is_empty() {
            segments.push(create_segment(dir, 1, fsync)?);
        }

        let active = segments.last().unwrap();
        let mut file = OpenOptions::new()
            .append(true)
            .read(true)
            .open(&active.path)?;
        let seg_len = file.seek(SeekFrom::End(0))?;
        let next_lsn = records
            .last()
            .map(|(l, _)| l + 1)
            .unwrap_or(segments.last().unwrap().start_lsn);
        let nsegs = segments.len() as u64;
        let wal = Wal {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(RECORD_HEADER as u64 + 1),
            fsync,
            file,
            seg_len,
            segments,
            next_lsn,
            stats: WalStats {
                segments: nsegs,
                ..WalStats::default()
            },
        };
        Ok((wal, records))
    }

    /// Append one record, returning its LSN. The write is buffered in
    /// the OS; call [`Wal::sync`] to make it durable. Rotates to a new
    /// segment first when the active one is full.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        if self.seg_len >= self.segment_bytes {
            self.rotate()?;
        }
        let mut header = [0u8; RECORD_HEADER];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.file.write_all(&header)?;
        self.file.write_all(payload)?;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.seg_len += (RECORD_HEADER + payload.len()) as u64;
        self.stats.records += 1;
        self.stats.bytes += (RECORD_HEADER + payload.len()) as u64;
        Ok(lsn)
    }

    /// Force appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.fsync {
            self.file.sync_data()?;
        }
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Close the full active segment and start a new one at
    /// `next_lsn`. Only [`Wal::append`] calls this, and only on a
    /// segment that holds a record, so no two segments share a start.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let seg = create_segment(&self.dir, self.next_lsn, self.fsync)?;
        self.file = OpenOptions::new().append(true).read(true).open(&seg.path)?;
        self.seg_len = SEGMENT_MAGIC.len() as u64;
        self.segments.push(seg);
        self.stats.segments = self.segments.len() as u64;
        Ok(())
    }

    /// Delete segments whose records all have `lsn <= cutoff`. The
    /// active segment is never deleted.
    pub fn prune(&mut self, cutoff: u64) -> Result<(), WalError> {
        while self.segments.len() > 1 {
            // Segment 0 ends where segment 1 begins.
            if self.segments[1].start_lsn <= cutoff + 1 {
                let seg = self.segments.remove(0);
                fs::remove_file(&seg.path)?;
            } else {
                break;
            }
        }
        self.stats.segments = self.segments.len() as u64;
        Ok(())
    }

    /// Next LSN to be assigned by [`Wal::append`].
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Append `payload` as a checkpoint record (at LSN
    /// [`Wal::next_lsn`]) and sync the active segment to the device
    /// whatever `fsync` says: the caller prunes the records the
    /// checkpoint covers, so it must be on the device first. One sync,
    /// and no file is created or renamed unless the append fills the
    /// segment.
    pub fn write_checkpoint(&mut self, payload: &[u8]) -> Result<(), WalError> {
        self.append(payload)?;
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += payload.len() as u64;
        Ok(())
    }
}

/// Read and validate one segment. Returns its records, the byte length
/// of the valid prefix, and whether the whole file was clean.
fn read_segment(path: &Path, start_lsn: u64) -> Result<(RecoveredRecords, u64, bool), WalError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if buf.len() < SEGMENT_MAGIC.len() || &buf[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(WalError::Corrupt(format!(
            "bad segment magic in {}",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut pos = SEGMENT_MAGIC.len();
    let mut lsn = start_lsn;
    loop {
        if pos == buf.len() {
            return Ok((records, pos as u64, true));
        }
        if pos + RECORD_HEADER > buf.len() {
            return Ok((records, pos as u64, false)); // torn header
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let body = pos + RECORD_HEADER;
        if body + len > buf.len() {
            return Ok((records, pos as u64, false)); // torn payload
        }
        let payload = &buf[body..body + len];
        if crc32(payload) != crc {
            return Ok((records, pos as u64, false)); // bit flip
        }
        records.push((lsn, payload.to_vec()));
        lsn += 1;
        pos = body + len;
    }
}

// ---------------------------------------------------------------------------
// TempDir — shared test/bench helper
// ---------------------------------------------------------------------------

/// A unique directory under the system temp dir, removed on drop.
/// Public so the durability test suite and benches share one helper.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(prefix: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}-{nonce}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn open(dir: &Path) -> (Wal, Vec<(u64, Vec<u8>)>) {
        Wal::open(dir, 1 << 20, true).expect("open wal")
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn codec_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_i64(&mut buf, -42);
        put_str(&mut buf, "goal ⚽");
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.str().unwrap(), "goal ⚽");
        assert!(d.done());
        assert!(matches!(d.u8(), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let mut a = Digest::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.write_str("ab");
        c.write_str("c");
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn append_reopen_round_trip() {
        let tmp = TempDir::new("wal-rt");
        let payloads: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; (i as usize % 7) + 1]).collect();
        {
            let (mut wal, recs) = open(tmp.path());
            assert!(recs.is_empty());
            for (i, p) in payloads.iter().enumerate() {
                let lsn = wal.append(p).unwrap();
                assert_eq!(lsn, i as u64 + 1);
            }
            wal.sync().unwrap();
            assert_eq!(wal.stats().records, 50);
            assert!(wal.stats().fsyncs >= 1);
        }
        let (wal, recs) = open(tmp.path());
        assert_eq!(recs.len(), 50);
        for (i, (lsn, p)) in recs.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(p, &payloads[i]);
        }
        assert_eq!(wal.next_lsn(), 51);
    }

    #[test]
    fn rotation_spans_segments_and_reopens() {
        let tmp = TempDir::new("wal-rot");
        {
            let (mut wal, _) = Wal::open(tmp.path(), 64, true).unwrap();
            for i in 0..40u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.sync().unwrap();
            assert!(
                wal.stats().segments > 1,
                "expected rotation: {:?}",
                wal.stats()
            );
        }
        let (wal, recs) = Wal::open(tmp.path(), 64, true).unwrap();
        assert_eq!(recs.len(), 40);
        assert_eq!(recs.last().unwrap().0, 40);
        assert_eq!(wal.next_lsn(), 41);
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let tmp = TempDir::new("wal-torn");
        let seg = {
            let (mut wal, _) = open(tmp.path());
            for i in 0..10u64 {
                wal.append(&[i as u8; 16]).unwrap();
            }
            wal.sync().unwrap();
            segment_path(tmp.path(), 1)
        };
        // Tear mid-record: drop the last 5 bytes of the final payload.
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (mut wal, recs) = open(tmp.path());
        assert_eq!(recs.len(), 9, "torn record dropped, prefix kept");
        assert_eq!(wal.next_lsn(), 10);
        // The log must be appendable again after truncation.
        wal.append(b"after-tear").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, recs) = open(tmp.path());
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[9].1, b"after-tear");
    }

    #[test]
    fn flipped_checksum_byte_recovers_prefix() {
        let tmp = TempDir::new("wal-flip");
        {
            let (mut wal, _) = open(tmp.path());
            for i in 0..10u64 {
                wal.append(&[i as u8; 16]).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip one byte inside the payload of record 7 (0-indexed 6).
        let seg = segment_path(tmp.path(), 1);
        let mut buf = fs::read(&seg).unwrap();
        let off = SEGMENT_MAGIC.len() + 6 * (RECORD_HEADER + 16) + RECORD_HEADER + 3;
        buf[off] ^= 0x40;
        fs::write(&seg, &buf).unwrap();

        let (wal, recs) = open(tmp.path());
        assert_eq!(recs.len(), 6, "recovery stops at first corrupt record");
        assert_eq!(wal.next_lsn(), 7);
    }

    #[test]
    fn corruption_drops_later_segments() {
        let tmp = TempDir::new("wal-multiseg");
        {
            let (mut wal, _) = Wal::open(tmp.path(), 64, true).unwrap();
            for i in 0..40u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        // Corrupt the first record of the FIRST segment: everything
        // after it (including later segments) must be discarded so the
        // LSN sequence stays contiguous.
        let seg = segment_path(tmp.path(), 1);
        let mut buf = fs::read(&seg).unwrap();
        let off = SEGMENT_MAGIC.len() + RECORD_HEADER;
        buf[off] ^= 0xFF;
        fs::write(&seg, &buf).unwrap();

        let (mut wal, recs) = Wal::open(tmp.path(), 64, true).unwrap();
        assert!(recs.is_empty());
        assert_eq!(wal.next_lsn(), 1);
        let lsn = wal.append(b"fresh").unwrap();
        assert_eq!(lsn, 1);
    }

    /// A valid 3-record log, then a next segment cut to `torn` bytes
    /// of its magic, as a crash mid-rotation leaves it.
    fn log_with_torn_segment(tmp: &TempDir, torn: usize) -> PathBuf {
        let (mut wal, _) = open(tmp.path());
        for i in 0..3u8 {
            wal.append(&[i; 4]).unwrap();
        }
        wal.sync().unwrap();
        let seg = segment_path(tmp.path(), 4);
        fs::write(&seg, &SEGMENT_MAGIC[..torn]).unwrap();
        seg
    }

    #[test]
    fn a_torn_last_segment_gets_its_magic_back() {
        for torn in [0, 5] {
            let tmp = TempDir::new("wal-torn-create");
            let seg = log_with_torn_segment(&tmp, torn);
            let (mut wal, recs) = open(tmp.path());
            assert_eq!(recs.len(), 3, "{torn} bytes");
            assert_eq!(fs::read(&seg).unwrap(), SEGMENT_MAGIC, "{torn} bytes");
            assert_eq!(wal.stats().segments, 2);
            assert_eq!(wal.append(b"next").unwrap(), 4);
            wal.sync().unwrap();
            drop(wal);
            let (_, recs) = open(tmp.path());
            assert_eq!(recs.last().unwrap(), &(4, b"next".to_vec()), "{torn} bytes");
        }
    }

    #[test]
    fn a_short_segment_that_is_not_last_is_corrupt() {
        let tmp = TempDir::new("wal-short-middle");
        log_with_torn_segment(&tmp, 0);
        fs::write(segment_path(tmp.path(), 5), SEGMENT_MAGIC).unwrap();
        match Wal::open(tmp.path(), 1 << 20, true) {
            Err(WalError::Corrupt(msg)) => assert!(msg.contains("bad segment magic"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|(_, recs)| recs)),
        }
    }

    #[test]
    fn prune_removes_covered_segments() {
        let tmp = TempDir::new("wal-prune");
        let (mut wal, _) = Wal::open(tmp.path(), 64, true).unwrap();
        for i in 0..40u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.stats().segments;
        assert!(before > 2);
        // Prune everything below the active segment's start.
        let cutoff = wal.segments.last().unwrap().start_lsn - 1;
        wal.prune(cutoff).unwrap();
        assert_eq!(wal.stats().segments, 1);
        drop(wal);
        let (wal, recs) = Wal::open(tmp.path(), 64, true).unwrap();
        // Only the active segment's records survive; next_lsn intact.
        assert_eq!(wal.next_lsn(), 41);
        assert!(recs.iter().all(|(l, _)| *l > cutoff));
    }

    #[test]
    fn prune_never_deletes_uncovered_or_active() {
        let tmp = TempDir::new("wal-prune2");
        let (mut wal, _) = Wal::open(tmp.path(), 64, true).unwrap();
        for i in 0..40u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let before = wal.stats().segments;
        wal.prune(0).unwrap();
        assert_eq!(wal.stats().segments, before);
    }

    #[test]
    fn wal_checkpoint_method_counts_stats() {
        let tmp = TempDir::new("wal-ckpt-stats");
        let (mut wal, _) = open(tmp.path());
        wal.write_checkpoint(b"abc").unwrap();
        wal.write_checkpoint(b"defgh").unwrap();
        let s = wal.stats();
        assert_eq!(s.checkpoints, 2);
        assert_eq!(s.checkpoint_bytes, 8, "a counter, not the last size");
        assert_eq!((s.records, s.fsyncs), (2, 2), "one record, one sync each");
    }

    /// A checkpoint is a record in the active segment: it reopens in
    /// LSN order with the records around it, and the directory holds
    /// nothing but that segment, under either `fsync` setting.
    #[test]
    fn checkpoint_is_a_record_in_the_active_segment() {
        for fsync in [true, false] {
            let tmp = TempDir::new("wal-ckpt-rec");
            {
                let (mut wal, _) = Wal::open(tmp.path(), 1 << 20, fsync).unwrap();
                wal.append(b"before").unwrap();
                assert_eq!(wal.next_lsn(), 2);
                wal.write_checkpoint(b"state").unwrap();
                wal.append(b"after").unwrap();
                wal.sync().unwrap();
                assert_eq!(wal.stats().segments, 1);
            }
            let names: Vec<String> = fs::read_dir(tmp.path())
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(names, vec!["wal-0000000000000001.log".to_string()]);
            let (_, recs) = open(tmp.path());
            let expect: Vec<(u64, Vec<u8>)> = vec![
                (1, b"before".to_vec()),
                (2, b"state".to_vec()),
                (3, b"after".to_vec()),
            ];
            assert_eq!(recs, expect);
        }
    }

    #[test]
    fn fsync_disabled_still_counts_sync_points() {
        let tmp = TempDir::new("wal-nosync");
        let (mut wal, _) = Wal::open(tmp.path(), 1 << 20, false).unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 2);
    }
}

#[cfg(test)]
mod compaction {
    use super::*;

    /// The checkpoint compaction cycle (append* / write_checkpoint /
    /// prune below the checkpoint) must survive arbitrarily many
    /// rounds, including rounds with zero interleaved appends, on
    /// segments small enough that appends rotate them by size: after
    /// each round only the segment holding the checkpoint is left.
    #[test]
    fn repeated_checkpoint_rotate_prune_survives_empty_rounds() {
        let td = TempDir::new("walcompact");
        let (mut w, _) = Wal::open(td.path(), 64, false).unwrap();
        let mut ckpt = 0;
        for round in 0..6 {
            // Rounds 1, 3 and 5 checkpoint with nothing new in the log.
            if round % 2 == 0 {
                for i in 0..10u64 {
                    w.append(&i.to_le_bytes()).unwrap();
                    w.sync().unwrap();
                }
            }
            ckpt = w.next_lsn();
            w.write_checkpoint(b"payload").unwrap();
            w.prune(ckpt - 1).unwrap();
            assert_eq!(w.stats().segments, 1, "round {round}");
        }
        // The surviving log must still be readable, end with the last
        // checkpoint, and hold nothing from a pruned segment.
        let next = w.next_lsn();
        let start = w.segments[0].start_lsn;
        drop(w);
        let (w2, records) = Wal::open(td.path(), 64, false).unwrap();
        assert_eq!(w2.next_lsn(), next);
        assert_eq!(records.last(), Some(&(ckpt, b"payload".to_vec())));
        assert!(
            records.iter().all(|(l, _)| *l >= start),
            "pruned records resurfaced: {records:?}"
        );
    }
}
