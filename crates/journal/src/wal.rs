//! The write-ahead log: CRC-framed batches of [`GraphOp`]s on disk.
//!
//! # File format
//!
//! ```text
//! [ 4B magic "IYPW" ][ 4B version u32 LE ]          file header
//! [ 4B len u32 LE ][ 4B crc32 u32 LE ][ payload ]   frame, repeated
//! ```
//!
//! Each frame's payload is one *batch* — `u32 LE` op count followed by
//! that many binary-encoded [`GraphOp`]s — and `crc32` covers the
//! payload bytes. A batch corresponds to one write query, so replay is
//! all-or-nothing per query: a frame interrupted mid-write (torn tail)
//! fails its length or CRC check and is dropped wholesale, never
//! half-applied.
//!
//! # Torn-tail handling
//!
//! Replay walks frames until the file ends or a frame fails to
//! validate. Everything after the last valid frame is considered a torn
//! tail from a crash mid-append: [`replay_into`] reports it and (in
//! repair mode) truncates the file back to the last valid offset so the
//! log is append-ready again. A CRC *pass* followed by a payload decode
//! error is different — the bytes are intact but unintelligible — and
//! fails recovery loudly instead of silently dropping data.

use crate::crc::crc32;
use crate::error::JournalError;
use iyp_graph::codec::Reader;
use iyp_graph::{op, Graph, GraphOp};
use iyp_telemetry as telemetry;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"IYPW";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
const FRAME_HEADER_LEN: usize = 8;

/// When the WAL flushes its file to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every appended batch (default): a batch acknowledged
    /// to the client survives an immediate power cut.
    #[default]
    Always,
    /// fsync after every `n` batches: bounded data loss, higher
    /// throughput.
    EveryN(u32),
    /// Never fsync explicitly; durability is whenever the OS flushes.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or `every=N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => match s.strip_prefix("every=").and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "invalid fsync policy {s:?} (expected always, never, or every=N)"
                )),
            },
        }
    }
}

/// Appends op batches to a WAL file.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    unsynced_batches: u32,
}

impl WalWriter {
    /// Creates a fresh WAL at `path` (truncating any existing file) and
    /// writes the file header.
    pub fn create(path: &Path, policy: FsyncPolicy) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.sync_all()?;
        telemetry::counter(telemetry::names::JOURNAL_FSYNCS_TOTAL).incr();
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced_batches: 0,
        })
    }

    /// Opens an existing WAL for appending. The file must already have
    /// been validated/repaired by [`replay_into`]; an empty or missing
    /// file gets a fresh header.
    pub fn open_append(path: &Path, policy: FsyncPolicy) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len < HEADER_LEN {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.sync_all()?;
            telemetry::counter(telemetry::names::JOURNAL_FSYNCS_TOTAL).incr();
        } else {
            file.seek(SeekFrom::End(0))?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced_batches: 0,
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one batch (one frame) and applies the fsync policy.
    /// Returns the number of bytes written. Empty batches are skipped.
    pub fn append_batch(&mut self, ops: &[GraphOp]) -> Result<u64, JournalError> {
        if ops.is_empty() {
            return Ok(0);
        }
        let frame = encode_frame(ops);
        self.file.write_all(&frame)?;
        telemetry::counter(telemetry::names::JOURNAL_APPEND_BYTES_TOTAL).add(frame.len() as u64);
        self.unsynced_batches += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced_batches >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(frame.len() as u64)
    }

    /// Forces the file to stable storage.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_all()?;
        self.unsynced_batches = 0;
        telemetry::counter(telemetry::names::JOURNAL_FSYNCS_TOTAL).incr();
        Ok(())
    }
}

/// Encodes one batch as a complete frame (header + payload).
pub fn encode_frame(ops: &[GraphOp]) -> Vec<u8> {
    let mut payload = (ops.len() as u32).to_le_bytes().to_vec();
    for o in ops {
        op::encode_op(&mut payload, o);
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// What [`replay_into`] found in a WAL file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Valid frames (batches) replayed.
    pub batches: u64,
    /// Ops applied to the graph.
    pub ops: u64,
    /// Torn-tail bytes past the last valid frame (0 for a clean log).
    pub truncated_bytes: u64,
    /// Whether the torn tail was truncated off the file (repair mode).
    pub repaired: bool,
}

/// Replays the WAL at `path` into `graph`, stopping at the first torn
/// frame. With `repair`, the file is truncated back to the last valid
/// frame so it can be appended to again.
///
/// A missing file replays as empty. A file shorter than its header (a
/// crash during creation) is treated as an empty log with the header
/// counted as torn bytes.
pub fn replay_into(
    graph: &mut Graph,
    path: &Path,
    repair: bool,
) -> Result<ReplayReport, JournalError> {
    let mut report = ReplayReport::default();
    let mut data = Vec::new();
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e.into()),
    };
    file.read_to_end(&mut data)?;
    drop(file);

    // File header. A short or mismatched header means no frame ever hit
    // the disk; valid_end 0 truncates the whole file.
    let mut valid_end: usize = 0;
    if data.len() >= HEADER_LEN as usize
        && &data[..4] == MAGIC
        && u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")) == VERSION
    {
        valid_end = HEADER_LEN as usize;
        let mut off = valid_end;
        while off < data.len() {
            if data.len() - off < FRAME_HEADER_LEN {
                break; // torn frame header
            }
            let len = u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().expect("4 bytes"));
            let start = off + FRAME_HEADER_LEN;
            if data.len() - start < len {
                break; // torn payload
            }
            let payload = &data[start..start + len];
            if crc32(payload) != crc {
                break; // corrupt (partially written) frame
            }
            // CRC-validated payload: decode/apply failures are fatal.
            let mut r = Reader::new(payload);
            let count = r.u32("frame op count").map_err(JournalError::Replay)?;
            for _ in 0..count {
                let graph_op = op::decode_op(&mut r).map_err(JournalError::Replay)?;
                graph.apply(&graph_op).map_err(JournalError::Replay)?;
                report.ops += 1;
            }
            report.batches += 1;
            off = start + len;
            valid_end = off;
        }
    }

    report.truncated_bytes = (data.len() - valid_end) as u64;
    telemetry::counter(telemetry::names::JOURNAL_REPLAYED_OPS_TOTAL).add(report.ops);
    if report.truncated_bytes > 0 {
        telemetry::counter(telemetry::names::JOURNAL_TRUNCATED_BYTES_TOTAL)
            .add(report.truncated_bytes);
        if repair {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_end as u64)?;
            file.sync_all()?;
            report.repaired = true;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_graph::{NodeId, Props, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iyp-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_batches() -> Vec<Vec<GraphOp>> {
        // Record a realistic op stream by running live mutations.
        let mut g = Graph::new();
        let mut batches = Vec::new();
        g.begin_recording();
        let a = g.merge_node("AS", "asn", 2497i64, Props::new());
        let b = g.merge_node("AS", "asn", 2500i64, Props::new());
        batches.push(g.take_recording());
        g.begin_recording();
        let r = g.create_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        g.set_rel_prop(r, "weight", Value::Float(1.5)).unwrap();
        g.set_node_prop(a, "name", Value::Str("IIJ".into()))
            .unwrap();
        batches.push(g.take_recording());
        g.begin_recording();
        g.add_label(b, "Tier1").unwrap();
        g.delete_node(a).unwrap();
        batches.push(g.take_recording());
        batches
    }

    fn write_wal(path: &Path, batches: &[Vec<GraphOp>]) {
        let mut w = WalWriter::create(path, FsyncPolicy::Never).unwrap();
        for b in batches {
            w.append_batch(b).unwrap();
        }
        w.sync().unwrap();
    }

    fn replayed(path: &Path) -> (Graph, ReplayReport) {
        let mut g = Graph::new();
        let report = replay_into(&mut g, path, false).unwrap();
        (g, report)
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let batches = sample_batches();
        write_wal(&path, &batches);
        let (g, report) = replayed(&path);
        assert_eq!(report.batches, 3);
        assert_eq!(
            report.ops,
            batches.iter().map(|b| b.len() as u64).sum::<u64>()
        );
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(g.node_count(), 1);
        assert!(g.lookup("AS", "asn", 2500i64).is_some());
    }

    #[test]
    fn missing_file_is_empty_log() {
        let dir = tmpdir("missing");
        let (g, report) = replayed(&dir.join("nope.log"));
        assert_eq!(report, ReplayReport::default());
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn torn_tail_is_detected_and_repaired() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        write_wal(&path, &sample_batches());
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the final frame.
        let cut = full.len() - 3;
        std::fs::write(&path, &full[..cut]).unwrap();

        let mut g = Graph::new();
        let report = replay_into(&mut g, &path, true).unwrap();
        assert_eq!(report.batches, 2);
        assert!(report.truncated_bytes > 0);
        assert!(report.repaired);
        // The file is now clean: re-replay sees no tail.
        let (_, report2) = replayed(&path);
        assert_eq!(report2.batches, 2);
        assert_eq!(report2.truncated_bytes, 0);
        // And append-able again: record a new op against the recovered
        // state (ids continue from where the surviving prefix left off).
        let (mut recovered, _) = replayed(&path);
        let mut w = WalWriter::open_append(&path, FsyncPolicy::Always).unwrap();
        recovered.begin_recording();
        recovered.create_node(&["X"], Props::new());
        w.append_batch(&recovered.take_recording()).unwrap();
        let (_, report3) = replayed(&path);
        assert_eq!(report3.batches, 3);
    }

    #[test]
    fn corrupt_crc_stops_replay_at_last_good_frame() {
        let dir = tmpdir("crc");
        let path = dir.join("wal.log");
        write_wal(&path, &sample_batches());
        let mut data = std::fs::read(&path).unwrap();
        // Flip one bit in the last byte (inside the final frame's payload).
        let last = data.len() - 1;
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let (_, report) = replayed(&path);
        assert_eq!(report.batches, 2);
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn short_header_treated_as_empty() {
        let dir = tmpdir("header");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"IYP").unwrap();
        let mut g = Graph::new();
        let report = replay_into(&mut g, &path, true).unwrap();
        assert_eq!(report.batches, 0);
        assert_eq!(report.truncated_bytes, 3);
        assert!(report.repaired);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // open_append rewrites the header on the now-empty file.
        let mut w = WalWriter::open_append(&path, FsyncPolicy::Never).unwrap();
        let op = GraphOp::CreateNode {
            id: NodeId(0),
            labels: vec!["X".into()],
            props: Props::new(),
        };
        w.append_batch(&[op]).unwrap();
        w.sync().unwrap();
        let (g2, report2) = replayed(&path);
        assert_eq!(report2.batches, 1);
        assert_eq!(g2.node_count(), 1);
    }

    #[test]
    fn empty_batch_writes_nothing() {
        let dir = tmpdir("empty");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(w.append_batch(&[]).unwrap(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every=8"), Ok(FsyncPolicy::EveryN(8)));
        assert!(FsyncPolicy::parse("every=0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}
