//! [`DurableGraph`]: a graph store whose writes survive crashes.
//!
//! # Directory layout
//!
//! ```text
//! <dir>/snapshot-<gen>.bin   full binary snapshot, generation-numbered
//! <dir>/wal-<gen>.log        ops appended since snapshot <gen>
//! ```
//!
//! The durable state is always `snapshot-<g>.bin` + `wal-<g>.log` for
//! the highest generation `g` present (a fresh directory is generation
//! 0 with no snapshot). [`DurableGraph::checkpoint`] compacts: it
//! writes `snapshot-<g+1>.bin` (via tmp-file + rename, so a crash
//! mid-checkpoint leaves either the old or the new generation fully
//! intact, never a half-written snapshot), starts an empty
//! `wal-<g+1>.log`, and deletes generation `g`.
//!
//! # Concurrency
//!
//! Reads take a shared lock and run against the in-memory graph;
//! writes take the exclusive lock, record their effect ops, and append
//! them to the WAL as one CRC-framed batch before returning — so a
//! batch acknowledged under [`FsyncPolicy::Always`] is on stable
//! storage before the client hears about it.

use crate::error::JournalError;
use crate::wal::{replay_into, FsyncPolicy, ReplayReport, WalWriter};
use iyp_graph::{snapshot, Graph};
use iyp_telemetry as telemetry;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{RwLock, RwLockReadGuard};

/// What [`DurableGraph::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Generation recovered into (0 = fresh directory, no snapshot).
    pub generation: u64,
    /// Whether a snapshot file was loaded.
    pub snapshot_loaded: bool,
    /// Outcome of replaying the WAL tail.
    pub replay: ReplayReport,
    /// Stale files from older generations (or interrupted checkpoints)
    /// that were cleaned up.
    pub removed_stale_files: u64,
}

struct DurableInner {
    graph: Graph,
    wal: WalWriter,
    generation: u64,
}

/// A [`Graph`] wrapped in a write-ahead journal with checkpointing.
pub struct DurableGraph {
    dir: PathBuf,
    policy: FsyncPolicy,
    inner: RwLock<DurableInner>,
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation}.bin"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

/// Parses `prefix-<n>.<ext>` into `n`.
fn parse_generation(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(ext)?
        .parse::<u64>()
        .ok()
}

fn fsync_dir(dir: &Path) -> Result<(), JournalError> {
    // Persist the rename/create/unlink in the directory entry itself.
    let d = fs::File::open(dir)?;
    d.sync_all()?;
    telemetry::counter(telemetry::names::JOURNAL_FSYNCS_TOTAL).incr();
    Ok(())
}

impl DurableGraph {
    /// Whether `dir` holds any journal state (snapshot or WAL files).
    pub fn exists(dir: &Path) -> bool {
        let Ok(entries) = fs::read_dir(dir) else {
            return false;
        };
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if parse_generation(&name, "snapshot-", ".bin").is_some()
                || parse_generation(&name, "wal-", ".log").is_some()
            {
                return true;
            }
        }
        false
    }

    /// Opens (and if necessary recovers) the journal in `dir`: loads the
    /// highest-generation snapshot, replays the matching WAL tail
    /// (repairing a torn tail), and cleans up stale older-generation
    /// files left by an interrupted checkpoint.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> Result<(Self, RecoveryReport), JournalError> {
        fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();

        // Find the highest complete generation.
        let mut snap_gens: Vec<u64> = Vec::new();
        let mut wal_gens: Vec<u64> = Vec::new();
        let mut tmp_files: Vec<PathBuf> = Vec::new();
        for e in fs::read_dir(dir)?.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(g) = parse_generation(&name, "snapshot-", ".bin") {
                snap_gens.push(g);
            } else if let Some(g) = parse_generation(&name, "wal-", ".log") {
                wal_gens.push(g);
            } else if name.ends_with(".tmp") {
                tmp_files.push(e.path());
            }
        }
        let generation = snap_gens
            .iter()
            .chain(wal_gens.iter())
            .copied()
            .max()
            .unwrap_or(0);

        let mut graph = if snap_gens.contains(&generation) {
            report.snapshot_loaded = true;
            snapshot::load_binary(&snapshot_path(dir, generation))
                .map_err(JournalError::Snapshot)?
        } else {
            Graph::new()
        };

        report.generation = generation;
        report.replay = replay_into(&mut graph, &wal_path(dir, generation), true)?;

        // Drop tmp files and older generations (stale after a crash
        // between checkpoint rename and cleanup).
        for p in tmp_files {
            fs::remove_file(&p)?;
            report.removed_stale_files += 1;
        }
        for g in snap_gens.iter().chain(wal_gens.iter()) {
            if *g < generation {
                for p in [snapshot_path(dir, *g), wal_path(dir, *g)] {
                    if p.exists() {
                        fs::remove_file(&p)?;
                        report.removed_stale_files += 1;
                    }
                }
            }
        }

        let wal = WalWriter::open_append(&wal_path(dir, generation), policy)?;
        Ok((
            DurableGraph {
                dir: dir.to_path_buf(),
                policy,
                inner: RwLock::new(DurableInner {
                    graph,
                    wal,
                    generation,
                }),
            },
            report,
        ))
    }

    /// Initialises `dir` with `graph` as the generation-1 snapshot and
    /// an empty WAL — the bootstrap path for `build --journal` and for
    /// serving an existing snapshot durably. Refuses to clobber an
    /// existing journal.
    pub fn seed(dir: &Path, graph: Graph, policy: FsyncPolicy) -> Result<Self, JournalError> {
        fs::create_dir_all(dir)?;
        if Self::exists(dir) {
            return Err(JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("journal already initialised in {}", dir.display()),
            )));
        }
        let generation = 1;
        write_snapshot_atomic(dir, generation, &graph)?;
        let wal = WalWriter::create(&wal_path(dir, generation), policy)?;
        fsync_dir(dir)?;
        Ok(DurableGraph {
            dir: dir.to_path_buf(),
            policy,
            inner: RwLock::new(DurableInner {
                graph,
                wal,
                generation,
            }),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.read_inner().generation
    }

    /// The wrapped graph's mutation epoch (see [`Graph::epoch`]). Every
    /// journaled write bumps it, and so does WAL replay during
    /// recovery (replay re-applies ops through the same mutation
    /// paths), so an epoch-keyed query cache can never serve a result
    /// from before a write — committed live or recovered — through
    /// this wrapper. A reopened journal additionally gets a fresh
    /// [`Graph::graph_id`], so cache keys from a previous incarnation
    /// can never match at all.
    pub fn epoch(&self) -> u64 {
        self.read_inner().graph.epoch()
    }

    /// Runs a closure against the graph under the shared (read) lock.
    pub fn read<R>(&self, f: impl FnOnce(&Graph) -> R) -> R {
        f(&self.read_inner().graph)
    }

    /// Runs a mutating closure under the exclusive lock, then appends
    /// every op it performed to the WAL as one batch.
    ///
    /// The ops are *effects* already applied in memory, so they are
    /// journaled even if the closure's own result is an error — the WAL
    /// always matches the in-memory graph. Callers wanting query-level
    /// atomicity should validate before mutating (the Cypher executor
    /// does).
    pub fn write<R>(&self, f: impl FnOnce(&mut Graph) -> R) -> Result<R, JournalError> {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.graph.begin_recording();
        let result = f(&mut inner.graph);
        let ops = inner.graph.take_recording();
        inner.wal.append_batch(&ops)?;
        Ok(result)
    }

    /// Compacts the WAL into a new snapshot generation. Returns the new
    /// generation number. Takes the exclusive lock for the duration.
    pub fn checkpoint(&self) -> Result<u64, JournalError> {
        let _span = telemetry::span(telemetry::names::JOURNAL_CHECKPOINT_SECONDS);
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let old = inner.generation;
        let new = old + 1;
        // Make sure everything the snapshot supersedes is on disk first:
        // if we crash mid-checkpoint, generation `old` must be complete.
        inner.wal.sync()?;
        write_snapshot_atomic(&self.dir, new, &inner.graph)?;
        // New (empty) WAL before deleting the old generation — every
        // point in this sequence leaves one complete generation on disk.
        inner.wal = WalWriter::create(&wal_path(&self.dir, new), self.policy)?;
        inner.generation = new;
        fsync_dir(&self.dir)?;
        for p in [snapshot_path(&self.dir, old), wal_path(&self.dir, old)] {
            if p.exists() {
                fs::remove_file(&p)?;
            }
        }
        fsync_dir(&self.dir)?;
        Ok(new)
    }

    /// Consumes the wrapper, returning the in-memory graph.
    pub fn into_graph(self) -> Graph {
        self.inner
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .graph
    }

    fn read_inner(&self) -> RwLockReadGuard<'_, DurableInner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }
}

/// Writes `snapshot-<gen>.bin` via tmp file + fsync + atomic rename.
fn write_snapshot_atomic(dir: &Path, generation: u64, graph: &Graph) -> Result<(), JournalError> {
    let tmp = dir.join(format!("snapshot-{generation}.bin.tmp"));
    let dst = snapshot_path(dir, generation);
    let bytes = snapshot::to_binary(graph);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        telemetry::counter(telemetry::names::JOURNAL_FSYNCS_TOTAL).incr();
    }
    fs::rename(&tmp, &dst)?;
    fsync_dir(dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_graph::{props, Props, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iyp-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn graph_bytes(d: &DurableGraph) -> Vec<u8> {
        d.read(snapshot::to_binary)
    }

    #[test]
    fn writes_survive_reopen_without_checkpoint() {
        let dir = tmpdir("reopen");
        let (d, rep) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rep.generation, 0);
        assert!(!rep.snapshot_loaded);
        d.write(|g| {
            let a = g.merge_node("AS", "asn", 2497i64, Props::new());
            let b = g.merge_node("AS", "asn", 2500i64, Props::new());
            g.create_rel(a, "PEERS_WITH", b, props([("src", "test".into())]))
                .unwrap();
        })
        .unwrap();
        let before = graph_bytes(&d);
        drop(d);

        let (d2, rep2) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rep2.replay.batches, 1);
        assert_eq!(rep2.replay.ops, 3);
        assert_eq!(
            graph_bytes(&d2),
            before,
            "recovered graph must be byte-identical"
        );
    }

    #[test]
    fn checkpoint_compacts_and_advances_generation() {
        let dir = tmpdir("checkpoint");
        let (d, _) = DurableGraph::open(&dir, FsyncPolicy::Never).unwrap();
        d.write(|g| {
            g.merge_node("AS", "asn", 1i64, Props::new());
        })
        .unwrap();
        assert_eq!(d.checkpoint().unwrap(), 1);
        d.write(|g| {
            g.merge_node("AS", "asn", 2i64, Props::new());
        })
        .unwrap();
        let before = graph_bytes(&d);
        drop(d);

        assert!(snapshot_path(&dir, 1).exists());
        assert!(!snapshot_path(&dir, 0).exists());
        assert!(!wal_path(&dir, 0).exists());

        let (d2, rep) = DurableGraph::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(rep.generation, 1);
        assert!(rep.snapshot_loaded);
        assert_eq!(rep.replay.ops, 1, "only the post-checkpoint write replays");
        assert_eq!(graph_bytes(&d2), before);
    }

    #[test]
    fn seed_then_write_then_recover() {
        let dir = tmpdir("seed");
        let mut g = Graph::new();
        g.merge_node("AS", "asn", 2497i64, props([("name", "IIJ".into())]));
        let d = DurableGraph::seed(&dir, g, FsyncPolicy::Always).unwrap();
        assert_eq!(d.generation(), 1);
        d.write(|g| {
            let a = g.lookup("AS", "asn", 2497i64).unwrap();
            g.set_node_prop(a, "cc", Value::Str("JP".into())).unwrap();
        })
        .unwrap();
        let before = graph_bytes(&d);
        drop(d);

        // Seeding over an existing journal is refused.
        assert!(DurableGraph::seed(&dir, Graph::new(), FsyncPolicy::Always).is_err());

        let (d2, rep) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        assert!(rep.snapshot_loaded);
        assert_eq!(graph_bytes(&d2), before);
    }

    #[test]
    fn crash_after_snapshot_rename_recovers_new_generation() {
        // Simulate a crash between the snapshot rename and the new-WAL
        // creation: generation g+1 snapshot exists, no wal-(g+1), stale
        // generation-g files still present.
        let dir = tmpdir("midckpt");
        let (d, _) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        d.write(|g| {
            g.merge_node("AS", "asn", 7i64, Props::new());
        })
        .unwrap();
        let expected = graph_bytes(&d);
        d.read(|g| snapshot::save_binary(g, &snapshot_path(&dir, 1)))
            .unwrap();
        drop(d); // wal-0.log still on disk alongside snapshot-1.bin

        let (d2, rep) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rep.generation, 1);
        assert!(rep.snapshot_loaded);
        assert_eq!(rep.replay.batches, 0);
        assert!(
            rep.removed_stale_files >= 1,
            "stale generation-0 files cleaned"
        );
        assert_eq!(graph_bytes(&d2), expected);
        assert!(!wal_path(&dir, 0).exists());
    }

    #[test]
    fn crash_before_snapshot_rename_keeps_old_generation() {
        // A lingering .tmp snapshot must be ignored and removed.
        let dir = tmpdir("tmpfile");
        let (d, _) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        d.write(|g| {
            g.merge_node("AS", "asn", 9i64, Props::new());
        })
        .unwrap();
        let expected = graph_bytes(&d);
        std::fs::write(dir.join("snapshot-1.bin.tmp"), b"half-written").unwrap();
        drop(d);

        let (d2, rep) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rep.generation, 0);
        assert_eq!(rep.removed_stale_files, 1);
        assert_eq!(graph_bytes(&d2), expected);
        assert!(!dir.join("snapshot-1.bin.tmp").exists());
    }

    #[test]
    fn failed_write_closure_still_journals_its_effects() {
        let dir = tmpdir("partial");
        let (d, _) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        // The closure mutates, then "fails" — WAL must still match memory.
        let r: Result<(), &str> = d
            .write(|g| {
                g.merge_node("AS", "asn", 1i64, Props::new());
                Err("query failed after mutating")
            })
            .unwrap();
        assert!(r.is_err());
        let before = graph_bytes(&d);
        drop(d);
        let (d2, _) = DurableGraph::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(graph_bytes(&d2), before);
    }

    #[test]
    fn journaled_writes_and_recovery_replay_bump_the_epoch() {
        let dir = tmpdir("epoch");
        let (d, _) = DurableGraph::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(d.epoch(), 0);
        d.write(|g| {
            g.merge_node("AS", "asn", 1i64, Props::new());
        })
        .unwrap();
        let after_one = d.epoch();
        assert!(after_one > 0, "a journaled write must bump the epoch");
        d.write(|g| {
            g.merge_node("AS", "asn", 2i64, Props::new());
        })
        .unwrap();
        assert!(d.epoch() > after_one);
        let old_id = d.read(|g| g.graph_id());
        drop(d);

        // Recovery replays the WAL through the same mutation paths, so
        // the epoch is non-zero again and the graph id is fresh —
        // either is enough to keep pre-crash cache entries unmatchable.
        let (d2, rep) = DurableGraph::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(rep.replay.ops, 2);
        assert!(d2.epoch() > 0, "replay must bump the epoch");
        assert_ne!(d2.read(|g| g.graph_id()), old_id);
    }

    #[test]
    fn concurrent_readers_during_writes() {
        use std::sync::Arc;
        let dir = tmpdir("concurrent");
        let (d, _) = DurableGraph::open(&dir, FsyncPolicy::Never).unwrap();
        let d = Arc::new(d);
        let writer = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                for i in 0..200i64 {
                    d.write(|g| {
                        g.merge_node("AS", "asn", i, Props::new());
                    })
                    .unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..500 {
                        let n = d.read(|g| g.node_count());
                        assert!(n >= last, "node count must be monotonic");
                        last = n;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(d.read(|g| g.node_count()), 200);
    }
}
