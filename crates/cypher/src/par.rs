//! Parallel execution of read-only query stages.
//!
//! The executor partitions large candidate/row sets into contiguous
//! chunks and runs each chunk on a scoped worker thread over `&Graph`
//! (reads only). Chunk results are merged back **in chunk order**, so
//! parallel execution is result-identical to serial execution.
//!
//! The thread count is the host's available parallelism, capped at 8
//! and resolved once per process. [`set_threads`] overrides it in
//! process, which is how tests and benches pin a serial reference.
//!
//! Workers never re-parallelise: nested pattern matches (multi-pattern
//! `MATCH`, `EXISTS` subqueries) inside a worker run serially.

use crate::error::CypherError;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Minimum number of items a stage must have before it is worth
/// spawning workers (spawn cost is ~tens of microseconds per thread).
static MIN_PARTITION: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_PARTITION);

/// Default minimum stage size (see [`set_min_partition`]).
pub const DEFAULT_MIN_PARTITION: usize = 128;

thread_local! {
    /// Set while running inside a worker so nested stages stay serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the engine thread count for this process (0 clears the
/// override, returning to the host's parallelism).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of threads query stages may use right now. Always 1
/// inside a worker thread.
pub fn threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over != 0 {
        return over.max(1);
    }
    // available_parallelism() reads cgroup files (tens of µs): resolve
    // it once, not on every stage of every query.
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1)
    })
}

/// Overrides the minimum stage size for parallel execution (tests use
/// a tiny value to exercise the parallel path on small graphs).
pub fn set_min_partition(n: usize) {
    MIN_PARTITION.store(n.max(1), Ordering::SeqCst);
}

/// True when a stage over `len` items should run in parallel.
pub(crate) fn should_parallelize(len: usize, threads: usize) -> bool {
    threads > 1 && len >= MIN_PARTITION.load(Ordering::Relaxed)
}

/// Splits `items` into at most `threads` contiguous chunks and maps
/// each chunk on its own scoped thread, returning the per-chunk outputs
/// **in chunk order**. Errors are reported in chunk order too, matching
/// the error serial execution would surface first.
pub(crate) fn run_chunks<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> Result<Vec<Vec<R>>, CypherError>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Result<Vec<R>, CypherError> + Sync,
{
    let n_chunks = threads.min(items.len()).max(1);
    let chunk_size = items.len().div_ceil(n_chunks);
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    iyp_telemetry::counter(iyp_telemetry::names::CYPHER_PARALLEL_CHUNKS_TOTAL)
        .add(chunks.len() as u64);
    let f = &f;
    let run_worker = |chunk: &[T]| {
        IN_WORKER.with(|w| w.set(true));
        let _span = iyp_telemetry::span(iyp_telemetry::names::CYPHER_WORKER_SECONDS);
        let out = f(chunk);
        IN_WORKER.with(|w| w.set(false));
        out
    };
    // The first chunk runs on the calling thread: one fewer spawn, and
    // the caller does useful work instead of blocking in join().
    let joined: Vec<Result<Vec<R>, CypherError>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks[1..]
            .iter()
            .map(|&chunk| s.spawn(move || run_worker(chunk)))
            .collect();
        let mut results = vec![run_worker(chunks[0])];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("cypher worker panicked")),
        );
        results
    });
    joined.into_iter().collect()
}

/// Per-clause record of parallel work done, surfaced in `PROFILE`
/// output as `par=<threads>` and `chunks=<rows per chunk>`.
#[derive(Debug, Default, Clone)]
pub struct ParCapture {
    /// Widest parallelism any stage of the clause ran at.
    pub parallelism: usize,
    /// Rows produced per worker slot, summed across stages.
    pub chunk_rows: Vec<u64>,
}

impl ParCapture {
    /// Records one parallel stage: the thread count it used and how
    /// many rows each chunk produced.
    pub fn record(&mut self, threads: usize, per_chunk: &[usize]) {
        self.parallelism = self.parallelism.max(threads);
        if self.chunk_rows.len() < per_chunk.len() {
            self.chunk_rows.resize(per_chunk.len(), 0);
        }
        for (slot, rows) in per_chunk.iter().enumerate() {
            self.chunk_rows[slot] += *rows as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_order_is_preserved() {
        let items: Vec<u32> = (0..1000).collect();
        let out = run_chunks(&items, 4, |chunk| Ok(chunk.to_vec())).unwrap();
        let flat: Vec<u32> = out.into_iter().flatten().collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn first_chunk_error_wins() {
        let items: Vec<u32> = (0..100).collect();
        let err = run_chunks(&items, 4, |chunk| {
            if chunk[0] < 50 {
                Err(CypherError::runtime(format!("chunk at {}", chunk[0])))
            } else {
                Ok(vec![()])
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("chunk at 0"), "{err}");
    }

    #[test]
    fn workers_stay_serial_inside() {
        let items = [0u8; 8];
        let inner: Vec<usize> = run_chunks(&items, 4, |_| Ok(vec![threads()]))
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert!(inner.iter().all(|t| *t == 1), "{inner:?}");
    }

    #[test]
    fn capture_accumulates() {
        let mut cap = ParCapture::default();
        cap.record(4, &[10, 20]);
        cap.record(2, &[1, 2, 3]);
        assert_eq!(cap.parallelism, 4);
        assert_eq!(cap.chunk_rows, vec![11, 22, 3]);
    }
}
