//! Deterministic parallel execution for the ePlace hot-path kernels.
//!
//! ePlace's runtime is dominated by three kernels — the WA wirelength
//! gradient, density deposition, and the 2-D spectral transforms (paper
//! Fig. 7: density 57 %, wirelength 29 % of mGP). This crate gives them one
//! threading substrate built on `std::thread::scope`, with exactly two entry
//! points for the two shapes of parallel work the kernels have:
//!
//! * [`for_each_chunk_pooled`] — *reductions* (WA net gradients, density
//!   deposit, the router's probabilistic bulk). Work is split into *fixed*
//!   chunks whose boundaries depend only on the problem size
//!   ([`deterministic_chunks`]); each chunk fills its own pooled state, and
//!   the caller reduces the states **in chunk order**. No atomic floats, no
//!   first-come-first-merged races: `threads = 2` and `threads = 8` produce
//!   identical bits.
//! * [`for_each_unit_pooled`] — *disjoint units* (the row/column passes of
//!   the 2-D transforms). Each unit is written by exactly one worker, so the
//!   result is bitwise independent of the split by construction.
//!
//! Both take caller-owned scratch pools, so steady-state calls allocate
//! nothing, and both run inline on the calling thread, with no thread
//! machinery at all, under [`ExecConfig::serial`]. Kernels never start
//! threads of their own: one call is one level of parallelism.
//!
//! # Examples
//!
//! ```
//! use eplace_exec::{deterministic_chunks, for_each_chunk_pooled, ExecConfig};
//!
//! let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let exec = ExecConfig::with_threads(4);
//! let chunks = deterministic_chunks(data.len(), 64, 8);
//! let mut partials = Vec::new();
//! for_each_chunk_pooled(&exec, data.len(), chunks, &mut partials, || 0.0, |_, range, sum| {
//!     *sum = data[range].iter().sum::<f64>();
//! });
//! // Reduction order is the chunk order — identical for every thread count.
//! let total: f64 = partials[..chunks].iter().sum();
//! assert_eq!(total, 499_500.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Thread-count knob threaded from `EplaceConfig` down into the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
}

impl Default for ExecConfig {
    /// Serial — parallelism is opt-in so library users keep exact
    /// historical results unless they ask otherwise.
    fn default() -> Self {
        ExecConfig::serial()
    }
}

impl ExecConfig {
    /// Single-threaded execution (the exact pre-parallel code path).
    pub fn serial() -> Self {
        ExecConfig { threads: 1 }
    }

    /// One thread per available hardware core.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecConfig { threads: n.max(1) }
    }

    /// Fixed thread count; `0` means [`ExecConfig::auto`].
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            ExecConfig::auto()
        } else {
            ExecConfig { threads }
        }
    }

    /// Resolved worker count (always ≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when execution is single-threaded.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }
}

/// Number of fixed work chunks for a problem of `len` items: enough to load
/// any realistic machine, few enough that per-chunk scratch stays cheap, and
/// — critically — a function of `len` alone, never of the thread count
/// (chunk boundaries define the floating-point reduction order, so they must
/// not move when the machine changes).
pub fn deterministic_chunks(len: usize, min_chunk: usize, max_chunks: usize) -> usize {
    if len == 0 {
        return 1;
    }
    len.div_ceil(min_chunk.max(1)).clamp(1, max_chunks.max(1))
}

/// Splits `0..len` into `num_chunks` near-equal contiguous ranges.
fn chunk_range(len: usize, num_chunks: usize, i: usize) -> Range<usize> {
    let base = len / num_chunks;
    let rem = len % num_chunks;
    let start = i * base + i.min(rem);
    let extra = usize::from(i < rem);
    start..start + base + extra
}

/// Applies `work` to each consecutive `unit_len` block of `data` (e.g. each
/// row of a row-major grid), splitting the units statically into
/// `threads.min(units)` contiguous spans, earlier workers taking the
/// remainder. Every unit is written by exactly one worker and units are
/// disjoint, so the output is bitwise identical for every thread count.
///
/// `pool` is topped up to the worker count with `scratch_init` (on the
/// calling thread) and each worker borrows one slot for all its units, so
/// steady-state calls allocate nothing. Scratch contents persist between
/// units and calls; `work` must not read scratch state it has not written
/// for the current unit.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `unit_len`.
pub fn for_each_unit_pooled<T, S, M, F>(
    exec: &ExecConfig,
    data: &mut [T],
    unit_len: usize,
    pool: &mut Vec<S>,
    scratch_init: M,
    work: F,
) where
    T: Send,
    S: Send,
    M: Fn() -> S,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(unit_len > 0, "unit length must be positive");
    assert_eq!(
        data.len() % unit_len,
        0,
        "data length {} is not a multiple of unit length {}",
        data.len(),
        unit_len
    );
    let units = data.len() / unit_len;
    let workers = if exec.is_serial() || units <= 1 {
        1
    } else {
        exec.threads().min(units)
    };
    while pool.len() < workers {
        pool.push(scratch_init());
    }
    if workers == 1 {
        let scratch = &mut pool[0];
        for (i, unit) in data.chunks_mut(unit_len).enumerate() {
            work(i, unit, scratch);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut scratches = &mut pool[..workers];
        let base = units / workers;
        let rem = units % workers;
        let mut first_unit = 0;
        for w in 0..workers {
            let take = (base + usize::from(w < rem)) * unit_len;
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let (slot, scratch_tail) = scratches.split_at_mut(1);
            scratches = scratch_tail;
            let start = first_unit;
            first_unit += take / unit_len;
            let work = &work;
            scope.spawn(move || {
                let scratch = &mut slot[0];
                for (k, unit) in mine.chunks_mut(unit_len).enumerate() {
                    work(start + k, unit, scratch);
                }
            });
        }
    });
}

/// Splits `0..len` into `num_chunks` fixed near-equal ranges and runs
/// `work(i, range, &mut pool[i])` exactly once per chunk `i`, with `pool`
/// topped up beforehand via `scratch_init` (on the calling thread). With
/// [`ExecConfig::serial`] or a single chunk the chunks run inline, in order,
/// on the calling thread. After the call `pool[..num_chunks]` holds the per-chunk
/// results in chunk order — reduce them front-to-back for a thread-count
/// invariant result, then hand the same pool back next call so steady-state
/// iterations allocate nothing. `work` is responsible for resetting any
/// state left from the previous call.
pub fn for_each_chunk_pooled<S, M, F>(
    exec: &ExecConfig,
    len: usize,
    num_chunks: usize,
    pool: &mut Vec<S>,
    scratch_init: M,
    work: F,
) where
    S: Send,
    M: Fn() -> S,
    F: Fn(usize, Range<usize>, &mut S) + Sync,
{
    let num_chunks = num_chunks.max(1);
    while pool.len() < num_chunks {
        pool.push(scratch_init());
    }
    if exec.is_serial() || num_chunks == 1 {
        for (i, scratch) in pool.iter_mut().enumerate().take(num_chunks) {
            work(i, chunk_range(len, num_chunks, i), scratch);
        }
        return;
    }
    // Workers claim chunk indices dynamically; each slot's mutex is locked
    // exactly once, by the worker that claimed its index.
    let slots: Vec<Mutex<&mut S>> = pool.iter_mut().take(num_chunks).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let workers = exec.threads().min(num_chunks);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_chunks {
                    break;
                }
                let mut slot = slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                work(i, chunk_range(len, num_chunks, i), &mut slot);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_is_default() {
        assert_eq!(ExecConfig::default(), ExecConfig::serial());
        assert!(ExecConfig::serial().is_serial());
        assert_eq!(ExecConfig::with_threads(3).threads(), 3);
        assert!(ExecConfig::with_threads(0).threads() >= 1);
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for &(len, n) in &[(10usize, 3usize), (7, 7), (100, 8), (5, 16), (0, 4)] {
            let n = n.max(1);
            let mut covered = 0;
            for i in 0..n {
                let r = chunk_range(len, n, i);
                assert_eq!(r.start, covered, "len {len} chunks {n}");
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn deterministic_chunks_ignores_thread_count() {
        // The policy is a pure function of the problem size.
        assert_eq!(deterministic_chunks(0, 64, 8), 1);
        assert_eq!(deterministic_chunks(63, 64, 8), 1);
        assert_eq!(deterministic_chunks(65, 64, 8), 2);
        assert_eq!(deterministic_chunks(1 << 20, 64, 8), 8);
    }

    fn noisy_sum(range: Range<usize>) -> f64 {
        // A sum whose value depends on the association order, to detect any
        // merge-order nondeterminism.
        range
            .map(|i| ((i * 2654435761) % 1000) as f64 * 1e-3 + 1e10)
            .sum()
    }

    #[test]
    fn pooled_units_match_fresh_scratch_and_reuse_pool() {
        let run = |threads: usize, pool: &mut Vec<Vec<f64>>| {
            let mut data: Vec<f64> = (0..64 * 16).map(|i| (i % 97) as f64).collect();
            for_each_unit_pooled(
                &ExecConfig::with_threads(threads),
                &mut data,
                64,
                pool,
                || vec![0.0f64; 64],
                |i, unit, scratch| {
                    for (k, v) in unit.iter_mut().enumerate() {
                        scratch[k] = *v * (i + 1) as f64;
                    }
                    unit.copy_from_slice(scratch);
                },
            );
            data
        };
        let mut pool = Vec::new();
        let serial = run(1, &mut pool);
        assert_eq!(pool.len(), 1);
        for threads in [2, 4, 16] {
            let mut pool = Vec::new();
            assert_eq!(serial, run(threads, &mut pool), "threads {threads}");
            assert_eq!(pool.len(), threads.min(16));
            // Second call reuses the pool without growing it.
            assert_eq!(serial, run(threads, &mut pool), "threads {threads}");
            assert_eq!(pool.len(), threads.min(16));
        }
    }

    #[test]
    fn pooled_units_visit_every_unit_once() {
        let mut data = vec![0u64; 8 * 13];
        for_each_unit_pooled(
            &ExecConfig::with_threads(3),
            &mut data,
            13,
            &mut Vec::new(),
            || (),
            |i, unit, _| {
                for v in unit.iter_mut() {
                    *v += i as u64 + 1;
                }
            },
        );
        for (i, block) in data.chunks(13).enumerate() {
            assert!(block.iter().all(|&v| v == i as u64 + 1));
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn pooled_units_reject_ragged_data() {
        let mut data = vec![0.0f64; 10];
        for_each_unit_pooled(
            &ExecConfig::serial(),
            &mut data,
            3,
            &mut Vec::new(),
            || (),
            |_, _, _| {},
        );
    }

    #[test]
    fn pooled_chunks_preserve_chunk_order() {
        let mut pool = Vec::new();
        for_each_chunk_pooled(
            &ExecConfig::with_threads(4),
            100,
            10,
            &mut pool,
            || (usize::MAX, usize::MAX),
            |i, r, slot| *slot = (i, r.start),
        );
        assert_eq!(pool.len(), 10);
        for (i, &(idx, start)) in pool.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(start, i * 10);
        }
    }

    #[test]
    fn pooled_chunks_handle_empty_input() {
        let mut pool = Vec::new();
        for_each_chunk_pooled(
            &ExecConfig::with_threads(4),
            0,
            deterministic_chunks(0, 64, 8),
            &mut pool,
            || usize::MAX,
            |_, r, slot| *slot = r.len(),
        );
        assert_eq!(pool, vec![0]);
    }

    #[test]
    fn pooled_chunks_fill_in_chunk_order_and_reuse_pool() {
        let len = 10_000;
        let chunks = deterministic_chunks(len, 512, 8);
        let reduce = |exec: &ExecConfig, pool: &mut Vec<f64>| {
            for_each_chunk_pooled(
                exec,
                len,
                chunks,
                pool,
                || 0.0,
                |_, r, acc| {
                    *acc = noisy_sum(r);
                },
            );
            pool.iter().take(chunks).fold(0.0, |acc, x| acc + x)
        };
        let mut pool = Vec::new();
        let serial = reduce(&ExecConfig::serial(), &mut pool);
        assert_eq!(pool.len(), chunks);
        for threads in [2, 3, 8] {
            let mut pool = Vec::new();
            let parallel = reduce(&ExecConfig::with_threads(threads), &mut pool);
            assert_eq!(serial.to_bits(), parallel.to_bits(), "threads {threads}");
            // Stale pool contents are overwritten, not accumulated.
            let again = reduce(&ExecConfig::with_threads(threads), &mut pool);
            assert_eq!(serial.to_bits(), again.to_bits(), "threads {threads}");
            assert_eq!(pool.len(), chunks);
        }
    }
}
