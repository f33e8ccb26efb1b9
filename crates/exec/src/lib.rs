//! Deterministic parallel execution for the ePlace hot-path kernels.
//!
//! ePlace's runtime is dominated by three kernels — the WA wirelength
//! gradient, density deposition, and the 2-D spectral transforms (paper
//! Fig. 7: density 57 %, wirelength 29 % of mGP). This crate gives them one
//! threading substrate built on `std::thread::scope`, with exactly one entry
//! point, [`for_each_span`]: the caller's output is a sequence of *units*
//! (grid rows, nets, cells, fixed chunks), the units are split statically
//! into contiguous spans, and each span's output is written by exactly one
//! worker.
//!
//! Because every output element has one owner that adds its terms in the
//! same order whatever the split, a kernel built on this primitive gives the
//! same bits at every thread count — `threads = 1` is simply the one-span
//! case, run inline on the calling thread with no thread machinery at all.
//! No atomic floats and no merge of partial results. Scratch comes from a
//! caller-owned pool, so steady-state calls allocate nothing, and kernels
//! never start threads of their own: one call is one level of parallelism.
//!
//! # Examples
//!
//! ```
//! use eplace_exec::{for_each_span, ExecConfig};
//!
//! // Prefix sums of each row of a 4 × 8 grid, one worker per row span.
//! let nx = 8;
//! let mut grid: Vec<f64> = (0..32).map(|i| i as f64).collect();
//! let exec = ExecConfig::with_threads(3);
//! for_each_span(
//!     &exec,
//!     grid.len() / nx,
//!     &mut grid[..],
//!     |rows, head| rows.split_at_mut(head.len() * nx),
//!     &mut Vec::new(),
//!     || (),
//!     |_, rows, _| {
//!         for row in rows.chunks_exact_mut(nx) {
//!             for i in 1..nx {
//!                 row[i] += row[i - 1];
//!             }
//!         }
//!     },
//! );
//! assert_eq!(grid[7], 28.0);
//! assert_eq!(grid[31], 24.0 + 25.0 + 26.0 + 27.0 + 28.0 + 29.0 + 30.0 + 31.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;

/// Thread-count knob threaded from `EplaceConfig` down into the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
}

impl Default for ExecConfig {
    /// Serial — one worker on the calling thread. Every kernel gives the
    /// same bits at any thread count, so this only decides whether threads
    /// are started, never what is computed.
    fn default() -> Self {
        ExecConfig::serial()
    }
}

impl ExecConfig {
    /// Single-threaded execution: every span runs on the calling thread.
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

/// Splits `0..units` statically into `min(threads, units)` contiguous spans
/// (at least one; earlier spans take the remainder) and runs
/// `work(span, output, scratch)` once per span, each on its own worker with
/// its own slot of `pool`.
///
/// `data` is the caller-owned output of all `units` units. `split(rest,
/// head)` receives the output of units `head.start..` and must cut it after
/// unit `head.end`, returning the head's output and the rest — a row-major
/// grid splits at `head.len() * row_len`, a CSR buffer at the offset of
/// `head.end`, a pair of maps splits both. Each unit's output therefore has
/// exactly one writer, and a kernel whose `work` adds each output element's
/// terms in a fixed order gives the same bits for every thread count.
///
/// `pool` is topped up to the worker count with `scratch_init` (on the
/// calling thread); scratch contents persist between calls, so `work` must
/// not read scratch state it has not written. With one worker (serial
/// config, or at most one unit) `work(0..units, data, &mut pool[0])` runs
/// inline on the calling thread; otherwise the last span runs on the calling
/// thread and the others on scoped threads.
pub fn for_each_span<D, S, M, P, F>(
    exec: &ExecConfig,
    units: usize,
    data: D,
    split: P,
    pool: &mut Vec<S>,
    scratch_init: M,
    work: F,
) where
    D: Send,
    S: Send,
    M: Fn() -> S,
    P: Fn(D, Range<usize>) -> (D, D),
    F: Fn(Range<usize>, D, &mut S) + Sync,
{
    let workers = exec.threads().min(units).max(1);
    while pool.len() < workers {
        pool.push(scratch_init());
    }
    let (first, last) = pool[..workers].split_at_mut(workers - 1);
    if workers == 1 {
        work(0..units, data, &mut last[0]);
        return;
    }
    let (base, rem) = (units / workers, units % workers);
    std::thread::scope(|scope| {
        let work = &work;
        let mut rest = data;
        let mut start = 0;
        for (w, scratch) in first.iter_mut().enumerate() {
            let span = start..start + base + usize::from(w < rem);
            start = span.end;
            let (mine, tail) = split(rest, span.clone());
            rest = tail;
            scope.spawn(move || work(span, mine, scratch));
        }
        work(start..units, rest, &mut last[0]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `for_each_span` over `units` units of `unit_len` elements each,
    /// recording in every element the span that wrote it and the order in
    /// which its span visited it.
    fn run(
        threads: usize,
        units: usize,
        unit_len: usize,
        pool: &mut Vec<Vec<usize>>,
    ) -> Vec<(usize, usize)> {
        let mut data = vec![(usize::MAX, usize::MAX); units * unit_len];
        for_each_span(
            &ExecConfig::with_threads(threads),
            units,
            &mut data[..],
            |d, head| d.split_at_mut(head.len() * unit_len),
            pool,
            Vec::new,
            |span, out, seen| {
                seen.clear();
                for (k, v) in out.iter_mut().enumerate() {
                    seen.push(k);
                    *v = (span.start, k);
                }
                assert_eq!(out.len(), span.len() * unit_len);
            },
        );
        data
    }

    #[test]
    fn serial_config_is_default() {
        assert_eq!(ExecConfig::default(), ExecConfig::serial());
        assert!(ExecConfig::serial().is_serial());
        assert_eq!(ExecConfig::with_threads(3).threads(), 3);
        assert!(ExecConfig::with_threads(0).threads() >= 1);
    }

    #[test]
    fn spans_tile_the_units_contiguously() {
        for &(units, threads) in &[(10usize, 3usize), (7, 7), (100, 8), (5, 16), (1, 4)] {
            let data = run(threads, units, 1, &mut Vec::new());
            let starts: Vec<usize> = data.iter().map(|&(s, _)| s).collect();
            // Span sizes differ by at most one, earlier spans larger.
            let workers = threads.min(units);
            let (base, rem) = (units / workers, units % workers);
            let mut expect = Vec::new();
            let mut start = 0;
            for w in 0..workers {
                let len = base + usize::from(w < rem);
                expect.extend(std::iter::repeat_n(start, len));
                start += len;
            }
            assert_eq!(starts, expect, "units {units} threads {threads}");
        }
    }

    #[test]
    fn every_unit_is_visited_once() {
        let mut data = vec![0u64; 8 * 13];
        for_each_span(
            &ExecConfig::with_threads(3),
            8,
            &mut data[..],
            |d, head| d.split_at_mut(head.len() * 13),
            &mut Vec::new(),
            || (),
            |span, out, _| {
                for (unit, block) in span.zip(out.chunks_exact_mut(13)) {
                    for v in block.iter_mut() {
                        *v += unit as u64 + 1;
                    }
                }
            },
        );
        for (i, block) in data.chunks(13).enumerate() {
            assert!(block.iter().all(|&v| v == i as u64 + 1));
        }
    }

    #[test]
    fn span_keeps_unit_order() {
        // Within a span the output arrives in unit order, so a worker adds
        // each element's terms in the serial order.
        let data = run(4, 12, 5, &mut Vec::new());
        for block in data.chunks(15) {
            let offsets: Vec<usize> = block.iter().map(|&(_, k)| k).collect();
            assert_eq!(offsets, (0..15).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_holds_one_slot_per_worker_and_is_reused() {
        for threads in [1, 2, 4, 16, 40] {
            let mut pool = Vec::new();
            let first = run(threads, 16, 4, &mut pool);
            assert_eq!(pool.len(), threads.min(16));
            let capacity: Vec<usize> = pool.iter().map(Vec::capacity).collect();
            // A second call reuses the slots without growing the pool.
            assert_eq!(first, run(threads, 16, 4, &mut pool));
            assert_eq!(pool.len(), threads.min(16));
            assert_eq!(capacity, pool.iter().map(Vec::capacity).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_worker_runs_inline_and_zero_units_run_once() {
        let caller = std::thread::current().id();
        let calls = std::sync::Mutex::new(Vec::new());
        for units in [1, 0] {
            let mut data = vec![0u8; units];
            for_each_span(
                &ExecConfig::with_threads(8),
                units,
                &mut data[..],
                |d, head| d.split_at_mut(head.len()),
                &mut Vec::new(),
                || (),
                |span, _, _| {
                    let mut calls = calls.lock().unwrap();
                    calls.push((span, std::thread::current().id()));
                },
            );
        }
        assert_eq!(
            calls.into_inner().unwrap(),
            vec![(0..1, caller), (0..0, caller)]
        );
    }

    #[test]
    #[should_panic(expected = "mid > len")]
    fn output_shorter_than_its_units_is_rejected() {
        // Eight elements cannot hold four units of three: cutting off the
        // third span's output panics instead of handing out a short span.
        let mut data = [0.0f64; 8];
        for_each_span(
            &ExecConfig::with_threads(4),
            4,
            &mut data[..],
            |d, head| d.split_at_mut(head.len() * 3),
            &mut Vec::new(),
            || (),
            |_, _, _| {},
        );
    }
}
