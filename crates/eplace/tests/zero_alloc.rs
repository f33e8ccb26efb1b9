//! Steady-state allocation audit for the mGP/cGP hot path.
//!
//! The optimizer loop — Nesterov step, density deposit + spectral solve,
//! WA wirelength gradient, combine/precondition — is designed to run out of
//! preallocated buffers after warm-up. This test installs a counting global
//! allocator and asserts the invariant directly: once the first iterations
//! have sized every scratch buffer, further `step` calls perform **zero**
//! heap allocations at threads = 1.
//!
//! The file holds exactly one `#[test]` so no concurrent test thread can
//! allocate while the counter is armed.

use eplace_benchgen::BenchmarkConfig;
use eplace_core::PlacementProblem;
use eplace_core::{initial_placement, insert_fillers, EplaceCost, NesterovOptimizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Wraps the system allocator and counts allocation events while armed.
/// Deallocations are not counted: dropping warm-up temporaries is fine; new
/// acquisitions are what the invariant forbids.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_gp_iteration_allocates_nothing() {
    // A realistic mixed problem: movables, fillers, a density grid large
    // enough to exercise the full spectral solve.
    let mut design = BenchmarkConfig::ispd05_like("alloc-audit", 42)
        .scale(400)
        .generate();
    initial_placement(&mut design);
    insert_fillers(&mut design, 42);
    let problem = PlacementProblem::all_movables(&design);
    let mut cost = EplaceCost::new(&design, &problem, 64, 64, true);
    let pos = problem.positions(&design);
    cost.init_lambda(&pos);
    let perturb = 0.1 * cost.bin_width();
    let mut optimizer = NesterovOptimizer::new(pos, &mut cost, 0.95, 10, true, perturb);

    // Warm-up: size every lazily grown scratch buffer. The spectral solve's
    // folded-real scratch (half-FFT ping-pong buffers and the Hermitian
    // staging row) is sized with the plan, so it never grows here.
    for _ in 0..3 {
        optimizer.step(&mut cost);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        optimizer.step(&mut cost);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "steady-state optimizer steps performed {allocs} heap allocations; \
         the gradient hot path must run entirely out of pooled buffers"
    );
    // Sanity: the audited steps actually did the work.
    assert!(cost.evaluations >= 8);
    assert!(optimizer.solution().iter().all(|p| p.is_finite()));
}
