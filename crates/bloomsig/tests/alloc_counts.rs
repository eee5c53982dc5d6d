//! Allocation-count tests: the scheduler constructs one Bloom filter per
//! transaction begin, so filters at the paper's evaluated sizes (≤ 2048
//! bits) must not touch the heap — neither on construction nor in the
//! signature algebra (union, intersects, intersection_estimate).
//!
//! The tests run on parallel threads, so each thread counts only its own
//! allocations.

use bfgts_bloomsig::BloomFilter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a thread-local side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

#[test]
fn small_and_medium_filters_allocate_nothing() {
    for bits in [64u32, 512, 1024, 2048] {
        let allocs = allocations_during(|| {
            let mut f = BloomFilter::new(bits, 4);
            for k in 0..64u64 {
                f.insert(k);
            }
            f
        });
        assert_eq!(allocs, 0, "BloomFilter::new({bits}) touched the heap");
    }
}

#[test]
fn inline_signature_algebra_allocates_nothing() {
    let mut a = BloomFilter::new(2048, 4);
    let mut b = BloomFilter::new(2048, 4);
    for k in 0..100u64 {
        a.insert(k);
        b.insert(k + 50);
    }
    let allocs = allocations_during(|| {
        let u = a.union(&b);
        let hit = a.intersects(&b);
        let est = a.intersection_estimate(&b);
        (u, hit, est)
    });
    assert_eq!(allocs, 0, "inline signature algebra touched the heap");
}

#[test]
fn large_filters_fall_back_to_the_heap() {
    let allocs = allocations_during(|| BloomFilter::new(8192, 4));
    assert!(allocs > 0, "8192-bit filter should heap-allocate");
}
