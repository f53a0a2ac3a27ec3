//! The token-budget checks (`within_tokens`, behind every chat turn's
//! context-window check and the 4k filter) and `count_tokens`, which
//! they fall back on for long inputs, must not touch the heap. A
//! counting global allocator, armed only on the thread that counts,
//! proves it; this file is its own test binary so the allocator sees no
//! other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn count_tokens_makes_no_heap_allocation() {
    let inputs = [
        String::new(),
        "int a[100];\nint main() {\n#pragma omp parallel for reduction(+: sum)\n\
         for (int i = 0; i < 99; i++) a[i] = a[i + 1];\nreturn 0; }\n"
            .repeat(40),
        "extraordinarily_long_identifier_name += omp_get_thread_num() -> x;".repeat(100),
        "printf(\"naïve → 🦀 é\u{a0}\");\n".repeat(100),
    ];
    // Sanity: the counter sees allocations at all.
    assert!(allocations(|| llm::tokenize(&inputs[1])).0 > 0);
    for src in &inputs {
        let (n, count) = allocations(|| llm::count_tokens(src));
        assert_eq!(n, 0, "count_tokens allocated {n} times on {} bytes", src.len());
        assert_eq!(count, llm::tokenize(src).len());
        assert_eq!(allocations(|| llm::fits_prompt_budget(src)).0, 0);
        // Both the length shortcut and the scanning fallback.
        for max in [0, count, src.len()] {
            let (n, within) = allocations(|| llm::within_tokens(src, max));
            assert_eq!(n, 0, "within_tokens allocated {n} times on {} bytes", src.len());
            assert_eq!(within, count <= max);
        }
    }
}
