//! A warm full-graph pass allocates only its answer.
//!
//! The inference pass keeps everything graph-sized it writes before the
//! logits — each stage's node-indexed output (a transform-first GCN's
//! `T` among them), the block buffers, the Q16.16 product's quantized
//! blocks — from one pass to the next. This binary counts the bytes the
//! global allocator hands the measuring thread during one warm full-graph
//! engine pass per model kind on every backend, and holds them to the two
//! logits-sized matrices the pass returns (the epoch's cached logits and
//! the response's copy) plus a constant for the response, the request
//! path and the simulated accelerator's cost report. It has a binary of
//! its own so no other test allocates under the counter.

use blockgnn::engine::{BackendKind, EngineBuilder, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::graph::datasets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts the bytes allocated on a thread while its `COUNTING` is set.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counter
// only reads the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` allocates on this thread.
fn allocated_by(f: impl FnOnce()) -> usize {
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    BYTES.load(Ordering::Relaxed)
}

/// What a pass may allocate beside its two logits matrices: the response
/// and its per-node predictions (680 × 8 B). Each graph-sized matrix an
/// inference stage allocated afresh would take 680 × 32 × 8 B = 170 KiB
/// (hidden) or 680 × 7 × 8 B = 37 KiB (class scores), past it.
const CONSTANT_BYTES: usize = 16 << 10;

#[test]
fn a_warm_full_graph_pass_allocates_only_its_logits() {
    let dataset = Arc::new(datasets::cora_like_small(3));
    let logits_bytes = dataset.num_nodes() * dataset.num_classes * 8;
    let all = InferRequest::all_nodes();
    for kind in ModelKind::all() {
        for backend in BackendKind::all() {
            let mut engine = EngineBuilder::new(kind, backend)
                .hidden_dim(32)
                .build(Arc::clone(&dataset))
                .expect("builds");
            let mut pass = || {
                engine.clear_full_graph_cache();
                let response = engine.session().infer(&all).expect("serves");
                assert!(!response.from_cache, "{kind} {backend}: the pass computes");
            };
            pass();
            pass();
            let bytes = allocated_by(pass);
            let bound = 2 * logits_bytes + CONSTANT_BYTES;
            assert!(
                bytes <= bound,
                "{kind} {backend}: a warm pass allocated {bytes} B, past {bound} B \
                 (logits {logits_bytes} B)"
            );
        }
    }
}
