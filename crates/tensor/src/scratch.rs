//! Per-thread recycling arenas for hot-path scratch buffers.
//!
//! The pooled executor's worst enemy on real multi-core hosts is not the
//! dispatch wakeup — it is every worker hammering the global allocator
//! for the same per-region scratch (`im2col` patch buffers, compute rows
//! and their dots, per-channel contribution rows), which serializes the
//! workers on the allocator's locks exactly when they should be
//! independent, and pool widths stop scaling long before the core count.
//!
//! [`ScratchF32`] is the fix: a `Vec<f32>` whose backing allocation is
//! drawn from (and returned to) a **thread-local** free list. A pool
//! worker that runs one conv region allocates its scratch once; every
//! later region the same worker runs reuses those allocations without
//! ever touching the global allocator — and without any cross-thread
//! coordination, because the free list is per thread. Dropping a buffer
//! on a different thread than the one that took it is *correct* (it just
//! migrates the allocation to the dropping thread's list), merely not
//! the fast path — which is why hot callers keep their scratch inside
//! the worker closure that created it.
//!
//! Determinism is untouched by design: a recycled buffer is always
//! handed out **empty** (`len == 0`, capacity whatever history left), so
//! `resize`/`extend` fill every element the caller reads. Only
//! capacities — never contents — survive recycling.
//!
//! # Examples
//!
//! ```
//! use mercury_tensor::scratch::ScratchF32;
//!
//! {
//!     let mut buf = ScratchF32::take();
//!     buf.resize(1024, 0.0);
//!     buf[7] = 3.5;
//! } // dropped: the 1 KiB allocation parks on this thread's free list
//!
//! let again = ScratchF32::take(); // no allocator call
//! assert_eq!(again.len(), 0, "recycled buffers always start empty");
//! assert!(again.capacity() >= 1024);
//! ```

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Most buffers one thread's free list parks. Beyond this, extra drops
/// fall through to the real allocator — a bound, not a budget: the hot
/// paths hold well under this many scratch buffers at once.
const MAX_POOLED_BUFS: usize = 32;

/// Most total capacity (in `f32` elements, 256 MiB) one thread's free
/// list retains, so a single giant region cannot pin its peak footprint
/// on every worker forever.
const MAX_POOLED_ELEMS: usize = 64 << 20;

thread_local! {
    static FREE_LIST: RefCell<FreeList> = const {
        RefCell::new(FreeList {
            bufs: Vec::new(),
            pooled_elems: 0,
            takes: 0,
            reuses: 0,
        })
    };
}

struct FreeList {
    bufs: Vec<Vec<f32>>,
    /// Summed capacity of every parked buffer.
    pooled_elems: usize,
    takes: u64,
    reuses: u64,
}

/// Counters of one thread's arena traffic (see
/// [`thread_stats`]), so allocator pressure is auditable, not guessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Buffers handed out on this thread ([`ScratchF32::take`] calls).
    pub takes: u64,
    /// Hand-outs served from the free list instead of the allocator.
    pub reuses: u64,
}

/// This thread's arena counters since process start.
pub fn thread_stats() -> ScratchStats {
    FREE_LIST.with(|fl| {
        let fl = fl.borrow();
        ScratchStats {
            takes: fl.takes,
            reuses: fl.reuses,
        }
    })
}

/// A `Vec<f32>` drawn from the current thread's recycling arena and
/// returned to the dropping thread's arena. Derefs to `Vec<f32>`, so it
/// drops into existing `resize`/`clear`/slice call sites unchanged.
///
/// `Default` is [`take`](Self::take), so `ScratchF32` slots directly
/// into the `Default`-built per-runner scratch states of
/// [`Executor::map`](crate::exec::Executor::map).
#[derive(Debug)]
pub struct ScratchF32 {
    /// `Some` until dropped; the option exists only so `Drop` can move
    /// the vec back to the free list.
    buf: Option<Vec<f32>>,
}

impl ScratchF32 {
    /// An empty buffer, reusing a previously dropped allocation when the
    /// thread's free list has one (largest-capacity first).
    pub fn take() -> Self {
        let buf = FREE_LIST.with(|fl| {
            let mut fl = fl.borrow_mut();
            fl.takes += 1;
            match fl.bufs.pop() {
                Some(buf) => {
                    fl.reuses += 1;
                    fl.pooled_elems -= buf.capacity();
                    buf
                }
                None => Vec::new(),
            }
        });
        ScratchF32 { buf: Some(buf) }
    }

    /// [`take`](Self::take), then `resize(len, 0.0)` — the common "give
    /// me `len` zeros" shape as one call.
    pub fn zeroed(len: usize) -> Self {
        let mut s = Self::take();
        s.resize(len, 0.0);
        s
    }
}

impl Default for ScratchF32 {
    fn default() -> Self {
        Self::take()
    }
}

impl Clone for ScratchF32 {
    fn clone(&self) -> Self {
        let mut copy = Self::take();
        copy.extend_from_slice(self);
        copy
    }
}

impl Deref for ScratchF32 {
    type Target = Vec<f32>;

    fn deref(&self) -> &Vec<f32> {
        self.buf.as_ref().expect("present until drop")
    }
}

impl DerefMut for ScratchF32 {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        self.buf.as_mut().expect("present until drop")
    }
}

impl Drop for ScratchF32 {
    fn drop(&mut self) {
        let Some(mut buf) = self.buf.take() else {
            return;
        };
        if buf.capacity() == 0 {
            return; // nothing worth parking
        }
        // Hand recycled buffers out empty — stale contents must never be
        // observable (callers' `resize(n, 0.0)` only fills *new* slots).
        buf.clear();
        let _ = FREE_LIST.try_with(|fl| {
            // `try_with`: during thread teardown the free list may
            // already be gone; the buffer then just frees normally.
            let mut fl = fl.borrow_mut();
            if fl.bufs.len() < MAX_POOLED_BUFS
                && fl.pooled_elems.saturating_add(buf.capacity()) <= MAX_POOLED_ELEMS
            {
                fl.pooled_elems += buf.capacity();
                fl.bufs.push(std::mem::take(&mut buf));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity_but_never_contents() {
        let cap = {
            let mut buf = ScratchF32::take();
            buf.resize(4096, 1.5);
            buf.capacity()
        };
        let stats = thread_stats();
        let buf = ScratchF32::take();
        assert_eq!(thread_stats().takes, stats.takes + 1);
        assert_eq!(thread_stats().reuses, stats.reuses + 1, "free list hit");
        assert!(buf.capacity() >= cap, "the allocation came back");
        assert!(buf.is_empty(), "…but none of the 1.5s did");
    }

    #[test]
    fn zeroed_is_all_zeros_even_after_dirty_history() {
        {
            let mut dirty = ScratchF32::take();
            dirty.resize(100, 7.0);
        }
        let z = ScratchF32::zeroed(200);
        assert_eq!(z.len(), 200);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn default_and_clone_go_through_the_arena() {
        let mut a = ScratchF32::default();
        a.extend_from_slice(&[1.0, 2.0, 3.0]);
        let b = a.clone();
        assert_eq!(&b[..], &[1.0, 2.0, 3.0]);
        assert!(thread_stats().takes >= 2);
    }

    #[test]
    fn vec_api_passes_through_the_deref() {
        let mut buf = ScratchF32::take();
        buf.resize(8, 0.0);
        buf[3] = 9.0;
        // &ScratchF32 coerces to &[f32] (and &mut to &mut Vec<f32>), so
        // existing kernel signatures accept it unchanged.
        fn sum(s: &[f32]) -> f32 {
            s.iter().sum()
        }
        fn push(v: &mut Vec<f32>) {
            v.push(1.0);
        }
        assert_eq!(sum(&buf), 9.0);
        push(&mut buf);
        assert_eq!(buf.len(), 9);
    }

    #[test]
    fn cross_thread_drop_migrates_instead_of_corrupting() {
        let mut buf = ScratchF32::take();
        buf.resize(64, 2.0);
        let handle = std::thread::spawn(move || {
            assert_eq!(buf[63], 2.0);
            drop(buf); // parks on the spawned thread's list — no panic,
                       // no cross-thread free-list contention
            thread_stats().takes
        });
        handle.join().unwrap();
    }

    #[test]
    fn oversized_buffers_fall_through_the_retention_cap() {
        // A buffer bigger than the whole per-thread byte cap is freed,
        // not parked.
        {
            let mut huge = ScratchF32::take();
            huge.reserve(MAX_POOLED_ELEMS + 1);
        }
        let before = thread_stats();
        {
            let mut small = ScratchF32::take();
            small.resize(16, 0.0);
        }
        let _back = ScratchF32::take();
        let after = thread_stats();
        // The small buffer recycles; the huge one was not retained ahead
        // of it (capacity ≥ cap+1 would have been reused here otherwise).
        assert_eq!(after.takes, before.takes + 2);
        assert!(_back.capacity() < MAX_POOLED_ELEMS);
    }
}
