//! The scratch arenas' shared pool, in a test process of its own so that
//! no other test's buffers pass through it: a buffer a node memo releases
//! on one thread, or an arena leaves when its thread ends, serves another
//! thread's arena that holds no buffer that fits.

use qpseeker_nn::infer::{with_thread_scratch, ScratchArena};
use qpseeker_nn::tensor::Tensor;

#[test]
fn buffers_released_on_any_thread_serve_every_arena() {
    // Wider than anything else this process takes, so each take below
    // can only be served by the buffer the step before handed on.
    let (wide, wider) = ((1 << 20) + 7, (1 << 21) + 5);
    std::thread::spawn(move || {
        with_thread_scratch(|arena| {
            let t = arena.take(1, wide);
            arena.recycle(t);
        })
    })
    .join()
    .expect("the thread ends");
    let mut arena = ScratchArena::new();
    let t = arena.take(1 << 10, 1 << 10);
    assert_eq!(t.capacity(), wide, "the ended thread's arena handed its buffer on");
    assert!(t.data().iter().all(|x| !cfg!(debug_assertions) || x.is_nan()));
    std::thread::spawn(move || ScratchArena::release([Tensor::zeros(1, wider)]))
        .join()
        .expect("the thread ends");
    let t = arena.take(1 << 21, 1);
    assert_eq!(t.capacity(), wider, "a released buffer serves another thread's arena");
}
