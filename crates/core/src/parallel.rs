//! Deterministic scoped-thread fan-out.

/// Runs `f(i)` for every index in `0..count` across `threads` scoped
/// threads, returning results in index order.
///
/// Indices are split into contiguous chunks, so the output is
/// identical to the serial loop regardless of thread count — the
/// single chunking scheme shared by the estimators' parallel
/// `evaluate_all` paths and the bench harness's repetition runner.
pub fn parallel_index_map<T: Send>(
    count: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    parallel_index_map_with(count, threads, || (), |(), i| f(i))
}

/// [`parallel_index_map`] with reusable **per-thread scratch state**:
/// every spawned thread calls `init` once and threads the resulting
/// value through each `f` call of its contiguous chunk (the serial
/// path reuses a single scratch across all indices). This is how the
/// indexed evaluate-all hot path shares one peer buffer and one
/// anchored mask allocation across every worker a thread evaluates,
/// instead of allocating a fresh view per worker. Chunking — and
/// therefore output order — is identical to [`parallel_index_map`]:
/// scratch state never influences results, only allocation traffic.
pub fn parallel_index_map_with<S, T: Send>(
    count: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, count);
    if threads == 1 {
        let mut scratch = init();
        return (0..count).map(|i| f(&mut scratch, i)).collect();
    }
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut scratch = init();
                for (i, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(f(&mut scratch, t * chunk + i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index evaluated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_worker_in_order() {
        for threads in [1usize, 2, 3, 8, 64] {
            let out = parallel_index_map(23, threads, |i| i * 2);
            let expect: Vec<usize> = (0..23).map(|i| i * 2).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn zero_workers_is_empty() {
        assert!(parallel_index_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn scratch_state_is_per_thread_and_reused_within_a_chunk() {
        for threads in [1usize, 2, 5] {
            // Each call records how many times its thread's scratch was
            // used before it; chunks must see 0, 1, 2, … in index order.
            let out = parallel_index_map_with(
                10,
                threads,
                || 0usize,
                |uses, i| {
                    let seen = *uses;
                    *uses += 1;
                    (i, seen)
                },
            );
            let chunk = 10usize.div_ceil(threads.clamp(1, 10));
            for (i, &(idx, seen)) in out.iter().enumerate() {
                assert_eq!(idx, i);
                assert_eq!(seen, i % chunk, "threads {threads}, index {i}");
            }
        }
    }
}
