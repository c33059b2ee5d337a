//! Deterministic scatter-gather for Monte Carlo trials.
//!
//! Trials are split into fixed-size chunks, each chunk derives its own
//! RNG stream from `(seed, chunk_index)` via [`chunk_seed`], and chunk
//! results are reduced in chunk-index order — so a simulation's result
//! is **bit-identical for any worker-thread count**, including one. The
//! thread count only decides which OS thread happens to run a chunk,
//! never what the chunk computes or the order partial results are
//! combined in (DESIGN.md §11).

use std::num::NonZeroUsize;

/// The RNG seed of one trial chunk: a SplitMix64 finalizer over the base
/// seed offset by the chunk index. Without the finalizer, neighbouring
/// chunks would draw overlapping streams: the workspace generator is
/// itself a SplitMix64, so seeds one SplitMix64 gamma (the per-chunk
/// offset below) apart yield the same stream shifted by one draw.
pub fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed.wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves a requested worker count: `0` means "one worker per
/// available CPU", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Runs `n_chunks` independent chunk computations across up to
/// `threads` OS threads (resolved via [`resolve_threads`]) and returns
/// the per-chunk results **in chunk order**.
///
/// Each worker gets its own scratch state from `init` (e.g. a health
/// buffer) and walks chunks in a fixed stride, so no two workers ever
/// touch the same chunk; the strides' results are merged back in chunk
/// order, making the output independent of scheduling. The calling thread walks
/// stride 0 itself and spawns only `threads − 1` workers, so with one
/// effective thread nothing is spawned — same chunks, same seeds, same
/// answer.
pub fn run_chunks<T, S, FS, FC>(n_chunks: usize, threads: usize, init: FS, run: FC) -> Vec<T>
where
    T: Send,
    S: Send,
    FS: Fn() -> S + Sync,
    FC: Fn(usize, &mut S) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n_chunks).max(1);
    // One worker's stride: chunks first, first + threads, ...
    let stride = |first: usize| {
        let mut state = init();
        (first..n_chunks)
            .step_by(threads)
            .map(|c| run(c, &mut state))
            .collect::<Vec<T>>()
    };
    if threads == 1 {
        return stride(0);
    }
    let mut strides: Vec<std::vec::IntoIter<T>> = std::thread::scope(|scope| {
        let stride = &stride;
        let handles: Vec<_> = (1..threads)
            .map(|first| scope.spawn(move || stride(first)))
            .collect();
        let mut strides = vec![stride(0).into_iter()];
        for handle in handles {
            // tpu-lint: allow(panic-policy) -- re-raises a worker panic; swallowing it would hide trial bugs
            strides.push(handle.join().expect("trial worker panicked").into_iter());
        }
        strides
    });
    // Round k takes the k-th result of every stride that has one:
    // chunks k·threads, k·threads + 1, ..., in chunk order.
    let mut out = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks.div_ceil(threads) {
        out.extend(strides.iter_mut().filter_map(Iterator::next));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|c| chunk_seed(42, c)).collect();
        let b: Vec<u64> = (0..64).map(|c| chunk_seed(42, c)).collect();
        assert_eq!(a, b);
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len(), "seeds must not collide");
        assert_ne!(chunk_seed(42, 0), chunk_seed(43, 0));
    }

    #[test]
    fn run_chunks_is_thread_count_invariant() {
        let work = |c: usize, state: &mut u64| {
            *state += 1; // scratch state is per-worker, not shared
            (c as u64) * 17 + 3
        };
        let reference = run_chunks(37, 1, || 0u64, work);
        for threads in [2, 3, 8, 64] {
            assert_eq!(run_chunks(37, threads, || 0u64, work), reference);
        }
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }
}
