//! The shared scoped thread pool of the OLAP host data path.
//!
//! Both the chunked query pipelines ([`crate::cpu::CpuOlapEngine`]) and the
//! parallel column materialisation ([`crate::operators::MaterializedColumns`])
//! run on the same harness: plain `std::thread::scope` workers over a fixed
//! work list, with results returned **in work-item order**. There is no
//! persistent pool to manage — a scope is cheap at chunk granularity — and
//! because every work item is deterministic and the caller consumes results
//! in index order, the thread schedule cannot perturb a single bit of the
//! f64 answers.

/// Upper bound on worker threads per query or materialisation; simulated
/// core counts above this stop translating into real threads (the host
/// machine has its own limits).
pub(crate) const MAX_PLAN_THREADS: usize = 32;

/// Worker threads to use for host-side materialisation work of `tasks`
/// independent items: the machine's available parallelism, capped by
/// [`MAX_PLAN_THREADS`] and by the task count. Unlike the query pipelines —
/// whose thread count tracks the archipelago's simulated core allotment —
/// materialisation is a pure host-side data copy, so it may use whatever the
/// host actually has.
pub(crate) fn host_threads(tasks: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_PLAN_THREADS).min(tasks.max(1))
}

/// Runs `eval` over chunk indexes `0..chunks` on a scoped pool of `threads`
/// workers (strided chunk assignment) and returns the results in ascending
/// chunk order — the execution harness the scan and plan pipelines share.
pub(crate) fn run_chunked<T: Send>(chunks: usize, threads: usize, eval: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 {
        return (0..chunks).map(eval).collect();
    }
    let mut lanes: Vec<std::vec::IntoIter<T>> = std::thread::scope(|scope| {
        let eval = &eval;
        let workers: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || (t..chunks).step_by(threads).map(eval).collect::<Vec<T>>()))
            .collect();
        workers.into_iter().map(|worker| join(worker).into_iter()).collect()
    });
    // Lane `t` holds chunks `t, t + threads, ..` in order, so taking one
    // result from each lane in turn yields every chunk in ascending order.
    (0..chunks).map_while(|i| lanes[i % threads].next()).collect()
}

/// Runs `work` over an owned task list on a scoped pool of `threads` workers
/// and returns the results **in task order**. Tasks are handed out as
/// contiguous runs (materialisation tasks of adjacent chunks walk adjacent
/// storage pages, so contiguity keeps each worker's page walk local), and
/// ownership moves into the worker — which is what lets a task carry an
/// exclusive `&mut` sub-slice of a shared output buffer.
pub(crate) fn run_tasks<T: Send, R: Send>(mut tasks: Vec<T>, threads: usize, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = threads.min(tasks.len().max(1));
    if threads <= 1 {
        return tasks.into_iter().map(work).collect();
    }
    let per_worker = tasks.len().div_ceil(threads);
    let mut groups: Vec<Vec<T>> = Vec::with_capacity(threads);
    while !tasks.is_empty() {
        let rest = tasks.split_off(per_worker.min(tasks.len()));
        groups.push(std::mem::replace(&mut tasks, rest));
    }
    std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = groups
            .into_iter()
            .map(|group| scope.spawn(move || group.into_iter().map(work).collect::<Vec<R>>()))
            .collect();
        workers.into_iter().flat_map(join).collect()
    })
}

/// Joins a worker, re-raising its panic on the coordinating thread with the
/// worker's own payload.
fn join<R>(worker: std::thread::ScopedJoinHandle<'_, R>) -> R {
    worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_chunked_preserves_chunk_order() {
        for threads in [1, 2, 5] {
            let out = run_chunked(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn run_tasks_preserves_task_order() {
        for threads in [1, 2, 7, 64] {
            let tasks: Vec<usize> = (0..37).collect();
            let out = run_tasks(tasks, threads, |t| t + 100);
            assert_eq!(out, (100..137).collect::<Vec<_>>(), "{threads} threads");
        }
        assert!(run_tasks(Vec::<usize>::new(), 4, |t| t).is_empty());
    }

    #[test]
    fn run_tasks_can_own_mutable_slices() {
        let mut buf = vec![0u32; 40];
        let tasks: Vec<(usize, &mut [u32])> = buf.chunks_mut(10).enumerate().collect();
        run_tasks(tasks, 4, |(i, slice)| {
            for (j, v) in slice.iter_mut().enumerate() {
                *v = (i * 10 + j) as u32;
            }
        });
        assert_eq!(buf, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn a_worker_panic_surfaces_with_its_own_payload() {
        let payload = |run: fn()| std::panic::catch_unwind(run).expect_err("the worker panic propagates");
        let chunk = payload(|| {
            run_chunked(8, 3, |i| if i == 5 { panic!("boom") } else { i });
        });
        assert_eq!(chunk.downcast_ref::<&str>(), Some(&"boom"));
        let task = payload(|| {
            run_tasks((0..8).collect(), 3, |i: usize| if i == 5 { panic!("boom") } else { i });
        });
        assert_eq!(task.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn host_threads_respects_bounds() {
        assert_eq!(host_threads(0), 1);
        assert!(host_threads(1_000) <= MAX_PLAN_THREADS);
        assert!(host_threads(2) <= 2);
        assert!(host_threads(1_000) >= 1);
    }
}
