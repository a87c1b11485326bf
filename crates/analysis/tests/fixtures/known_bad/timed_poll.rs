//! Known-bad fixture for the timed-poll lint. Expected findings: two — an
//! idle loop that wakes every 200 µs to look at a second queue, and a sleep
//! of 50 000 ns between two looks at a flag. The 5 ms receive is a real
//! timeout, the deadline wait has no literal to judge, and a duration that
//! nobody waits on is only a number: none of the three may be flagged.

pub fn idle(mailbox: &Receiver<Msg>, jobs: &Receiver<Job>) {
    loop {
        if let Ok(msg) = mailbox.recv_timeout(Duration::from_micros(200)) {
            handle(msg);
        }
        if let Ok(job) = jobs.try_recv() {
            run(job);
        }
    }
}

pub fn spin_until(done: &AtomicBool) {
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_nanos(50_000));
    }
}

pub fn patient(mailbox: &Receiver<Msg>, deadline: Instant) -> Option<Msg> {
    let first = mailbox.recv_timeout(Duration::from_micros(5_000)).ok();
    let backoff = Duration::from_micros(50);
    first.or_else(|| mailbox.recv_timeout(deadline - Instant::now()).ok()).filter(|_| !backoff.is_zero())
}
