//! The process-wide conditions the benchmark fixes, all to take the
//! machine's luck out of the numbers. What took effect is kept in
//! [`Conditions`] and goes into the report header and every run's notes.
//!
//! **Placement.** The program under test starts and runs with every CPU
//! of the box, so its defaults (refresh workers, HTTP pool) are those of
//! the box, and set-up, the event phase and recovery run that way: a
//! change in parallelism or lock contention shows in their metrics. Only
//! while a *polling* phase runs (quiet and closed) is every thread of the
//! process, the program's and the load threads', confined to the lowest
//! CPU. This is a two-CPU VM, and a wake-up that crosses its CPUs is an
//! interrupt through the host: it costs 25–50 µs, a request needs up to
//! four of them (client → reactor → worker → client), and the scheduler
//! decides afresh every few hundred milliseconds how many a request
//! meets. With every thread free, successive half-second slices of one
//! closed loop served between 13 400 and 29 300 requests per second;
//! confined, 30 100–34 500. Confined, a request is a chain of context
//! switches, so a hand-off the program adds or removes still costs or
//! saves one; what does not show is two requests served at the same time.
//!
//! **No halted CPU.** A CPU that halts is taken off its host CPU, and
//! waking it costs whatever the host's other tenants allow — usually
//! 100 µs, sometimes 50 ms. The open loops sleep until each due instant,
//! so every wake-up would be in the measured latency. One `SCHED_IDLE`
//! thread per CPU spins for the length of the run: it yields to every
//! other thread at once, but no CPU the run uses halts (in a polling phase
//! the spinners are confined with everything else, and the CPUs nothing
//! runs on may sleep).
//!
//! **Heap retention.** glibc gives freed memory back to the kernel and
//! maps large blocks afresh; in this VM a fresh page costs a fault into
//! the host, and the same cold refresh took 1.03–1.27 s depending on how
//! many it hit. With the heap kept, it took 1.01–1.05 s.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// A set of CPUs, a bit per CPU: room for 1024.
type CpuSet = [u64; 16];

/// Keeps freed memory in the process: no trimming, no per-block mmap, and
/// a quarter of a gigabyte of slack whenever the heap grows.
pub fn keep_heap() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only stores tuning values inside the allocator; it
    // is called once, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, i32::MAX);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 256 << 20);
    }
}

/// The CPUs this process was started with; empty when the kernel would
/// not say.
fn box_cpus() -> CpuSet {
    static CPUS: OnceLock<CpuSet> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 addresses the calling thread; the call writes at
        // most the size it is given into the live array.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) >= 0 };
        if ok {
            set
        } else {
            [0; 16]
        }
    })
}

/// `set` reduced to its lowest CPU.
fn lowest(set: &CpuSet) -> CpuSet {
    let mut one: CpuSet = [0; 16];
    if let Some(i) = set.iter().position(|word| *word != 0) {
        one[i] = set[i] & set[i].wrapping_neg();
    }
    one
}

/// What the benchmark asked of the machine and what it got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conditions {
    /// CPUs the process was started with (0 when the kernel would not
    /// say; nothing is confined then).
    pub nproc: usize,
    /// Whether every change of placement so far reached every thread.
    pub placed: bool,
    /// Idle-priority spinners running.
    pub spinners: usize,
}

static MISPLACED: AtomicBool = AtomicBool::new(false);
static SPINNERS: AtomicUsize = AtomicUsize::new(0);

/// The conditions as they are now.
pub fn conditions() -> Conditions {
    let nproc = box_cpus().iter().map(|w| w.count_ones() as usize).sum();
    Conditions {
        nproc,
        placed: nproc > 0 && !MISPLACED.load(Ordering::Relaxed),
        spinners: SPINNERS.load(Ordering::Relaxed),
    }
}

/// Confines every thread of the process to the lowest CPU of the box
/// (`true`, for a polling phase) or gives every thread the whole box back
/// (`false`). Threads spawned later inherit their parent's CPUs. A thread
/// the kernel refuses to move stays where it was, and [`conditions`] says
/// so from then on.
pub fn confine_polling(on: bool) {
    const ESRCH: i32 = 3;
    let all = box_cpus();
    let set = if on { lowest(&all) } else { all };
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        MISPLACED.store(true, Ordering::Relaxed);
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok())
    {
        // SAFETY: the call only reads the live array it is given the size
        // of.
        let moved =
            unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 };
        // A thread that exited since the listing is not a failure.
        if !moved && std::io::Error::last_os_error().raw_os_error() != Some(ESRCH) {
            MISPLACED.store(true, Ordering::Relaxed);
        }
    }
}

/// Lets the calling thread's sleeps end when asked. The kernel may end a
/// normal thread's sleep up to 50 µs late to batch wake-ups; an open
/// loop that sleeps until each due instant would carry that in every
/// latency it reports (a sleep of 200 µs overshot by 68 µs here, by 18 µs
/// with the slack removed).
pub fn sleep_exactly() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: the call stores one number, the slack in nanoseconds, in the
    // calling thread's task structure and touches no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// The spinning idle-priority threads; dropping them stops and joins
/// them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinner per CPU of the box. They are not pinned: the
    /// kernel spreads idle-priority threads over the CPUs that have
    /// nothing else to run. A spinner that cannot get the idle policy
    /// exits at once rather than compete with the run.
    pub fn start() -> Self {
        const SCHED_IDLE: i32 = 5;
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..conditions().nproc.max(1))
            .map(|_| {
                let stopped = stop.clone();
                std::thread::spawn(move || {
                    let priority = 0i32;
                    // SAFETY: pid 0 addresses the calling thread; the
                    // parameter points to a live i32, the whole of
                    // `struct sched_param`, which the call only reads.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
                        return;
                    }
                    SPINNERS.fetch_add(1, Ordering::Relaxed);
                    // No PAUSE in the loop: a hypervisor takes a vCPU that
                    // spins on PAUSE for a lock-waiter and yields its host
                    // CPU to another vCPU, which delays whatever wakes on
                    // this one next.
                    let mut turns = 0u64;
                    while !stopped.load(Ordering::Relaxed) {
                        turns = std::hint::black_box(turns.wrapping_add(1));
                    }
                    SPINNERS.fetch_sub(1, Ordering::Relaxed);
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_keeps_one_cpu_of_the_set() {
        let mut set: CpuSet = [0; 16];
        set[0] = 0b1100;
        set[2] = 1;
        let mut want: CpuSet = [0; 16];
        want[0] = 0b0100;
        assert_eq!(lowest(&set), want);
        set[0] = 0;
        want[0] = 0;
        want[2] = 1;
        assert_eq!(lowest(&set), want);
        assert_eq!(lowest(&[0; 16]), [0; 16]);
    }
}
