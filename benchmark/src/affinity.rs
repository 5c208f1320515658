//! Every measured process runs on **one CPU**.
//!
//! The serving workloads hand each request through three or more threads.
//! On the 2-vCPU guest this benchmark is sized for, where the kernel puts
//! those threads has two stable answers: stacked on one CPU (every
//! hand-off a context switch) or spread over both (every hand-off a
//! cross-CPU wake-up, which in a guest is an interrupt through the host).
//! Which one a run got depended on what ran in the seconds before it, held
//! for the whole run, and moved `update_mix` reads between 107 and 165–225
//! µs with identical code; the spread placement is also the one that slows
//! 1.2–1.7× for minutes when the host is busy. Pinned, every run is the
//! stacked case, and `serve_hot8` is no slower for it (see
//! `results/README.md`). What this gives up is stated there too: no
//! end-to-end number here can show a multi-core speed-up.

/// A CPU set as `sched_getaffinity(2)` fills it: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes nothing
        // beyond `cpusetsize` bytes.
        let code = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (code == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of exactly the size passed, which
        // the call only reads; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// The lowest CPU in `set`.
fn lowest(set: &CpuSet) -> Option<usize> {
    set.iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// What [`pin_to_one_cpu`] did to the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// The CPUs the thread was allowed before and the one it is on now;
    /// `None` when it could not be pinned.
    narrowed: Option<(CpuSet, usize)>,
}

/// Pins the calling thread, and so every thread it spawns from now on, to
/// the lowest CPU it is allowed on. Call it before anything is spawned.
/// Where the platform has no such call or refuses it, the run goes ahead
/// unpinned and [`Pin::cpu`] says so.
pub fn pin_to_one_cpu() -> Pin {
    let narrowed = sys::get().and_then(|allowed| {
        let cpu = lowest(&allowed)?;
        sys::set(&only(cpu)).then_some((allowed, cpu))
    });
    Pin { narrowed }
}

impl Pin {
    /// The CPU the thread is pinned to, if it is.
    pub fn cpu(&self) -> Option<usize> {
        self.narrowed.map(|(_, cpu)| cpu)
    }

    /// Runs `work` with the calling thread back on every CPU it was allowed
    /// before, for the rungs that measure threading itself; threads `work`
    /// spawns inherit that.
    pub fn on_all_cpus<T>(&self, work: impl FnOnce() -> T) -> T {
        let Some((allowed, cpu)) = self.narrowed else {
            return work();
        };
        let widened = sys::set(&allowed);
        let result = work();
        if widened {
            sys::set(&only(cpu));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_cpu_of_a_set() {
        assert_eq!(lowest(&[0; 16]), None);
        assert_eq!(lowest(&only(0)), Some(0));
        assert_eq!(lowest(&only(70)), Some(70));
        let mut set = only(5);
        set[2] = 1;
        assert_eq!(lowest(&set), Some(5));
    }

    /// Runs on a thread of its own, so the pin dies with it.
    #[cfg(target_os = "linux")]
    #[test]
    fn pin_narrows_to_one_allowed_cpu_and_widening_restores() {
        std::thread::spawn(|| {
            let before = sys::get().expect("the calling thread has an affinity");
            let pin = pin_to_one_cpu();
            let cpu = pin.cpu().expect("a thread may narrow its own affinity");
            assert_eq!(sys::get(), Some(only(cpu)));
            assert_ne!(before[cpu / 64] & (1 << (cpu % 64)), 0);
            // A spawned thread inherits the pin.
            let child = std::thread::spawn(sys::get).join().expect("child ran");
            assert_eq!(child, Some(only(cpu)));
            assert_eq!(pin.on_all_cpus(sys::get), Some(before));
            assert_eq!(sys::get(), Some(only(cpu)));
        })
        .join()
        .expect("the pinning thread ran");
    }
}
