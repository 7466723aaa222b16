//! The benchmark runs the program on one CPU.
//!
//! On the small shared VMs the benchmark is judged on, where a thread runs is
//! the largest source of run-to-run disagreement that is not the program.
//!
//! * A wake-up that crosses virtual CPUs costs an inter-processor interrupt
//!   (a VM exit) and often an idle exit on the far side, and whether the
//!   scheduler packs a mostly sleeping process onto one CPU or spreads it
//!   over two is decided once per process and then sticks. `wire_point` read
//!   p50 400 us and 80 us of CPU per request in the processes that happened
//!   to be packed, 510 us and 150 us in the ones spread, with nothing else
//!   different; `zipf_swap` 116-148 K op/s left to the scheduler and 215 K
//!   on one CPU; `train_hybrid` 24 or 27 us of CPU per anchor at the same
//!   speed, depending on where the compute pool's worker had settled.
//! * A neighbour on the host slows one virtual CPU at a time. A workload
//!   that keeps both busy needs both undisturbed at once to read its true
//!   speed, which in a bad hour no half second offers: ten runs of
//!   `wire_burst` and `wide_batch` on two CPUs spread by 8-24 %.
//!
//! So [`confine_to_one_cpu`] puts the whole process - clients, server,
//! listener, compute pool - on one CPU before anything starts. Seen from
//! inside, the program is on a one-CPU machine: `available_parallelism` is 1,
//! so the listener starts one acceptor and the compute pool no workers. What
//! the benchmark then measures is what the program costs - CPU per operation,
//! wake-ups, system calls, copies - and not how well it spreads over cores;
//! `train_hybrid` was no faster on two virtual CPUs than on one (41 K against
//! 44 K anchors/s), the two large-model serving workloads about 1.5 times.
//!
//! Linux only; elsewhere every call reports failure and threads stay where
//! the scheduler puts them.

/// Bits in the CPU mask handed to the kernel (glibc's `cpu_set_t` size).
const MASK_BITS: usize = 1024;
type Mask = [u64; MASK_BITS / 64];

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use super::Mask;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut Mask) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const Mask) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; super::MASK_BITS / 64];
        // SAFETY: the C library's wrapper (std already links it); pid 0 is
        // the calling thread; it writes at most `cpusetsize` bytes through
        // the pointer, which points at a live, writable `Mask` of exactly
        // that size, and retains nothing.
        let status = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut mask) };
        (status == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: as above; the kernel only reads `cpusetsize` bytes from the
        // pointer, which points at a live `Mask` of exactly that size.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask) == 0 }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use super::Mask;
    pub fn get() -> Option<Mask> {
        None
    }
    pub fn set(_: &Mask) -> bool {
        false
    }
}

/// The CPUs the calling thread may run on, ascending; empty when unknown.
pub fn allowed_cpus() -> Vec<usize> {
    let Some(mask) = sys::get() else { return Vec::new() };
    (0..MASK_BITS).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restrict the calling thread to `cpus`; threads it spawns afterwards
/// inherit the restriction. Returns whether the kernel accepted it.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask: Mask = [0; MASK_BITS / 64];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_BITS) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    !cpus.is_empty() && sys::set(&mask)
}

/// Restrict the calling thread, and so every thread started from it
/// afterwards, to the highest-numbered CPU it is allowed (away from CPU 0,
/// where a VM's device interrupts land). Returns that CPU; `None` where the
/// kernel refuses or cannot be asked, and the run goes on unpinned.
pub fn confine_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    pin_current_thread(&[cpu]).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_and_is_inherited() {
        let before = allowed_cpus();
        let Some(&last) = before.last() else { return };
        // On its own thread, so the test runner's thread keeps its CPUs.
        std::thread::spawn(move || {
            assert_eq!(confine_to_one_cpu(), Some(last));
            assert_eq!(allowed_cpus(), vec![last]);
            assert_eq!(std::thread::available_parallelism().map(|n| n.get()).ok(), Some(1));
            let child = std::thread::spawn(allowed_cpus).join().expect("child thread");
            assert_eq!(child, vec![last], "a spawned thread inherits the mask");
            assert!(!pin_current_thread(&[]), "an empty set is refused");
        })
        .join()
        .expect("pinned thread");
        assert_eq!(allowed_cpus(), before);
    }
}
