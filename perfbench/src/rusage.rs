//! Process resource counters: CPU time, context switches and peak
//! resident memory.
//!
//! Read with `getrusage(RUSAGE_SELF)` rather than `/proc/self/status`:
//! the status file counts only the main thread's context switches, and
//! the switches this benchmark exists to expose happen on short-lived
//! kernel worker threads, whose counts `getrusage` folds in after they
//! exit. Hosts other than 64-bit Linux read every counter as 0.

/// A snapshot of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches, all threads (live and exited).
    pub vol_ctx: u64,
    /// Involuntary context switches, all threads (live and exited).
    pub invol_ctx: u64,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s (seconds and
    /// microseconds, both `long`) followed by fourteen `long` counters.
    #[repr(C)]
    #[derive(Default)]
    pub struct RUsage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub counters: [i64; 14],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

impl Usage {
    /// Reads the counters now.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> Usage {
        let mut ru = sys::RUsage::default();
        // SAFETY: `ru` is a live, exclusively borrowed value laid out as
        // the C `struct rusage` of this target (checked by the cfg above),
        // and `getrusage` writes only within it.
        let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) };
        if rc != 0 {
            return Usage::default();
        }
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        // Counter order: maxrss (KB), ixrss, idrss, isrss, minflt, majflt,
        // nswap, inblock, oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
        Usage {
            user_s: secs(ru.utime),
            sys_s: secs(ru.stime),
            vol_ctx: ru.counters[12] as u64,
            invol_ctx: ru.counters[13] as u64,
            peak_rss_mb: ru.counters[0] as f64 / 1024.0,
        }
    }

    /// Reads the counters now.
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> Usage {
        Usage::default()
    }

    /// Counter growth from `earlier` to `self`. Peak RSS is a high-water
    /// mark, not a counter, and keeps the later reading.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_ctx: self.vol_ctx.saturating_sub(earlier.vol_ctx),
            invol_ctx: self.invol_ctx.saturating_sub(earlier.invol_ctx),
            peak_rss_mb: self.peak_rss_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn counters_grow_with_work_and_thread_exits() {
        let before = Usage::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(std::thread::yield_now);
            }
        });
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let d = Usage::now().since(&before);
        assert!(d.user_s > 0.0);
        assert!(d.vol_ctx + d.invol_ctx > 0);
        assert!(d.peak_rss_mb > 0.0);
    }
}
