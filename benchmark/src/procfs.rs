//! Process CPU time and peak memory from `/proc/self`, parsed here so the
//! benchmark needs no libc binding.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") as f64 / TICKS_PER_SEC
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a running `agora-benchmark`, with the command name
    // edited to hold the characters that break naive field splitting.
    const STAT: &str = "71233 (agora bench) mark) R 71230 71233 71230 34816 71233 4194304 \
        9712 0 0 0 1234 56 0 0 20 0 1 0 105683422 48234496 8930 18446744073709551615 \
        94173437071360 94173438256977 140724837259568 0 0 0 0 4096 1088 0 0 0 17 1 0 0 0 0 0 \
        94173438723792 94173438752400 94173457588224 140724837263702 140724837263779 \
        140724837263779 140724837265384 0\n";

    const STATUS: &str = "Name:\tagora-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t   47104 kB\nVmSize:\t   47104 kB\nVmLck:\t       0 kB\n\
        VmHWM:\t   35720 kB\nVmRSS:\t   35720 kB\nThreads:\t1\n";

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_cpu_ticks(STAT), Some(1234 + 56));
        assert_eq!(parse_cpu_ticks("1 (x) R 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(35720));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
