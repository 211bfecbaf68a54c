//! Resource use of the server child, read from `/proc/<pid>/status` and
//! `/proc/<pid>/stat`.

use std::io;

/// Clock ticks per second of `utime`/`stime` (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SECOND: u64 = 100;

/// Peak resident set size (`VmHWM`) in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// User plus system CPU time in clock ticks. The command name (field 2) sits in
/// parentheses and may itself hold spaces and `)`, so fields are counted from the
/// *last* `)`: `utime` and `stime` are the 12th and 13th fields after it.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    pub peak_rss_kb: u64,
    pub cpu_us: u64,
}

pub fn sample(pid: u32) -> io::Result<Sample> {
    let bad = |what| io::Error::new(io::ErrorKind::InvalidData, what);
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    Ok(Sample {
        peak_rss_kb: parse_vm_hwm_kb(&status).ok_or_else(|| bad("no VmHWM line"))?,
        cpu_us: parse_cpu_ticks(&stat).ok_or_else(|| bad("malformed stat"))? * 1_000_000
            / TICKS_PER_SECOND,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tkpg_server\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  120000 kB\nVmSize:\t  110000 kB\nVmHWM:\t   54321 kB\nVmRSS:\t   50000 kB\n\
        Threads:\t4\n";

    #[test]
    fn reads_vm_hwm() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(54321));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn reads_cpu_ticks_past_a_hostile_comm() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt majflt
        // cmajflt utime stime cutime cstime ...
        let plain = "4242 (kpg_server) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                     250 75 0 0 20 0 4 0 100 0 0";
        assert_eq!(parse_cpu_ticks(plain), Some(325));
        // A command name with spaces and a `)` shifts every naive whitespace field.
        let hostile = "4242 (kpg) server ) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                       250 75 0 0 20 0 4 0 100 0 0";
        assert_eq!(parse_cpu_ticks(hostile), Some(325));
        let naive: u64 = hostile
            .split_whitespace()
            .nth(13)
            .unwrap()
            .parse()
            .unwrap_or(0);
        assert_ne!(naive, 250);
        assert_eq!(parse_cpu_ticks("4242 (truncated"), None);
    }

    #[test]
    fn samples_this_process() {
        let sample = sample(std::process::id()).unwrap();
        assert!(sample.peak_rss_kb > 0);
    }
}
