//! What the kernel reports about this process and its neighbours: the CPU
//! other processes used during a measured window (so a disturbed repeat can
//! be recognised and rerun) and the process's peak resident set.

use std::time::Instant;

/// Jiffies per second of `/proc` CPU counters. `USER_HZ` is 100 on every
/// Linux ABI the benchmark runs on.
const JIFFIES_PER_SEC: f64 = 100.0;

/// A repeat is disturbed when other processes used more than this share of
/// one core during its window.
pub const DISTURBED_FOREIGN_CPU_FRAC: f64 = 0.05;

/// Busy plus steal jiffies over all cores from `/proc/stat` text: every
/// field of the aggregate `cpu` line except idle and iowait (and the guest
/// fields, which user and nice already include).
pub fn machine_busy_jiffies(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    if fields.len() < 8 {
        return None;
    }
    Some(fields[0] + fields[1] + fields[2] + fields[5] + fields[6] + fields[7])
}

/// `utime + stime` jiffies from `/proc/<pid>/stat` text. The command name
/// may hold spaces and parentheses, so fields are counted from the last `)`.
pub fn process_jiffies(pid_stat: &str) -> Option<u64> {
    let rest = &pid_stat[pid_stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The share of one core that processes other than this one used, given the
/// machine-wide and own jiffies at both ends of a window of `secs` seconds.
/// Counter granularity can make the difference slightly negative; that is
/// reported as zero.
pub fn foreign_cpu_frac(machine: (u64, u64), own: (u64, u64), secs: f64) -> f64 {
    let machine_delta = machine.1.saturating_sub(machine.0);
    let own_delta = own.1.saturating_sub(own.0);
    if secs <= 0.0 {
        return 0.0;
    }
    machine_delta.saturating_sub(own_delta) as f64 / JIFFIES_PER_SEC / secs
}

/// An open foreign-CPU measurement over a window.
#[derive(Debug)]
pub struct ForeignCpu {
    machine: Option<u64>,
    own: Option<u64>,
    started: Instant,
}

fn read_counters() -> (Option<u64>, Option<u64>) {
    let machine = std::fs::read_to_string("/proc/stat").ok().and_then(|s| machine_busy_jiffies(&s));
    let own = std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| process_jiffies(&s));
    (machine, own)
}

impl ForeignCpu {
    /// Samples the counters at the start of a window.
    pub fn start() -> Self {
        let (machine, own) = read_counters();
        Self { machine, own, started: Instant::now() }
    }

    /// The foreign CPU share since [`ForeignCpu::start`]; zero where `/proc`
    /// is unavailable (the repeat is then never considered disturbed).
    pub fn finish(&self) -> f64 {
        let (machine, own) = read_counters();
        match (self.machine, machine, self.own, own) {
            (Some(m0), Some(m1), Some(o0), Some(o1)) => {
                foreign_cpu_frac((m0, m1), (o0, o1), self.started.elapsed().as_secs_f64())
            }
            _ => 0.0,
        }
    }
}

/// `VmHWM` (peak resident set) in MB from `/proc/<pid>/status` text.
pub fn peak_rss_mb_from(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MB (zero where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| peak_rss_mb_from(&s)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT_BEFORE: &str =
        "cpu  1000 10 500 90000 300 20 30 40 0 0\ncpu0 500 5 250 45000 150 10 15 20 0 0\nintr 1\n";
    const STAT_AFTER: &str = "cpu  1900 10 700 90900 300 20 30 50 0 0\ncpu0 900 5 350 45500 150 10 15 25 0 0\nintr 2\n";

    #[test]
    fn machine_busy_counts_everything_but_idle_and_iowait() {
        assert_eq!(machine_busy_jiffies(STAT_BEFORE), Some(1000 + 10 + 500 + 20 + 30 + 40));
        assert_eq!(machine_busy_jiffies("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(machine_busy_jiffies("cpu  1 2 3\n"), None);
    }

    #[test]
    fn process_jiffies_survive_awkward_command_names() {
        let stat = "4242 (htap (bench) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 777 223 0 0 20 0 3 0 100 1000 50 18446744073709551615";
        assert_eq!(process_jiffies(stat), Some(1000));
        assert_eq!(process_jiffies("no parenthesis"), None);
    }

    #[test]
    fn foreign_cpu_is_machine_minus_own_per_core_second() {
        let machine = (machine_busy_jiffies(STAT_BEFORE).unwrap(), machine_busy_jiffies(STAT_AFTER).unwrap());
        // 1110 busy+steal jiffies passed machine-wide; 1000 were ours.
        assert_eq!(machine.1 - machine.0, 1110);
        let frac = foreign_cpu_frac(machine, (5000, 6000), 10.0);
        assert!((frac - 0.11).abs() < 1e-12, "{frac}");
        assert!(frac > DISTURBED_FOREIGN_CPU_FRAC);
        // A quiet window: we account for every jiffy (and one more, by rounding).
        assert_eq!(foreign_cpu_frac(machine, (5000, 6111), 10.0), 0.0);
        assert_eq!(foreign_cpu_frac(machine, (0, 0), 0.0), 0.0);
    }

    #[test]
    fn peak_rss_reads_vmhwm_in_mb() {
        let status = "Name:\thtapbench\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t  400000 kB\n";
        assert_eq!(peak_rss_mb_from(status), Some(512.0));
        assert_eq!(peak_rss_mb_from("Name:\tx\n"), None);
    }
}
