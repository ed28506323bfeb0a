//! Host fingerprint and process/host counters read from `/proc`.

/// CPU model name from `/proc/cpuinfo` (`"unknown"` when absent).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Current `(steal, total)` host jiffies; zeros when unreadable.
pub fn host_jiffies() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat").ok().and_then(|t| parse_proc_stat(&t)).unwrap_or((0, 0))
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Host steal share up to which a measurement interval counts as quiet.
/// Steal is time the hypervisor gave this machine's CPUs to other guests;
/// on a shared host it comes in bursts that can slow a run by half. A serve
/// window runs on until `quota` of its slices are quiet (within a cap),
/// and its figures use the `quota` least-stolen slices.
pub const QUIET_STEAL: f64 = 0.02;

/// Indices, ascending, of the `quota` measurements with the least steal
/// (earlier first on ties).
pub fn least_stolen(steal: &[f64], quota: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    idx.truncate(quota);
    idx.sort_unstable();
    idx
}

/// Kernel clock ticks per second for `/proc/self/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/self/stat` line.
fn parse_self_stat(text: &str) -> Option<f64> {
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state(3) ... utime is field 14, stime 15 of the full line.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds this process has used so far.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|t| parse_self_stat(&t)).unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_steal_and_total() {
        let text = "cpu  100 5 50 800 10 1 2 30 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_proc_stat(text), Some((30, 998)));
        assert_eq!(steal_share((30, 998), (40, 1098)), 0.1);
        assert_eq!(steal_share((30, 998), (30, 998)), 0.0);
    }

    #[test]
    fn the_least_stolen_measurements_are_kept() {
        assert_eq!(least_stolen(&[0.2, 0.0, 0.05, 0.0, 0.3], 3), vec![1, 2, 3]);
        assert_eq!(least_stolen(&[0.1, 0.1], 1), vec![0]);
        assert_eq!(least_stolen(&[0.1], 4), vec![0]);
    }

    #[test]
    fn self_stat_cpu_seconds_survive_spaces_in_the_name() {
        let text = "4242 (e2e bench) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_self_stat(text), Some(3.0));
    }
}
