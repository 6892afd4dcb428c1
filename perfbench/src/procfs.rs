//! Process CPU time, peak memory and host facts from Linux `/proc`.

use std::fs;

/// Clock ticks per second in `/proc/<pid>/stat` (Linux's fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of a `/proc/<pid>/stat` line, or `None`
/// when the line is malformed.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesized and may hold spaces or
    // parentheses, so fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in
/// MiB, or `None` when absent.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = words.next()?.parse().ok()?;
    match words.next() {
        Some("kB") => Some(kb as f64 / 1024.0),
        _ => None,
    }
}

/// Host-wide CPU steal seconds of a `/proc/stat` text: time the hypervisor
/// gave this machine's virtual CPUs to other guests while they had work.
pub fn parse_proc_stat_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / USER_HZ)
}

/// The first `model name` of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// This process's user plus system CPU seconds so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu_s(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_hwm_mb(&fs::read_to_string("/proc/self/status").ok()?)
}

/// Host-wide CPU steal seconds so far.
pub fn steal_seconds() -> Option<f64> {
    parse_proc_stat_steal_s(&fs::read_to_string("/proc/stat").ok()?)
}

/// The host CPU's model name.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench) R 1 4242 4242 0 -1 4194304 912 0 0 0 \
                        250 37 0 0 20 0 3 0 123456 104857600 2560 18446744073709551615";

    #[test]
    fn stat_cpu_time_sums_user_and_system_ticks() {
        assert_eq!(parse_stat_cpu_s(STAT), Some(2.87));
    }

    #[test]
    fn stat_tolerates_parentheses_in_the_command_name() {
        let odd = STAT.replace("(perf bench)", "(a) b (c))");
        assert_eq!(parse_stat_cpu_s(&odd), Some(2.87));
    }

    #[test]
    fn malformed_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_s("4242 perf R 1"), None);
        assert_eq!(parse_stat_cpu_s("4242 (perf) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_s(&STAT.replace(" 250 ", " x ")), None);
    }

    #[test]
    fn status_peak_rss_reads_vmhwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(200.0));
        assert_eq!(parse_status_hwm_mb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_status_hwm_mb("VmHWM:\t 1024 MB\n"), None);
    }

    #[test]
    fn proc_stat_steal_is_the_eighth_cpu_field() {
        let stat = "cpu  841990 0 13357 581762 596 0 862 34625 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_proc_stat_steal_s(stat), Some(346.25));
        assert_eq!(parse_proc_stat_steal_s("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat_steal_s("cpu  1 2 3\n"), None);
    }

    #[test]
    fn cpuinfo_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn live_process_reads_parse() {
        assert!(cpu_seconds().is_some());
        assert!(steal_seconds().is_some());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
