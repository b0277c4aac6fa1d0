//! Process readings from `/proc`: peak resident set and run-queue wait.

/// `VmHWM` of this process in MB (the kernel's high-water mark of the
/// resident set), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(on-cpu ns, run-queue wait ns)` of the calling thread so far.
pub fn schedstat() -> Option<(f64, f64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(str::parse::<f64>);
    Some((it.next()?.ok()?, it.next()?.ok()?))
}

/// Share of the window between two `schedstat` readings the thread
/// spent runnable but not running: high on a box someone else is using.
/// `None` where the kernel keeps no such statistics.
pub fn runq_wait_frac(before: Option<(f64, f64)>, after: Option<(f64, f64)>) -> Option<f64> {
    let ((r0, w0), (r1, w1)) = (before?, after?);
    let window = (r1 - r0) + (w1 - w0);
    (window > 0.0).then(|| (w1 - w0) / window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_schedstat_shapes() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(runq_wait_frac(Some((0.0, 0.0)), Some((75.0, 25.0))), Some(0.25));
        assert_eq!(runq_wait_frac(None, Some((1.0, 1.0))), None);
        assert_eq!(runq_wait_frac(Some((5.0, 5.0)), Some((5.0, 5.0))), None);
    }
}
