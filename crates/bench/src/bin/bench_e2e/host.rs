//! What the run can learn about its host and its own memory from `/proc`.

use std::fs;

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where `/proc` does
/// not say.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the peak-RSS counter so `peak_rss_mib` covers only what follows;
/// false when the kernel refuses.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cache sizes as `/sys` reports them for cpu0, e.g. `L1d 32K, L2 2048K`.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{suffix} {size}"));
    }
    if out.is_empty() {
        "unreported".to_string()
    } else {
        out.join(", ")
    }
}

/// `rustc --version` of the toolchain on the path, or `unknown`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The host record every result file carries, as a JSON object.
pub fn record_json(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"T\":{threads},\"rustc\":\"{}\",\"caches\":\"{}\"}}",
        rustc_version().replace(['"', '\\'], ""),
        cache_sizes().replace(['"', '\\'], "")
    )
}
