//! The host environment a result was measured on.

use chronos_json::{obj, Value};

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The commit under test: `git rev-parse HEAD` where the source is a git
/// checkout, otherwise `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host cores, kernel, cgroup (v2, falling back to v1) cpu and memory
/// limits, commit and seed.
pub fn describe(seed: u64) -> Value {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpu_limit = read_trimmed("/sys/fs/cgroup/cpu.max").or_else(|| {
        let quota = read_trimmed("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?;
        let period = read_trimmed("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?;
        Some(format!("{quota} {period}"))
    });
    let memory_limit = read_trimmed("/sys/fs/cgroup/memory.max")
        .or_else(|| read_trimmed("/sys/fs/cgroup/memory/memory.limit_in_bytes"));
    obj! {
        "host_cores" => cores as i64,
        "kernel" => read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        "cgroup_cpu_max" => cpu_limit.unwrap_or_else(|| "unknown".into()),
        "cgroup_memory_max" => memory_limit.unwrap_or_else(|| "unknown".into()),
        "commit" => commit(),
        "seed" => seed as i64,
    }
}
