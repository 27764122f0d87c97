//! Facts about the machine and the process that a result is only
//! meaningful together with.

use std::path::Path;
use std::process::Command;

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_owned())
}

/// `rustc -V`, or "unknown".
pub fn rustc_version() -> String {
    first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// Commit of the tree being measured, or "unknown" outside a git checkout.
pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// File-system type holding `path`, from the longest matching mount point.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_dev, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
