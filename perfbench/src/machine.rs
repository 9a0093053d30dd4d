//! What a result was measured on: the machine and code fingerprint, and
//! the process's own CPU time and peak memory (read from `/proc`).

use std::path::Path;
use std::process::Command;

/// The machine and code a result belongs to.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this machine and of the checkout in the
    /// current directory.  Anything unreadable is reported as `unknown`.
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| cpu_model(&text))
            .unwrap_or_else(unknown);
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(unknown);
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc,
            commit: git_commit(Path::new(".git")).unwrap_or_else(unknown),
        }
    }

    /// The fingerprint as a JSON object, together with the workload seed.
    pub fn to_json(&self, seed: u64) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\"seed\":{seed}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.commit)
        )
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// The number of processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first `model name` of a `/proc/cpuinfo` text.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// The commit checked out in the git directory `git_dir`, resolving a
/// symbolic `HEAD` through loose or packed refs.  `None` outside a git
/// checkout.
pub fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let loose = |name: &str| std::fs::read_to_string(git_dir.join(name)).ok();
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).unwrap_or_default();
    resolve_head(&head, loose, &packed)
}

/// Resolves the text of `HEAD` to a commit id: a detached id as is, a
/// `ref: <name>` through `loose(<name>)` or else the packed refs.
pub fn resolve_head(
    head: &str,
    loose: impl Fn(&str) -> Option<String>,
    packed_refs: &str,
) -> Option<String> {
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref:") else {
        return is_object_id(head).then(|| head.to_string());
    };
    let name = name.trim();
    let id = loose(name)
        .map(|text| text.trim().to_string())
        .or_else(|| {
            packed_refs.lines().find_map(|line| {
                let (id, refname) = line.split_once(' ')?;
                (refname.trim() == name).then(|| id.to_string())
            })
        })?;
    is_object_id(&id).then_some(id)
}

fn is_object_id(text: &str) -> bool {
    text.len() >= 40 && text.chars().all(|c| c.is_ascii_hexdigit())
}

/// CPU time this process has used so far, split into user and system
/// nanoseconds (all threads, from `/proc/self/stat`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    pub user_ns: u64,
    pub sys_ns: u64,
}

impl CpuTime {
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|text| parse_stat_cpu(&text))
            .unwrap_or_default()
    }

    /// CPU used since `earlier`.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_ns: self.user_ns.saturating_sub(earlier.user_ns),
            sys_ns: self.sys_ns.saturating_sub(earlier.sys_ns),
        }
    }

    pub fn total_ns(self) -> u64 {
        self.user_ns + self.sys_ns
    }
}

/// Linux reports `/proc` CPU times in units of `USER_HZ`, fixed at 100.
const NS_PER_TICK: u64 = 10_000_000;

/// `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name may contain spaces and parentheses, so fields are
/// counted after its closing parenthesis.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTime> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let user: u64 = fields.next()?.parse().ok()?;
    let sys: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_ns: user * NS_PER_TICK,
        sys_ns: sys * NS_PER_TICK,
    })
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    peak_rss_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// `VmHWM` of a `/proc/<pid>/status` text, in KiB.
pub fn peak_rss_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix("VmHWM:")?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// A JSON string literal for `text`.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: &str = "0123456789abcdef0123456789abcdef01234567";

    #[test]
    fn cpu_model_takes_the_first_model_name() {
        let text = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n\
                    processor\t: 1\nmodel name\t: other\n";
        assert_eq!(
            cpu_model(text).as_deref(),
            Some("Intel(R) Xeon(R) CPU @ 2.20GHz")
        );
        assert_eq!(cpu_model("processor : 0\n"), None);
    }

    #[test]
    fn head_resolves_detached_loose_and_packed() {
        let none = |_: &str| None;
        assert_eq!(resolve_head(ID, none, "").as_deref(), Some(ID));
        let loose = |name: &str| (name == "refs/heads/main").then(|| format!("{ID}\n"));
        assert_eq!(
            resolve_head("ref: refs/heads/main\n", loose, "").as_deref(),
            Some(ID)
        );
        let packed = format!("# pack-refs with: peeled\n{ID} refs/heads/main\n");
        assert_eq!(
            resolve_head("ref: refs/heads/main", none, &packed).as_deref(),
            Some(ID)
        );
        assert_eq!(resolve_head("ref: refs/heads/gone", none, &packed), None);
        assert_eq!(resolve_head("garbage", none, ""), None);
    }

    #[test]
    fn stat_cpu_counts_fields_after_the_command_name() {
        let stat = "4242 (bench (x) y) S 1 2 3 4 5 6 7 8 9 10 250 37 0 0 20 0";
        let cpu = parse_stat_cpu(stat).unwrap();
        assert_eq!(cpu.user_ns, 250 * NS_PER_TICK);
        assert_eq!(cpu.sys_ns, 37 * NS_PER_TICK);
        assert_eq!(cpu.since(CpuTime::default()).total_ns(), 287 * NS_PER_TICK);
        assert!(parse_stat_cpu("no parenthesis").is_none());
    }

    #[test]
    fn peak_rss_reads_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(peak_rss_kib(status), Some(2048));
        assert_eq!(peak_rss_kib("Name: x\n"), None);
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
