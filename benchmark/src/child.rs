//! Run one child process to completion and measure it from outside:
//! wall time from spawn to exit, user + system CPU and peak resident
//! set from the `rusage` the kernel hands to `wait4`.
//!
//! The measuring is done by a wrapper process, this same executable
//! started as `eleph-benchmark __measure …`. On exec Linux folds the
//! *spawning* process's peak resident set into the child's `ru_maxrss`,
//! so a child spawned straight from the harness, which holds the ledger
//! and has held a routing table, would never report less than the
//! harness's own peak. The wrapper is a fresh process of a few MiB, so
//! the floor it imposes is below anything `eleph` does.
//!
//! [`OneCpu`] confines the harness, and so the children it spawns
//! meanwhile, to one processor.

use std::fs::File;
use std::io;
use std::mem::size_of_val;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// First argument that selects the wrapper role.
pub const MEASURE_ARG: &str = "__measure";

/// What one child run cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// User + system CPU, seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mib: f64,
    /// Exit code (`None` when killed by a signal).
    pub exit_code: Option<i32>,
}

/// Run `program args…` in `cwd` with stdout and stderr redirected to the
/// given files, wait for it, and report what it cost. The child's
/// environment is the harness's plus `envs`.
pub fn run(
    program: &Path,
    args: &[String],
    cwd: &Path,
    envs: &[(&str, &Path)],
    stdout: &Path,
    stderr: &Path,
) -> io::Result<Usage> {
    let mut wrapper = Command::new(std::env::current_exe()?);
    wrapper.arg(MEASURE_ARG).arg(cwd).arg(stdout).arg(stderr);
    for (key, value) in envs {
        wrapper.arg(format!("{key}={}", value.display()));
    }
    wrapper
        .arg("--")
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = wrapper.output()?;
    let line = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<&str> = line.split_whitespace().collect();
    let number = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (
        output.status.success(),
        number(0),
        number(1),
        number(2),
        fields.get(3),
    ) {
        (true, Some(wall_s), Some(cpu_s), Some(peak_rss_mib), Some(code)) => Ok(Usage {
            wall_s,
            cpu_s,
            peak_rss_mib,
            exit_code: code.parse().ok(),
        }),
        _ => Err(io::Error::other(format!(
            "measuring wrapper failed: {line:?}"
        ))),
    }
}

/// The wrapper role: `__measure CWD STDOUT STDERR [KEY=VALUE…] -- PROGRAM
/// [ARG…]`. Prints `wall_s cpu_s peak_rss_mib exit_code` (`signal` for
/// the last when the child was killed).
pub fn measure_main(args: &[String]) -> io::Result<()> {
    let usage = || io::Error::other("usage: __measure CWD STDOUT STDERR [K=V…] -- PROGRAM [ARG…]");
    let [cwd, stdout, stderr, rest @ ..] = args else {
        return Err(usage());
    };
    let split = rest.iter().position(|a| a == "--").ok_or_else(usage)?;
    let (envs, command) = (&rest[..split], &rest[split + 1..]);
    let (program, program_args) = command.split_first().ok_or_else(usage)?;

    let mut child = Command::new(program);
    child
        .args(program_args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?);
    for pair in envs {
        let (key, value) = pair.split_once('=').ok_or_else(usage)?;
        child.env(key, value);
    }
    let started = Instant::now();
    let child = child.spawn()?;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut rusage = Rusage::default();
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through
    // the two pointers, both of which point at live, correctly sized and
    // aligned locals (`Rusage` mirrors the 64-bit Linux layout: 144
    // bytes). `pid` is a child this function just spawned and nobody
    // else waits for: `child` is never waited on or killed through std.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut rusage) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(io::Error::last_os_error());
    }
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    // WIFEXITED: the low seven bits are zero; WEXITSTATUS: the next byte.
    let exit = if status & 0x7f == 0 {
        ((status >> 8) & 0xff).to_string()
    } else {
        "signal".to_string()
    };
    println!(
        "{wall_s} {} {} {exit}",
        secs(rusage.utime) + secs(rusage.stime),
        rusage.maxrss as f64 / 1024.0,
    );
    Ok(())
}

/// While one of these lives, the calling thread and every process it
/// spawns may run on a single processor only: the last one the thread
/// was allowed. A program that starts as many threads as it finds
/// processors then runs one, and its wall time does not depend on where
/// the scheduler puts a second. Dropping it restores the previous mask.
pub struct OneCpu {
    previous: [u64; 16],
}

impl OneCpu {
    /// Confine the calling thread from now until the value is dropped.
    pub fn confine() -> io::Result<OneCpu> {
        let mut previous = [0u64; 16];
        // SAFETY: the call is given the size of `previous` in bytes and a
        // pointer to it, and writes at most that many bytes. Pid 0 is the
        // calling thread.
        if unsafe { sched_getaffinity(0, size_of_val(&previous), previous.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let (word, bits) = previous
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &bits)| bits != 0)
            .ok_or_else(|| io::Error::other("no processor in the affinity mask"))?;
        let mut one = [0u64; 16];
        one[word] = 1 << (63 - bits.leading_zeros());
        set_affinity(&one)?;
        Ok(OneCpu { previous })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // The mask was this thread's own a moment ago: setting it back
        // fails only if the processors went away meanwhile, and then the
        // narrower mask is the one to keep.
        let _ = set_affinity(&self.previous);
    }
}

fn set_affinity(mask: &[u64; 16]) -> io::Result<()> {
    // SAFETY: the call is given the size of `mask` in bytes and a pointer
    // to it, and reads at most that many bytes. Pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size_of_val(mask), mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

// The declarations below are the 64-bit Linux ABI, where `ru_maxrss` is in
// KiB. Elsewhere (32-bit `long`s, or macOS, which counts bytes) they would
// compile and report wrong figures, or let the kernel write past the struct.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("eleph-benchmark measures children through 64-bit Linux's wait4 and rusage");

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s,
/// of which only `ru_maxrss` (KiB) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `wait4` writes a whole `struct rusage`: ours must be as large.
    #[test]
    fn rusage_has_the_kernel_s_size() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
        assert_eq!(std::mem::size_of::<Timeval>(), 16);
    }

    /// Confined, a thread finds one processor; released, as many as before.
    #[test]
    fn one_cpu_confines_and_restores() {
        let processors = || std::thread::available_parallelism().unwrap().get();
        let before = processors();
        let confined = OneCpu::confine().unwrap();
        assert_eq!(processors(), 1);
        drop(confined);
        assert_eq!(processors(), before);
    }
}
