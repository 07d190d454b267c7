//! What machine the numbers come from, and how it behaved meanwhile.
//!
//! Three fixed calibration probes run before and after the measured
//! work: a pure-ALU loop, a memory sweep and a small-`read` loop over a
//! cached file (the operation the pcap reader's cost is made of). When
//! any probe moves by more than [`NOISE_LIMIT`] between the two, the
//! result is marked noisy: the machine changed under the run.
//!
//! A fourth, the [`Reference`] replay, runs between the timed
//! repetitions, and every timing is reported at the reference machine
//! speed: as measured, times [`REFERENCE_S`] over what the replay took
//! around that repetition. The machine this was built on (two cores of
//! a shared host) runs `backbone` in 0.78 s in one minute and in 1.28 s
//! in another, for minutes at a time; the replay slows with it.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::{obj, string, Value};

/// Relative probe drift beyond which a result is marked noisy.
pub const NOISE_LIMIT: f64 = 0.10;

/// What one [`Reference::replay`] takes on the machine at rest, seconds:
/// the speed every reported timing is scaled to. Measured on the 2-core
/// 2.1 GHz Xeon guest the benchmark was built on, in its quiet minutes.
pub const REFERENCE_S: f64 = 0.67;

/// The calibration load: a fixed stand-in for what `eleph run` does to
/// the machine, in the benchmark's own code, so it changes with the
/// machine and never with the program. It walks the generated capture
/// the way `PcapSource::new(File)` does (two unbuffered `read`s per
/// record) and looks every destination address up in a 64 MiB table, as
/// large as the frozen routing table's first stage: kernel entries, copies
/// and cache misses in about `eleph`'s own proportions.
pub struct Reference {
    capture: PathBuf,
    table: Vec<u32>,
}

impl Reference {
    /// A replay over `capture`, a little-endian pcap file of raw-IP
    /// records (the generated `bb.pcap`).
    pub fn new(capture: &Path) -> Reference {
        Reference {
            capture: capture.to_path_buf(),
            table: vec![1; 16 << 20],
        }
    }

    /// One pass over the capture; returns the seconds it took.
    pub fn replay(&self) -> std::io::Result<f64> {
        let started = Instant::now();
        let mut file = File::open(&self.capture)?;
        let mut header = [0u8; 24];
        file.read_exact(&mut header)?;
        let mut record = [0u8; 16];
        let mut packet = vec![0u8; 1 << 16];
        let mut sum = 0u64;
        while file.read(&mut record)? == record.len() {
            let caplen = u32::from_le_bytes([record[8], record[9], record[10], record[11]]);
            let packet = packet
                .get_mut(..caplen as usize)
                .ok_or_else(|| std::io::Error::other("reference replay: oversized record"))?;
            file.read_exact(packet)?;
            // The capture is raw IP: the destination address is bytes 16..20.
            let dst = packet
                .get(16..20)
                .map_or(0, |b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
            sum = sum.wrapping_add(u64::from(self.table[(dst >> 8) as usize]));
        }
        black_box(sum);
        Ok(started.elapsed().as_secs_f64())
    }
}

/// One set of probe readings.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// 50 M dependent multiply-xorshift steps, milliseconds.
    pub alu_ms: f64,
    /// Four sums over a 64 MiB array, milliseconds.
    pub memory_ms: f64,
    /// Nanoseconds per 16-byte `read` on a page-cached file.
    pub read16_ns: f64,
}

impl Probes {
    /// Run the three probes; `cached_file` is any file of at least a few
    /// megabytes that was just written or read.
    pub fn measure(cached_file: &Path) -> std::io::Result<Probes> {
        let started = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..50_000_000u32 {
            x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        black_box(x);
        let alu_ms = started.elapsed().as_secs_f64() * 1e3;

        let array = vec![1u64; 8 << 20];
        let started = Instant::now();
        for _ in 0..4 {
            black_box(
                black_box(&array)
                    .iter()
                    .fold(0u64, |a, &v| a.wrapping_add(v)),
            );
        }
        let memory_ms = started.elapsed().as_secs_f64() * 1e3;
        drop(array);

        let mut file = File::open(cached_file)?;
        let mut buf = [0u8; 16];
        let mut reads = 0u32;
        let started = Instant::now();
        while reads < 200_000 && file.read(&mut buf)? == buf.len() {
            reads += 1;
        }
        let read16_ns = started.elapsed().as_secs_f64() * 1e9 / f64::from(reads.max(1));

        Ok(Probes {
            alu_ms,
            memory_ms,
            read16_ns,
        })
    }

    /// Largest relative change of any probe from `self` to `after`.
    pub fn drift(&self, after: &Probes) -> f64 {
        [
            (self.alu_ms, after.alu_ms),
            (self.memory_ms, after.memory_ms),
            (self.read16_ns, after.read16_ns),
        ]
        .into_iter()
        .map(|(a, b)| (b - a).abs() / a)
        .fold(0.0, f64::max)
    }

    /// As a JSON object.
    pub fn to_json(self) -> Value {
        obj([
            ("alu_ms", Value::Num(self.alu_ms)),
            ("memory_ms", Value::Num(self.memory_ms)),
            ("read16_ns", Value::Num(self.read16_ns)),
        ])
    }
}

/// CPU model, core count, kernel and git revision, each `"unknown"` when
/// the machine does not say.
pub fn header(repo_root: &Path) -> Value {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // A checkout that is not a git repository has no revision to report.
    let revision = Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    obj([
        ("cpu", string(cpu)),
        ("cores", Value::Num(cores as f64)),
        ("kernel", string(kernel)),
        ("git_revision", string(revision)),
    ])
}
