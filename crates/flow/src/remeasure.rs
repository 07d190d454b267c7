//! The same traffic re-measured at another interval length, one row at
//! a time.
//!
//! [`Refine`] and [`Coarsen`] are row adapters: they take a link's
//! intervals in order, as sparse rows ascending by key, and hand the
//! re-measured intervals on as they complete — the paper's §II
//! interval-sensitivity protocol (one traffic process, several
//! discretisations) without regenerating the workload and without
//! holding either measurement whole. They sit on any walk of the rows:
//! a matrix's ([`crate::BandwidthMatrix::refine_each`],
//! [`crate::BandwidthMatrix::coarsen_each`]) or the generator's, as the
//! rows are produced. Each lends its rows from one buffer it reuses and
//! never hands on a zero rate.

use crate::KeyId;

/// Re-measures rows at `T / factor`: each interval splits into `factor`
/// sub-slots, a key's sub-rates being its rate times bounded mean-one
/// jitter (uniform in [0.75, 1.25), normalised so the sub-slots average
/// back to the parent rate — bytes are conserved per interval). The
/// jitter is a pure hash of `(seed, key, interval, slot)`:
/// deterministic, machine-independent, no RNG state.
///
/// Its scratch is sized by one parent row × `factor`.
#[derive(Debug)]
pub struct Refine {
    factor: usize,
    seed: u64,
    /// The next parent row's interval index.
    interval: u64,
    /// Key `i` of the parent row's jitter for sub-slot `j`, at
    /// `jitter[i * factor + j]`.
    jitter: Vec<f64>,
    /// Key `i`'s normaliser.
    norms: Vec<f64>,
    out: Vec<(KeyId, f32)>,
}

impl Refine {
    /// An adapter splitting each row into `factor` sub-slots, jittered
    /// under `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is zero.
    pub fn new(factor: usize, seed: u64) -> Self {
        assert!(factor >= 1, "refinement factor must be >= 1");
        Refine {
            factor,
            seed,
            interval: 0,
            jitter: Vec::new(),
            norms: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Take the next interval's row (ascending by key) and hand its
    /// `factor` sub-slot rows to `emit`, in order.
    pub fn push(&mut self, row: &[(KeyId, f32)], mut emit: impl FnMut(&[(KeyId, f32)])) {
        let (factor, n) = (self.factor, self.interval);
        self.interval += 1;
        self.jitter.clear();
        self.norms.clear();
        for &(key, _) in row {
            let mut sum = 0.0f64;
            for j in 0..factor {
                let h = split_hash(self.seed ^ (u64::from(key) << 32) ^ (n << 8) ^ j as u64);
                // 53 uniform bits → [0, 1) → bounded jitter [0.75, 1.25).
                let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let f = 0.75 + 0.5 * u;
                self.jitter.push(f);
                sum += f;
            }
            self.norms.push(factor as f64 / sum);
        }
        for j in 0..factor {
            for (i, &(key, rate)) in row.iter().enumerate() {
                let sub = (f64::from(rate) * self.jitter[i * factor + j] * self.norms[i]) as f32;
                // Keep the "zero = inactive" invariant for subnormal
                // parents whose jittered sub-rate rounds to 0.0.
                if sub > 0.0 {
                    self.out.push((key, sub));
                }
            }
            emit(&self.out);
            self.out.clear();
        }
    }
}

/// Re-measures rows at `T' = factor·T`: every `factor` consecutive rows
/// merge into one, each key's coarse rate being the time-average of its
/// fine rates (absent slots count as zero), so bytes are conserved
/// exactly. A trailing partial group, handed on by
/// [`Coarsen::finish`], still averages over the full coarse interval
/// length.
///
/// Its scratch is one f64 per key id seen and the open group's keys.
#[derive(Debug)]
pub struct Coarsen {
    factor: usize,
    /// Rows merged into the open group so far.
    filled: usize,
    /// Dense accumulator over key ids; zero outside the open group.
    acc: Vec<f64>,
    /// The open group's keys, in first-touch order.
    touched: Vec<KeyId>,
    out: Vec<(KeyId, f32)>,
}

impl Coarsen {
    /// An adapter merging every `factor` rows into one.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is zero.
    pub fn new(factor: usize) -> Self {
        assert!(factor >= 1, "coarsening factor must be >= 1");
        Coarsen {
            factor,
            filled: 0,
            acc: Vec::new(),
            touched: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Take the next interval's row; when it completes a group of
    /// `factor`, hand the merged row to `emit`.
    pub fn push(&mut self, row: &[(KeyId, f32)], emit: impl FnMut(&[(KeyId, f32)])) {
        for &(key, rate) in row {
            // Skip explicit zero-rate entries: they contribute nothing,
            // and the `acc == 0.0` first-touch sentinel below would
            // otherwise record the key twice.
            if rate == 0.0 {
                continue;
            }
            let k = key as usize;
            if k >= self.acc.len() {
                self.acc.resize(k + 1, 0.0);
            }
            if self.acc[k] == 0.0 {
                self.touched.push(key);
            }
            self.acc[k] += f64::from(rate);
        }
        self.filled += 1;
        if self.filled == self.factor {
            self.flush(emit);
        }
    }

    /// End the walk: hand on the trailing partial group, if rows are
    /// left in one.
    pub fn finish(mut self, emit: impl FnMut(&[(KeyId, f32)])) {
        if self.filled > 0 {
            self.flush(emit);
        }
    }

    fn flush(&mut self, mut emit: impl FnMut(&[(KeyId, f32)])) {
        let inv = 1.0 / self.factor as f64;
        self.touched.sort_unstable();
        for &key in &self.touched {
            let rate = (self.acc[key as usize] * inv) as f32;
            self.acc[key as usize] = 0.0;
            // A subnormal average can round to 0.0 in f32; keep the
            // "zero = inactive" invariant rather than handing it on.
            if rate > 0.0 {
                self.out.push((key, rate));
            }
        }
        self.touched.clear();
        self.filled = 0;
        emit(&self.out);
        self.out.clear();
    }
}

/// SplitMix64 finaliser: the stateless hash behind [`Refine`]'s jitter.
#[inline]
pub(crate) fn split_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
