//! The one bounds-checked reader of the little-endian images this
//! workspace writes: the pipeline's checkpoint payload and the sketch
//! payloads inside it.

/// Reads fixed-width little-endian fields off a byte slice, failing —
/// never panicking — on a short slice, a length prefix larger than the
/// bytes that remain, or bytes left over at the end. Errors are
/// messages that name the bytes being read (`what`, e.g. `"payload"`).
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    at: usize,
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `data`, which its messages call `what`.
    pub fn new(data: &'a [u8], what: &'static str) -> Self {
        ByteReader { data, at: 0, what }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| format!("{} shorter than declared", self.what))?;
        let slice = &self.data[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u64` length prefix, sanity-bounded by the bytes remaining
    /// (each element needs at least `min_elem` bytes) so a corrupt
    /// count cannot trigger a huge allocation before the read fails.
    pub fn count(&mut self, min_elem: usize, what: &str) -> Result<usize, String> {
        let n = self.u64()?;
        let remaining = (self.data.len() - self.at) as u64;
        if n.saturating_mul(min_elem as u64) > remaining {
            return Err(format!("{what} count {n} exceeds remaining payload"));
        }
        Ok(n as usize)
    }

    /// Bytes read so far.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Every byte has been read.
    pub fn end(&self) -> Result<(), String> {
        if self.at != self.data.len() {
            return Err(format!(
                "{} bytes of trailing {}",
                self.data.len() - self.at,
                self.what
            ));
        }
        Ok(())
    }
}
