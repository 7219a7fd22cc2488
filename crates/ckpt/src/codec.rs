//! Primitive encoders/decoders for section payloads.
//!
//! Sections are flat byte streams written by [`SectionWriter`] and read back
//! by [`SectionReader`]. All integers are little-endian; `f64`s are written
//! as the little-endian bytes of their IEEE-754 bit pattern (`to_bits`), so
//! NaNs, signed zeros, and subnormals survive a round trip bit-for-bit.

use pipefisher_tensor::Matrix;

use crate::error::CkptError;

/// Appends primitives to a section payload.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty payload.
    pub fn new() -> SectionWriter {
        SectionWriter::default()
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte (enum tags, bool flags).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its little-endian bit pattern.
    pub fn f64_bits(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a matrix: `rows u64 | cols u64 | rows*cols f64 bit patterns`.
    /// The buffer grows once for all of it, then the values fill it in one
    /// pass.
    pub fn matrix(&mut self, m: &Matrix) {
        let data = m.as_slice();
        self.buf.reserve(16 + 8 * data.len());
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        let start = self.buf.len();
        self.buf.resize(start + 8 * data.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(8).zip(data) {
            out.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Writes an optional matrix as a presence byte plus the matrix.
    pub fn opt_matrix(&mut self, m: Option<&Matrix>) {
        match m {
            Some(m) => {
                self.u8(1);
                self.matrix(m);
            }
            None => self.u8(0),
        }
    }
}

/// Reads primitives back out of a section payload, bounds-checked.
///
/// Call [`SectionReader::finish`] after the last field: leftover bytes mean
/// the payload and the reader disagree about the schema, which is reported
/// as [`CkptError::Malformed`] instead of being silently ignored.
#[derive(Debug)]
pub struct SectionReader<'a> {
    /// Names the part being read in errors; `Snapshot::decode` renames it
    /// as it moves from the header to the table to the payloads.
    pub(crate) section: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Wraps a section payload. `section` names the section in errors.
    pub fn new(section: &'a str, bytes: &'a [u8]) -> SectionReader<'a> {
        SectionReader {
            section,
            bytes,
            pos: 0,
        }
    }

    /// Borrows the next `n` bytes, or reports the section truncated.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CkptError::Malformed {
                detail: format!("section '{}': length overflow", self.section),
            })?;
        if end > self.bytes.len() {
            return Err(CkptError::Truncated {
                context: format!("section '{}'", self.section),
                needed: end as u64,
                have: self.bytes.len() as u64,
            });
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(CkptError::Malformed {
                detail: format!(
                    "section '{}': string length {len} exceeds the 1 MiB cap",
                    self.section
                ),
            });
        }
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(|s| s.to_string())
            .map_err(|_| CkptError::Malformed {
                detail: format!("section '{}': string is not UTF-8", self.section),
            })
    }

    /// Reads a matrix written by [`SectionWriter::matrix`].
    pub fn matrix(&mut self) -> Result<Matrix, CkptError> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        let need = rows
            .checked_mul(cols)
            .and_then(|len| len.checked_mul(8))
            .ok_or_else(|| CkptError::Malformed {
                detail: format!(
                    "section '{}': matrix dims {rows}x{cols} overflow",
                    self.section
                ),
            })?;
        // The whole payload is bounds-checked before anything is allocated,
        // so a corrupted dim field can't drive a huge allocation.
        let payload = self.bytes(need)?;
        let data = payload
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Reads an optional matrix written by [`SectionWriter::opt_matrix`].
    pub fn opt_matrix(&mut self) -> Result<Option<Matrix>, CkptError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.matrix()?)),
            tag => Err(CkptError::Malformed {
                detail: format!(
                    "section '{}': invalid option tag {tag} (want 0 or 1)",
                    self.section
                ),
            }),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.pos != self.bytes.len() {
            return Err(CkptError::Malformed {
                detail: format!(
                    "section '{}': {} unread trailing bytes",
                    self.section,
                    self.bytes.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SectionWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64_bits(-0.0);
        w.str("layer.0.attn");
        let bytes = w.into_bytes();

        let mut r = SectionReader::new("t", &bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "layer.0.attn");
        r.finish().unwrap();
    }

    #[test]
    fn special_floats_round_trip_bitwise() {
        let specials = [
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001), // payloaded NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MAX,
        ];
        let mut w = SectionWriter::new();
        for &v in &specials {
            w.f64_bits(v);
        }
        let bytes = w.into_bytes();
        let mut r = SectionReader::new("f", &bytes);
        for &v in &specials {
            assert_eq!(r.f64_bits().unwrap().to_bits(), v.to_bits());
        }
        r.finish().unwrap();
    }

    #[test]
    fn matrices_round_trip_including_empty() {
        for (rows, cols) in [(0, 0), (0, 5), (3, 0), (1, 1), (4, 3)] {
            let m = Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols).map(|i| i as f64 * 0.5 - 1.0).collect(),
            );
            let mut w = SectionWriter::new();
            w.matrix(&m);
            w.opt_matrix(None);
            w.opt_matrix(Some(&m));
            let bytes = w.into_bytes();
            let mut r = SectionReader::new("m", &bytes);
            let back = r.matrix().unwrap();
            assert_eq!(back.shape(), m.shape());
            assert_eq!(back.as_slice(), m.as_slice());
            assert!(r.opt_matrix().unwrap().is_none());
            let opt = r.opt_matrix().unwrap().unwrap();
            assert_eq!(opt.as_slice(), m.as_slice());
            r.finish().unwrap();
        }
    }

    #[test]
    fn truncated_reads_error_without_panic() {
        let mut w = SectionWriter::new();
        w.matrix(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SectionReader::new("m", &bytes[..cut]);
            assert!(r.matrix().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn oversized_matrix_dims_are_rejected_before_allocation() {
        let mut w = SectionWriter::new();
        w.u64(u64::MAX); // rows
        w.u64(u64::MAX); // cols
        let bytes = w.into_bytes();
        let mut r = SectionReader::new("m", &bytes);
        assert!(r.matrix().is_err());

        let mut w = SectionWriter::new();
        w.u64(1 << 40); // plausible-looking but unsatisfiable
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new("m", &bytes);
        assert!(matches!(r.matrix(), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn bytes_borrow_the_payload_and_report_truncation() {
        let payload = [1u8, 2, 3, 4, 5];
        let mut r = SectionReader::new("b", &payload);
        let head = r.bytes(3).unwrap();
        assert_eq!(head, &[1, 2, 3]);
        assert_eq!(head.as_ptr(), payload.as_ptr(), "borrowed, not copied");
        assert!(matches!(r.bytes(3), Err(CkptError::Truncated { .. })));
        assert_eq!(r.bytes(2).unwrap(), &[4, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn leftover_bytes_fail_finish() {
        let mut w = SectionWriter::new();
        w.u32(1);
        w.u32(2);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new("x", &bytes);
        r.u32().unwrap();
        assert_eq!(r.remaining(), 4);
        assert!(matches!(r.finish(), Err(CkptError::Malformed { .. })));
    }

    #[test]
    fn invalid_option_tag_is_malformed() {
        let mut r = SectionReader::new("o", &[2]);
        assert!(matches!(r.opt_matrix(), Err(CkptError::Malformed { .. })));
    }
}
