//! The snapshot container: magic, version, CRC-validated section table.

use crate::codec::SectionReader;
use crate::error::CkptError;

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"PFCK";

/// Format version this build writes (and the only one it reads).
pub const FORMAT_VERSION: u32 = 1;

/// Hard cap on a single section's declared payload length (1 GiB). Real
/// snapshots in this repo are kilobytes to megabytes; the cap keeps a
/// corrupted-but-checksum-free length field from driving a huge allocation
/// before the bounds check fires.
const MAX_SECTION_LEN: u64 = 1 << 30;

/// Hard cap on the declared section count (decode-side sanity bound).
const MAX_SECTIONS: u32 = 4096;

const CRC_POLY: u32 = 0xEDB8_8320; // reflected IEEE 802.3 polynomial

/// Slice-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table, and
/// `CRC_TABLES[k][b]` advances `CRC_TABLES[k - 1][b]` over one more zero
/// byte, so eight lookups fold eight input bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = t[k - 1][i];
            t[k][i] = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE, as used by zip/gzip/PNG) of `bytes`, eight bytes per
/// step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let (chunks, tail) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
        let [x0, x1, x2, x3] = (c ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        c = t[7][x0 as usize]
            ^ t[6][x1 as usize]
            ^ t[5][x2 as usize]
            ^ t[4][x3 as usize]
            ^ t[3][b4 as usize]
            ^ t[2][b5 as usize]
            ^ t[1][b6 as usize]
            ^ t[0][b7 as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One section's table entry, as reported by [`Snapshot::section_infos`]
/// (the `pipefisher ckpt inspect` view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name.
    pub name: String,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Payload CRC32.
    pub crc32: u32,
}

/// An ordered set of named binary sections — the in-memory form of one
/// checkpoint file.
///
/// Section order is part of the byte format: encoding the same sections in
/// the same order always produces identical bytes, which is what lets the
/// golden-file test pin the format and the resume tests compare serial vs
/// pipelined checkpoints byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Appends a section.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already present (writer-side bug, not a decode
    /// condition).
    pub fn push_section(&mut self, name: impl Into<String>, payload: Vec<u8>) {
        let name = name.into();
        assert!(
            self.section(&name).is_none(),
            "duplicate checkpoint section '{name}'"
        );
        self.sections.push((name, payload));
    }

    /// The payload of `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// The payload of `name`, or [`CkptError::MissingSection`].
    pub fn require(&self, name: &str) -> Result<&[u8], CkptError> {
        self.section(name).ok_or_else(|| CkptError::MissingSection {
            section: name.to_string(),
        })
    }

    /// Iterates `(name, payload)` in file order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections
            .iter()
            .map(|(n, p)| (n.as_str(), p.as_slice()))
    }

    /// The section table as `inspect`-friendly rows (name, size, CRC).
    pub fn section_infos(&self) -> Vec<SectionInfo> {
        self.sections
            .iter()
            .map(|(name, payload)| SectionInfo {
                name: name.clone(),
                bytes: payload.len() as u64,
                crc32: crc32(payload),
            })
            .collect()
    }

    /// Serializes the snapshot to the on-disk byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        let table_crc = crc32(&out);
        out.extend_from_slice(&table_crc.to_le_bytes());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses and fully validates the on-disk byte format.
    ///
    /// # Errors
    ///
    /// Any deviation — short file, wrong magic, version skew, table or
    /// payload CRC mismatch, duplicate names, trailing bytes — returns the
    /// matching [`CkptError`]; no input can make this panic.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        let mut cur = SectionReader::new("header", bytes);
        let magic = cur.bytes(4)?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found[..magic.len()].copy_from_slice(magic);
            return Err(CkptError::BadMagic { found });
        }
        let version = cur.u32()?;
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        cur.section = "table";
        let count = cur.u32()?;
        if count > MAX_SECTIONS {
            return Err(CkptError::Malformed {
                detail: format!("section count {count} exceeds the {MAX_SECTIONS} cap"),
            });
        }
        let mut table: Vec<(String, u64, u32)> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let name_len = cur.u32()? as usize;
            if name_len > 4096 {
                return Err(CkptError::Malformed {
                    detail: format!("section {i} name length {name_len} exceeds the 4096 cap"),
                });
            }
            let name_bytes = cur.bytes(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| CkptError::Malformed {
                    detail: format!("section {i} name is not UTF-8"),
                })?
                .to_string();
            let payload_len = cur.u64()?;
            if payload_len > MAX_SECTION_LEN {
                return Err(CkptError::Malformed {
                    detail: format!(
                        "section '{name}' declares {payload_len} bytes, over the \
                         {MAX_SECTION_LEN}-byte cap"
                    ),
                });
            }
            let payload_crc = cur.u32()?;
            if table.iter().any(|(n, _, _)| *n == name) {
                return Err(CkptError::Malformed {
                    detail: format!("duplicate section name '{name}'"),
                });
            }
            table.push((name, payload_len, payload_crc));
        }
        let table_end = bytes.len() - cur.remaining();
        let stored_table_crc = cur.u32()?;
        let computed_table_crc = crc32(&bytes[..table_end]);
        if stored_table_crc != computed_table_crc {
            return Err(CkptError::BadTableChecksum {
                stored: stored_table_crc,
                computed: computed_table_crc,
            });
        }
        cur.section = "payloads";
        let mut sections = Vec::with_capacity(table.len());
        for (name, payload_len, payload_crc) in table {
            let payload = cur.bytes(payload_len as usize)?.to_vec();
            let computed = crc32(&payload);
            if computed != payload_crc {
                return Err(CkptError::BadSectionChecksum {
                    section: name,
                    stored: payload_crc,
                    computed,
                });
            }
            sections.push((name, payload));
        }
        cur.finish()?;
        Ok(Snapshot { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_byte_at_a_time_loop() {
        let bytewise = |bytes: &[u8]| {
            let mut c = !0u32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        let mut s = 0x0C7C_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let data: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for _ in 0..2000 {
            let (start, len) = (next() as usize % 8, next() as usize % 4096);
            let bytes = &data[start..start + len];
            assert_eq!(crc32(bytes), bytewise(bytes), "start {start}, len {len}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut s = Snapshot::new();
        s.push_section("meta", vec![1, 2, 3]);
        s.push_section("model", vec![]);
        s.push_section("rng", (0..255u8).collect());
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.require("meta").unwrap(), &[1, 2, 3]);
        assert!(back.section("absent").is_none());
        assert!(matches!(
            back.require("absent"),
            Err(CkptError::MissingSection { .. })
        ));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = Snapshot::new();
        let back = Snapshot::decode(&s.encode()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = Snapshot::new().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = Snapshot::new().encode();
        bytes[4] = 99;
        match Snapshot::decode(&bytes) {
            Err(CkptError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let mut s = Snapshot::new();
        s.push_section("a", vec![7; 32]);
        let bytes = s.encode();
        for cut in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CkptError::Truncated { .. }
                        | CkptError::BadMagic { .. }
                        | CkptError::BadTableChecksum { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn duplicate_section_names_are_rejected() {
        // Hand-build a table with a duplicated name; table CRC is made
        // valid so the duplicate check itself is exercised.
        let mut s = Snapshot::new();
        s.push_section("dup", vec![1]);
        let mut bytes = s.encode();
        // Rewrite count to 2 and duplicate the entry.
        let entry: Vec<u8> = {
            let name = b"dup";
            let mut e = Vec::new();
            e.extend_from_slice(&(name.len() as u32).to_le_bytes());
            e.extend_from_slice(name);
            e.extend_from_slice(&1u64.to_le_bytes());
            e.extend_from_slice(&crc32(&[1]).to_le_bytes());
            e
        };
        bytes.truncate(12); // magic + version + count
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&entry);
        bytes.extend_from_slice(&entry);
        let table_crc = crc32(&bytes);
        bytes.extend_from_slice(&table_crc.to_le_bytes());
        bytes.extend_from_slice(&[1, 1]);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::Malformed { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate checkpoint section")]
    fn push_duplicate_panics_writer_side() {
        let mut s = Snapshot::new();
        s.push_section("x", vec![]);
        s.push_section("x", vec![]);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut s = Snapshot::new();
        s.push_section("a", vec![5; 8]);
        let mut bytes = s.encode();
        bytes.push(0);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::Malformed { .. })
        ));
    }

    #[test]
    fn section_infos_report_sizes_and_crcs() {
        let mut s = Snapshot::new();
        s.push_section("meta", vec![9; 5]);
        let infos = s.section_infos();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].name, "meta");
        assert_eq!(infos[0].bytes, 5);
        assert_eq!(infos[0].crc32, crc32(&[9; 5]));
    }
}
