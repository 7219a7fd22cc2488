//! Crash-safe training-state snapshots (DESIGN.md §3.15).
//!
//! A checkpoint is a single binary file:
//!
//! ```text
//! magic "PFCK" | format version u32 | section count u32
//! per section: name len u32 | name bytes | payload len u64 | payload CRC32
//! table CRC32 (over everything above)
//! section payloads, contiguous, in table order
//! ```
//!
//! Every integer is little-endian; every `f64` is stored as the
//! little-endian bytes of its IEEE-754 bit pattern, so NaN payloads, signed
//! zeros, and subnormals round-trip *bitwise* — the property the repo's
//! resume-equivalence tests (`run(N) == run(k) → save → load → run(N−k)`)
//! are built on.
//!
//! Corruption anywhere in the file surfaces as a structured [`CkptError`]:
//! a flipped byte lands either in the header (bad magic / version), the
//! section table (table CRC), or a payload (section CRC); truncation is
//! caught by explicit bounds checks before any slice is taken. Decoding
//! never panics on untrusted bytes.
//!
//! Persistence is atomic: [`write_atomic`] writes to a temporary file in
//! the destination directory, syncs it, then renames it over the final
//! path, so a crash mid-write leaves either the old checkpoint or the new
//! one — never a torn file. [`CheckpointDir`] layers step-numbered
//! generations and retained-count pruning on top; [`list_generations`] and
//! [`latest_generation`] look a directory's generations up without creating
//! it.

mod codec;
mod error;
mod format;
mod store;

pub use codec::{SectionReader, SectionWriter};
pub use error::CkptError;
pub use format::{crc32, SectionInfo, Snapshot, FORMAT_VERSION, MAGIC};
pub use store::{latest_generation, list_generations, read_snapshot, write_atomic, CheckpointDir};
