//! `spade-store` — a versioned, checksummed, **single-file binary snapshot**
//! of the Spade offline state, loaded zero-copy.
//!
//! The paper's architecture splits work into an offline phase (ingestion,
//! RDFS saturation, summarization, offline attribute analysis) and an online
//! exploration phase. This crate makes the offline phase run **once**: its
//! entire output — the term [`Dictionary`], the [`Graph`] triple columns with
//! their property/subject/type indexes (saturation included, since the graph
//! is snapshotted *after* saturation), and the offline per-property
//! statistics — is written to one file and reconstituted without re-parsing,
//! re-interning, or re-sorting anything.
//!
//! # On-disk layout
//!
//! All multi-byte integers are **little-endian**; an endianness marker in the
//! header rejects foreign files instead of misreading them. The file is
//!
//! ```text
//! header ‖ section table ‖ payload
//! ```
//!
//! **Header** — 48 bytes:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `b"SPADESNP"` |
//! | 8      | 4    | endianness marker `0x0A0B0C0D` |
//! | 12     | 4    | format version (currently [`VERSION`]) |
//! | 16     | 8    | total file length in bytes |
//! | 24     | 8    | checksum of bytes `[48, file length)` (FxHash64 ⊕ length) |
//! | 32     | 8    | number of section-table entries |
//! | 40     | 8    | reserved, 0 |
//!
//! **Section table** — one 24-byte entry per section: `kind: u32`,
//! `reserved: u32`, `offset: u64` (absolute, **8-byte aligned**),
//! `len: u64` (bytes, unpadded). Entries with unknown kinds are ignored, so
//! future versions can add sections without breaking old readers.
//!
//! **Payload** — the sections, 8-byte aligned (zero-padded between), with
//! these kinds:
//!
//! | kind | name | content |
//! |-----:|------|---------|
//! | 1  | `META`        | `[n_terms, n_triples, rdf_type id, n_stats]` as u64 |
//! | 2  | `DICT_ENDS`   | u64 end offset of each term's canonical encoding |
//! | 3  | `DICT_BLOB`   | UTF-8 canonical term encodings, concatenated |
//! | 4  | `TRIPLES`     | u32 × 3·n_triples: `(s, p, o)` ids, insertion order |
//! | 5  | `PROP_KEYS`   | u32 property ids, strictly increasing |
//! | 6  | `PROP_OFFS`   | u32 CSR offsets (entries, `n_keys + 1` values) |
//! | 7  | `PROP_PAIRS`  | u32 × 2·entries: `(s, o)` per property |
//! | 8  | `SUBJ_KEYS`   | u32 subject ids, strictly increasing |
//! | 9  | `SUBJ_OFFS`   | u32 CSR offsets |
//! | 10 | `SUBJ_PAIRS`  | u32 × 2·entries: `(p, o)` per subject |
//! | 11 | `TYPE_KEYS`   | u32 class ids, strictly increasing |
//! | 12 | `TYPE_OFFS`   | u32 CSR offsets |
//! | 13 | `TYPE_VALS`   | u32 × entries: typed subjects per class |
//! | 14 | `STATS`       | u64 × 11 per property-statistics record |
//!
//! The alignment guarantee is what makes the load zero-copy: the whole file
//! is backed by **one 8-byte-aligned image** — either an owned heap buffer
//! or a read-only memory mapping (see below) — and every fixed-width
//! column is reinterpreted in place (`&[u8]` → `&[u32]`/`&[u64]`, alignment
//! and length checked, no decode pass), while variable-width term text is
//! borrowed by offset out of `DICT_BLOB`. Reconstituting the in-memory
//! [`Graph`] then costs one linear pass per column — no N-Triples parsing,
//! no hashing per occurrence, no sorting.
//!
//! # Memory-mapped opens
//!
//! [`Snapshot::open`] maps the file read-only (`mmap(2)`, `PROT_READ` +
//! `MAP_PRIVATE`) instead of copying it into an owned buffer, so opening
//! costs no allocation proportional to the file and N daemons (or N graphs
//! in one daemon) serving the same snapshot share a single page-cache copy.
//! The borrowed column views are identical in both representations — the
//! mapping starts page-aligned, which satisfies every 8-byte section
//! alignment the in-place `&[u32]`/`&[u64]` views require — and both paths
//! are selectable via [`Snapshot::open_with`] / [`OpenMode`]
//! ([`Snapshot::from_bytes`] always copies, so tests and in-memory tooling
//! keep the heap path).
//!
//! **Lifetime.** The mapping lives exactly as long as the [`Snapshot`]
//! value: views borrow from `&Snapshot`, so the borrow checker pins the
//! mapping for as long as any view exists, and `Drop` unmaps. A consumer
//! that materializes its state (e.g. `OfflineState`) may additionally call
//! [`Snapshot::release_resident_pages`] (`madvise(MADV_DONTNEED)`) after
//! loading: the pages leave the process RSS immediately and fault back in
//! from the page cache (or disk) on the next access — valid because the
//! mapping is read-only and file-backed, so no dirty state can be lost.
//!
//! **Safety argument.** Mapped memory is only sound to expose as `&[u8]`
//! if nobody mutates the file under the mapping. Snapshots are published
//! with [`write_snapshot`]'s write-then-rename protocol and never modified
//! in place: a refresh writes a *new* inode and renames it over the path,
//! which leaves the old inode — the one this mapping pins — untouched
//! until the last reader closes it. External truncation of a mapped file
//! is outside the contract (as with any mmap consumer, a `SIGBUS` on a
//! page past EOF cannot be caught in safe Rust); the reader bounds every
//! access to the validated header length, verifies the checksum over the
//! whole declared range at open (with `MADV_SEQUENTIAL` readahead, so the
//! pass streams at disk bandwidth), and never reads past it.
//!
//! # Integrity
//!
//! Every load validates magic, endianness, version, length, and checksum
//! before trusting a single payload byte, and every structural invariant
//! (section bounds and alignment, offset monotonicity, id ranges, CSR entry
//! counts) afterwards. All failures are typed [`SnapshotError`]s — a
//! corrupted or truncated file can never panic the loader, in either open
//! mode.
//!
//! Two items are public only for the corruption suite
//! (`tests/corruption.rs`), which forges images that must fail each check
//! in turn: [`VERSION`] and [`update_checksum`] (re-seal a patched image so
//! a later check, not the checksum, rejects it). Two more are public only
//! for this crate's suites: [`Snapshot::from_bytes`] (the in-memory image
//! path of the corruption and round-trip suites) and
//! [`Snapshot::open_with`] with [`OpenMode`] (the corruption suite checks
//! both open modes).

use spade_rdf::dict::{FxHashMap, FxHashSet};
use spade_rdf::{Dictionary, Graph, TermId, Triple};
use std::io::Read;
use std::path::{Path, PathBuf};

/// The 8-byte file magic.
pub(crate) const MAGIC: [u8; 8] = *b"SPADESNP";

/// The current format version.
pub const VERSION: u32 = 1;

const ENDIAN_MARK: u32 = 0x0A0B_0C0D;
const HEADER_LEN: usize = 48;
const TABLE_ENTRY_LEN: usize = 24;

const SEC_META: u32 = 1;
const SEC_DICT_ENDS: u32 = 2;
const SEC_DICT_BLOB: u32 = 3;
const SEC_TRIPLES: u32 = 4;
const SEC_PROP_KEYS: u32 = 5;
const SEC_PROP_OFFS: u32 = 6;
const SEC_PROP_PAIRS: u32 = 7;
const SEC_SUBJ_KEYS: u32 = 8;
const SEC_SUBJ_OFFS: u32 = 9;
const SEC_SUBJ_PAIRS: u32 = 10;
const SEC_TYPE_KEYS: u32 = 11;
const SEC_TYPE_OFFS: u32 = 12;
const SEC_TYPE_VALS: u32 = 13;
const SEC_STATS: u32 = 14;

const META_WORDS: usize = 4;
const STATS_RECORD_WORDS: usize = 11;

/// Everything that can go wrong opening or loading a snapshot. Corruption is
/// always reported through one of these — never a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file is shorter than its header claims (or than a header at all).
    Truncated {
        /// Bytes the file should at least contain.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The magic bytes are not `MAGIC` — not a snapshot file.
    BadMagic,
    /// The file was written on a platform of the opposite endianness.
    BadEndianness,
    /// The format version is not supported by this reader.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The stored checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the file.
        computed: u64,
    },
    /// The file passed the integrity checks but a structural invariant does
    /// not hold (bad section table, offsets, id ranges, encodings, …).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Truncated { expected, actual } => {
                write!(f, "snapshot truncated: expected {expected} bytes, found {actual}")
            }
            SnapshotError::BadMagic => write!(f, "not a Spade snapshot (bad magic)"),
            SnapshotError::BadEndianness => {
                write!(f, "snapshot written with the opposite byte order")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported snapshot version {found} (reader supports {supported})")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header says {stored:#018x}, file hashes to \
                 {computed:#018x}"
            ),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn malformed(message: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(message.into())
}

/// Independent-hash chunk size of the checksum — small enough that even a
/// few-MB snapshot fans out over all cores.
const CHECKSUM_CHUNK: usize = 1 << 20;

/// The FxHash multiplier. This — and [`Fx64`] below — is a deliberate,
/// **frozen** copy of the FxHash64 recurrence: the on-disk checksum must
/// never change meaning, so the store owns its hash instead of linking the
/// format to `spade_rdf::dict::FxHasher` (an interning perf knob that is
/// free to evolve independently).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// The frozen single-lane FxHash64 state used for checksum tails and folds.
struct Fx64(u64);

impl Fx64 {
    fn new() -> Self {
        Fx64(0)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.0 = fx_mix(self.0, u64::from_le_bytes(chunk.try_into().expect("8-byte word")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.0 = fx_mix(self.0, u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = fx_mix(self.0, v);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FxHash64 over one chunk, computed in **four independent lanes** over
/// 32-byte blocks (the single-lane recurrence is latency-bound — four
/// dependency chains let the CPU overlap the multiplies), folded with the
/// tail and the chunk length.
fn hash_chunk(chunk: &[u8]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut blocks = chunk.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fx_mix(*lane, u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
    }
    let mut tail = Fx64::new();
    tail.write(blocks.remainder());
    tail.write_u64(chunk.len() as u64);
    let mut h = lanes[0];
    for fold in [lanes[1], lanes[2], lanes[3], tail.finish()] {
        h = fx_mix(h, fold);
    }
    h
}

/// Chunked checksum: every [`CHECKSUM_CHUNK`] block hashes independently —
/// so verification of large snapshots fans out over `threads` workers —
/// and the per-chunk hashes plus the total length fold into the final
/// value. The result is identical for every thread count (chunk boundaries
/// depend only on the data); small inputs skip the fan-out entirely, since
/// spawning workers would cost more than the hash.
fn checksum(bytes: &[u8], threads: usize) -> u64 {
    let hashes: Vec<u64> = if bytes.len() <= 8 * CHECKSUM_CHUNK {
        bytes.chunks(CHECKSUM_CHUNK).map(hash_chunk).collect()
    } else {
        spade_parallel::map(bytes.chunks(CHECKSUM_CHUNK).collect(), threads, hash_chunk)
    };
    let mut h = Fx64::new();
    for &x in &hashes {
        h.write_u64(x);
    }
    h.write_u64(bytes.len() as u64);
    h.finish()
}

/// Recomputes and patches the header checksum of an in-memory snapshot
/// image. Tooling that edits sections in place uses this to re-seal the
/// file; the corruption tests use it to craft images whose *structure* is
/// bad while the checksum is good. Images shorter than a header are left
/// untouched.
pub fn update_checksum(bytes: &mut [u8]) {
    if bytes.len() >= HEADER_LEN {
        // Hash exactly what the reader will verify: up to the declared file
        // length, ignoring any trailing bytes beyond it (which the reader
        // ignores too). An out-of-range declared length falls back to the
        // whole buffer.
        let declared = usize::try_from(read_u64(bytes, 16)).unwrap_or(usize::MAX);
        let end = declared.clamp(HEADER_LEN, bytes.len());
        let sum = checksum(&bytes[HEADER_LEN..end], 1);
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
    }
}

// ——————————————————————— aligned owned buffer ———————————————————————

/// An owned byte buffer whose storage is 8-byte aligned (it is a `Vec<u64>`
/// underneath), so any section at an 8-aligned file offset can be
/// reinterpreted as `&[u32]` / `&[u64]` in place.
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn zeroed(len: usize) -> Self {
        AlignedBuf { words: vec![0u64; len.div_ceil(8)], len }
    }

    fn copy_from(bytes: &[u8]) -> Self {
        let mut buf = Self::zeroed(bytes.len());
        buf.bytes_mut().copy_from_slice(bytes);
        buf
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: the Vec<u64> owns at least `len` initialized bytes, and
        // u8 has no alignment requirement.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as above, and we hold `&mut self`.
        unsafe {
            std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len)
        }
    }
}

// ——————————————————————— memory-mapped image ———————————————————————

/// A minimal `mmap(2)` wrapper over the C library std already links —
/// the same dependency-free idiom as the daemon's signal handling — gated
/// to 64-bit unix, where `off_t` is `i64` and `usize` holds any file size
/// we accept. Everything else falls back to the heap read path.
#[cfg(all(unix, target_pointer_width = "64"))]
mod mmap {
    use std::ffi::c_void;
    use std::os::unix::io::AsRawFd;

    // Prot/flag/advice values shared by Linux and the BSD family (macOS).
    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_SEQUENTIAL: i32 = 2;
    const MADV_DONTNEED: i32 = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    /// A read-only, private, file-backed mapping. The mapped inode stays
    /// alive for the lifetime of this value even if the path is renamed
    /// over or unlinked (the snapshot publication protocol guarantees the
    /// bytes under it never change — see the crate docs' safety argument).
    pub(crate) struct Mmap {
        ptr: std::ptr::NonNull<c_void>,
        len: usize,
    }

    // SAFETY: the mapping is immutable shared memory owned by this value;
    // no thread affinity is involved in reading or unmapping it.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only. `len` must be non-zero
        /// (zero-length mappings are an `EINVAL`; callers route empty
        /// files through the heap path).
        pub(crate) fn map(file: &std::fs::File, len: usize) -> std::io::Result<Mmap> {
            debug_assert!(len > 0, "zero-length mappings are rejected by mmap");
            // SAFETY: a fresh PROT_READ | MAP_PRIVATE mapping of a file we
            // own a handle to; the kernel checks fd validity and rejects
            // impossible lengths. A MAP_FAILED return is handled below.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            match std::ptr::NonNull::new(ptr) {
                Some(ptr) => Ok(Mmap { ptr, len }),
                None => Err(std::io::Error::other("mmap returned NULL")),
            }
        }

        pub(crate) fn bytes(&self) -> &[u8] {
            // SAFETY: the mapping covers `len` readable bytes for as long
            // as this value lives, and the backing inode is immutable.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().cast::<u8>(), self.len) }
        }

        fn advise(&self, advice: i32) {
            // SAFETY: advising our own mapping; madvise is a hint — any
            // failure is deliberately ignored (the mapping stays valid).
            unsafe {
                madvise(self.ptr.as_ptr(), self.len, advice);
            }
        }

        /// Hints sequential access — turns the checksum pass into a
        /// readahead-friendly linear stream.
        pub(crate) fn advise_sequential(&self) {
            self.advise(MADV_SEQUENTIAL);
        }

        /// Drops the resident pages of the mapping (they fault back in
        /// from the page cache or disk on next access — safe for a
        /// read-only file-backed mapping, which holds no dirty state).
        pub(crate) fn release_resident(&self) {
            self.advise(MADV_DONTNEED);
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region this value owns, once.
            unsafe {
                munmap(self.ptr.as_ptr(), self.len);
            }
        }
    }
}

/// The storage backing a validated snapshot: an owned aligned heap buffer
/// (in-memory images, platforms without mmap) or a read-only file mapping.
/// Both hand out the same `&[u8]`, so every accessor above it is
/// representation-blind.
enum SnapshotImage {
    Heap(AlignedBuf),
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mmap::Mmap),
}

impl SnapshotImage {
    fn bytes(&self) -> &[u8] {
        match self {
            SnapshotImage::Heap(buf) => buf.bytes(),
            #[cfg(all(unix, target_pointer_width = "64"))]
            SnapshotImage::Mapped(map) => map.bytes(),
        }
    }
}

/// How [`Snapshot::open_with`] backs the image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpenMode {
    /// Memory-map the file read-only (the [`Snapshot::open`] default).
    /// Falls back to [`OpenMode::Read`] on platforms without the mapping
    /// wrapper, for empty files, and when the `mmap` call itself fails.
    #[default]
    Mmap,
    /// Read the whole file into one owned aligned buffer (the pre-mmap
    /// behavior; costs an O(file) copy and a resident heap buffer).
    Read,
}

/// Reinterprets `bytes` as a `&[u32]` in place (little-endian files on a
/// little-endian host — enforced by the header's endianness marker).
fn view_u32<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u32], SnapshotError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(malformed(format!("{what}: length {} not a multiple of 4", bytes.len())));
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>()) {
        return Err(malformed(format!("{what}: misaligned section")));
    }
    // SAFETY: alignment and length verified; u32 permits any bit pattern;
    // the lifetime stays tied to `bytes`.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) })
}

/// Reinterprets `bytes` as a `&[u64]` in place.
fn view_u64<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u64], SnapshotError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(malformed(format!("{what}: length {} not a multiple of 8", bytes.len())));
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u64>()) {
        return Err(malformed(format!("{what}: misaligned section")));
    }
    // SAFETY: as in `view_u32`.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) })
}

// ——————————————————————— offline statistics records ———————————————————————

/// One property's offline statistics, in the plain fixed-width form the
/// snapshot persists (11 u64 words per record). `spade-core` converts these
/// to and from its richer `PropertyStats`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PropertyStatsRecord {
    /// The property.
    pub property: TermId,
    /// Number of `(s, o)` pairs.
    pub triples: u64,
    /// Distinct subjects carrying the property.
    pub subjects: u64,
    /// Distinct object values.
    pub distinct_values: u64,
    /// Subjects with more than one value.
    pub multi_valued_subjects: u64,
    /// Values with a numeric interpretation.
    pub numeric_values: u64,
    /// Object values that are resources with outgoing edges.
    pub link_values: u64,
    /// Values that look like free text.
    pub text_values: u64,
    /// Min/max over numeric values, if any.
    pub numeric_bounds: Option<(f64, f64)>,
}

impl PropertyStatsRecord {
    fn to_words(self, out: &mut Vec<u64>) {
        let (has, lo, hi) = match self.numeric_bounds {
            Some((lo, hi)) => (1, lo.to_bits(), hi.to_bits()),
            None => (0, 0, 0),
        };
        out.extend_from_slice(&[
            u64::from(self.property.0),
            self.triples,
            self.subjects,
            self.distinct_values,
            self.multi_valued_subjects,
            self.numeric_values,
            self.link_values,
            self.text_values,
            has,
            lo,
            hi,
        ]);
    }

    fn from_words(w: &[u64]) -> Result<Self, SnapshotError> {
        let property = u32::try_from(w[0])
            .map_err(|_| malformed(format!("stats record property id {} overflows", w[0])))?;
        let numeric_bounds = match w[8] {
            0 => None,
            1 => Some((f64::from_bits(w[9]), f64::from_bits(w[10]))),
            other => return Err(malformed(format!("stats record bounds flag {other}"))),
        };
        Ok(PropertyStatsRecord {
            property: TermId(property),
            triples: w[1],
            subjects: w[2],
            distinct_values: w[3],
            multi_valued_subjects: w[4],
            numeric_values: w[5],
            link_values: w[6],
            text_values: w[7],
            numeric_bounds,
        })
    }
}

// ——————————————————————— writer ———————————————————————

#[derive(Default)]
struct SectionWriter {
    payload: Vec<u8>,
    table: Vec<(u32, u64, u64)>, // kind, payload-relative offset, byte length
}

impl SectionWriter {
    /// Aligns the payload, records the table entry for a `len`-byte
    /// section, and reserves room; the caller then appends exactly `len`
    /// bytes (columns stream straight into the payload — no per-section
    /// staging buffer).
    fn begin(&mut self, kind: u32, len: usize) {
        while !self.payload.len().is_multiple_of(8) {
            self.payload.push(0);
        }
        self.table.push((kind, self.payload.len() as u64, len as u64));
        self.payload.reserve(len);
    }

    fn bytes(&mut self, kind: u32, data: &[u8]) {
        self.begin(kind, data.len());
        self.payload.extend_from_slice(data);
    }

    fn u32s(&mut self, kind: u32, data: &[u32]) {
        self.begin(kind, data.len() * 4);
        for v in data {
            self.payload.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn u64s(&mut self, kind: u32, data: &[u64]) {
        self.begin(kind, data.len() * 8);
        for v in data {
            self.payload.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn finish(self) -> Vec<u8> {
        let base = HEADER_LEN + self.table.len() * TABLE_ENTRY_LEN;
        debug_assert_eq!(base % 8, 0, "payload must start 8-aligned");
        let file_len = base + self.payload.len();
        let mut out = Vec::with_capacity(file_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&ENDIAN_MARK.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(file_len as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below
        out.extend_from_slice(&(self.table.len() as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // reserved
        for (kind, offset, len) in &self.table {
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&(base as u64 + offset).to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&self.payload);
        update_checksum(&mut out);
        out
    }
}

/// Serializes the complete offline state to an in-memory snapshot image.
/// Section contents are emitted in deterministic order (index keys sorted by
/// id), so the same state always produces byte-identical files.
pub fn snapshot_bytes(graph: &Graph, stats: &[PropertyStatsRecord]) -> Vec<u8> {
    let mut w = SectionWriter::default();
    w.u64s(
        SEC_META,
        &[
            graph.dict.len() as u64,
            graph.len() as u64,
            u64::from(graph.rdf_type_id().0),
            stats.len() as u64,
        ],
    );

    let parts = graph.dict.to_parts();
    w.u64s(SEC_DICT_ENDS, &parts.ends);
    w.bytes(SEC_DICT_BLOB, parts.blob.as_bytes());

    let mut tri = Vec::with_capacity(graph.len() * 3);
    for t in graph.triples() {
        tri.extend_from_slice(&[t.s.0, t.p.0, t.o.0]);
    }
    w.u32s(SEC_TRIPLES, &tri);

    write_csr(
        &mut w,
        [SEC_PROP_KEYS, SEC_PROP_OFFS, SEC_PROP_PAIRS],
        graph.properties().collect(),
        2,
        |p, out| {
            for &(s, o) in graph.property_pairs(p) {
                out.extend_from_slice(&[s.0, o.0]);
            }
        },
    );
    write_csr(
        &mut w,
        [SEC_SUBJ_KEYS, SEC_SUBJ_OFFS, SEC_SUBJ_PAIRS],
        graph.subjects().collect(),
        2,
        |s, out| {
            for &(p, o) in graph.outgoing(s) {
                out.extend_from_slice(&[p.0, o.0]);
            }
        },
    );
    write_csr(
        &mut w,
        [SEC_TYPE_KEYS, SEC_TYPE_OFFS, SEC_TYPE_VALS],
        graph.classes().collect(),
        1,
        |c, out| {
            for &s in graph.type_extent_raw(c) {
                out.push(s.0);
            }
        },
    );

    let mut words = Vec::with_capacity(stats.len() * STATS_RECORD_WORDS);
    for record in stats {
        record.to_words(&mut words);
    }
    w.u64s(SEC_STATS, &words);
    w.finish()
}

/// Emits one CSR index as its three sections: sorted keys, entry offsets,
/// flattened values. `emit` appends each key's u32 values; the offsets
/// array counts *entries* (the per-key value count divided by the uniform
/// stride), which the reader re-derives from the value section length.
fn write_csr(
    w: &mut SectionWriter,
    kinds: [u32; 3],
    mut keys: Vec<TermId>,
    stride: usize,
    emit: impl Fn(TermId, &mut Vec<u32>),
) {
    keys.sort_unstable();
    let mut vals: Vec<u32> = Vec::new();
    let mut offs: Vec<u32> = Vec::with_capacity(keys.len() + 1);
    offs.push(0);
    for &k in &keys {
        emit(k, &mut vals);
        debug_assert_eq!(vals.len() % stride, 0, "emit must append whole entries");
        offs.push(u32::try_from(vals.len() / stride).expect("index exceeds 2^32 entries"));
    }
    let raw_keys: Vec<u32> = keys.iter().map(|k| k.0).collect();
    w.u32s(kinds[0], &raw_keys);
    w.u32s(kinds[1], &offs);
    w.u32s(kinds[2], &vals);
}

/// Writes the snapshot of `graph` + `stats` to `path` (see
/// [`snapshot_bytes`] for the format).
pub fn write_snapshot(
    path: impl AsRef<Path>,
    graph: &Graph,
    stats: &[PropertyStatsRecord],
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    // Write-then-rename, so refreshing an existing snapshot is atomic: a
    // crash or full disk mid-write leaves the previous good file intact.
    // The temp name carries a process id *and* a per-call counter, so
    // concurrent writers never share a temp file.
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".{}.{}.tmp", std::process::id(), seq));
    let tmp = PathBuf::from(tmp_name);
    let publish = (|| {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&snapshot_bytes(graph, stats))?;
        // Flush to stable storage *before* the rename commits, so a power
        // loss cannot replace the old snapshot with a torn new one.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = publish {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    Ok(())
}

// ——————————————————————— reader ———————————————————————

/// The metadata section of a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SnapshotMeta {
    /// Interned terms.
    pub n_terms: u64,
    /// Stored (deduplicated, saturated) triples.
    pub n_triples: u64,
    /// The id of `rdf:type` in the stored dictionary.
    pub rdf_type: u64,
    /// Stored property-statistics records.
    pub n_stats: u64,
}

/// A validated snapshot: one aligned image (owned buffer or read-only
/// mapping — see `SnapshotImage`'s two faces behind [`OpenMode`]) plus
/// the section table. All accessors are **zero-copy views** into that
/// image; call [`Snapshot::load`] to reconstitute the in-memory offline
/// state.
pub struct Snapshot {
    image: SnapshotImage,
    sections: Vec<(u32, usize, usize)>, // kind, offset, len
    /// One-time UTF-8 validation of `DICT_BLOB`, so later reads of the
    /// blob do not revalidate it.
    blob_utf8: std::sync::OnceLock<Result<(), String>>,
}

/// The reconstituted offline state of a snapshot.
pub struct LoadedSnapshot {
    /// The saturated graph (dictionary, triples, indexes).
    pub graph: Graph,
    /// The offline per-property statistics.
    pub stats: Vec<PropertyStatsRecord>,
}

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("caller bounds-checked"))
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("caller bounds-checked"))
}

impl Snapshot {
    /// Opens and validates the snapshot at `path` in the default
    /// [`OpenMode`] (memory-mapped where supported). Header, length, and
    /// checksum (verified over `threads` workers, `0` = auto) are checked
    /// before any payload byte is interpreted — in the mapped case the
    /// checksum pass runs behind `MADV_SEQUENTIAL` readahead.
    pub fn open(path: impl AsRef<Path>, threads: usize) -> Result<Snapshot, SnapshotError> {
        Self::open_with(path, threads, OpenMode::default())
    }

    /// [`Snapshot::open`] with an explicit backing choice; benchmarks and
    /// tests use this to compare the two paths on the same file.
    pub fn open_with(
        path: impl AsRef<Path>,
        threads: usize,
        mode: OpenMode,
    ) -> Result<Snapshot, SnapshotError> {
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| malformed("file too large for this platform"))?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        if mode == OpenMode::Mmap && len > 0 {
            if let Ok(map) = mmap::Mmap::map(&file, len) {
                map.advise_sequential();
                return Self::parse(SnapshotImage::Mapped(map), threads);
            }
            // An mmap failure (exotic filesystem, exhausted mappings) is
            // not fatal: the heap read below serves the same bytes.
        }
        let _ = mode;
        let mut buf = AlignedBuf::zeroed(len);
        file.read_exact(buf.bytes_mut())?;
        Self::parse(SnapshotImage::Heap(buf), threads)
    }

    /// Validates an in-memory snapshot image (copied into aligned storage
    /// — always the heap representation).
    pub fn from_bytes(bytes: &[u8], threads: usize) -> Result<Snapshot, SnapshotError> {
        Self::parse(SnapshotImage::Heap(AlignedBuf::copy_from(bytes)), threads)
    }

    /// Whether the image is a file mapping (as opposed to an owned buffer).
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            matches!(self.image, SnapshotImage::Mapped(_))
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            false
        }
    }

    /// Bytes backing the image (the file size for opened snapshots).
    pub fn image_len(&self) -> usize {
        self.image.bytes().len()
    }

    /// Drops the resident pages of a mapped image (`madvise(MADV_DONTNEED)`)
    /// so they stop counting against this process's RSS; they fault back in
    /// transparently on the next access. No-op for heap images. Callers that
    /// fully materialize the state (e.g. after [`Snapshot::load`]) use this
    /// so holding the snapshot open costs address space, not memory.
    pub fn release_resident_pages(&self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let SnapshotImage::Mapped(map) = &self.image {
            map.release_resident();
        }
    }

    fn parse(image: SnapshotImage, threads: usize) -> Result<Snapshot, SnapshotError> {
        let b = image.bytes();
        if b.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                expected: HEADER_LEN as u64,
                actual: b.len() as u64,
            });
        }
        if b[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if read_u32(b, 8) != ENDIAN_MARK {
            return Err(SnapshotError::BadEndianness);
        }
        let version = read_u32(b, 12);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let file_len = read_u64(b, 16);
        if file_len < HEADER_LEN as u64 {
            return Err(malformed(format!("header claims impossible length {file_len}")));
        }
        if (b.len() as u64) < file_len {
            return Err(SnapshotError::Truncated {
                expected: file_len,
                actual: b.len() as u64,
            });
        }
        let file_len = file_len as usize;
        let stored = read_u64(b, 24);
        let computed = checksum(&b[HEADER_LEN..file_len], threads);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        if read_u64(b, 40) != 0 {
            return Err(malformed("reserved header field must be zero"));
        }
        let n_sections = read_u64(b, 32);
        let table_bytes = n_sections
            .checked_mul(TABLE_ENTRY_LEN as u64)
            .and_then(|t| t.checked_add(HEADER_LEN as u64))
            .ok_or_else(|| malformed("section count overflows"))?;
        if table_bytes > file_len as u64 {
            return Err(malformed(format!(
                "section table ({n_sections} entries) exceeds the file"
            )));
        }
        let table_end = table_bytes as usize;
        let mut sections: Vec<(u32, usize, usize)> = Vec::with_capacity(n_sections as usize);
        let mut seen_kinds: FxHashSet<u32> = FxHashSet::default();
        for i in 0..n_sections as usize {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let kind = read_u32(b, e);
            let offset = read_u64(b, e + 8);
            let len = read_u64(b, e + 16);
            let end = offset
                .checked_add(len)
                .ok_or_else(|| malformed(format!("section {kind}: offset overflow")))?;
            if !offset.is_multiple_of(8) || offset < table_end as u64 || end > file_len as u64 {
                return Err(malformed(format!(
                    "section {kind}: bad bounds [{offset}, {end}) in a {file_len}-byte file"
                )));
            }
            if !seen_kinds.insert(kind) {
                return Err(malformed(format!("duplicate section kind {kind}")));
            }
            sections.push((kind, offset as usize, len as usize));
        }
        Ok(Snapshot { image, sections, blob_utf8: std::sync::OnceLock::new() })
    }

    fn section(&self, kind: u32, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|&&(k, _, _)| k == kind)
            .map(|&(_, off, len)| &self.image.bytes()[off..off + len])
            .ok_or_else(|| malformed(format!("missing section {name} (kind {kind})")))
    }

    fn section_u32s(&self, kind: u32, name: &str) -> Result<&[u32], SnapshotError> {
        view_u32(self.section(kind, name)?, name)
    }

    fn section_u64s(&self, kind: u32, name: &str) -> Result<&[u64], SnapshotError> {
        view_u64(self.section(kind, name)?, name)
    }

    /// The metadata section.
    pub(crate) fn meta(&self) -> Result<SnapshotMeta, SnapshotError> {
        let words = self.section_u64s(SEC_META, "META")?;
        if words.len() != META_WORDS {
            return Err(malformed(format!("META holds {} words, expected 4", words.len())));
        }
        Ok(SnapshotMeta {
            n_terms: words[0],
            n_triples: words[1],
            rdf_type: words[2],
            n_stats: words[3],
        })
    }

    /// The per-term end offsets into the dictionary blob (zero-copy view).
    pub(crate) fn dict_ends(&self) -> Result<&[u64], SnapshotError> {
        self.section_u64s(SEC_DICT_ENDS, "DICT_ENDS")
    }

    /// The canonical term-encoding blob (zero-copy view; UTF-8 validated
    /// once, then served straight from the buffer).
    pub(crate) fn dict_blob(&self) -> Result<&str, SnapshotError> {
        let bytes = self.section(SEC_DICT_BLOB, "DICT_BLOB")?;
        let checked = self
            .blob_utf8
            .get_or_init(|| std::str::from_utf8(bytes).map(|_| ()).map_err(|e| e.to_string()));
        match checked {
            // SAFETY: the cached result proves exactly these bytes passed
            // `from_utf8`; the section table (and therefore the slice) is
            // immutable after parse.
            Ok(()) => Ok(unsafe { std::str::from_utf8_unchecked(bytes) }),
            Err(e) => Err(malformed(format!("DICT_BLOB is not UTF-8: {e}"))),
        }
    }

    /// The raw triple column — `3 × n_triples` ids, reinterpreted in place.
    pub(crate) fn triples_raw(&self) -> Result<&[u32], SnapshotError> {
        self.section_u32s(SEC_TRIPLES, "TRIPLES")
    }

    /// Reads one CSR index back into the graph's hash-map form. `stride` is
    /// the number of u32 words per entry (2 for pair indexes, 1 for the
    /// type index).
    fn read_csr<V>(
        &self,
        kinds: [u32; 3],
        names: [&str; 3],
        stride: usize,
        n_terms: u64,
        decode: impl Fn(&[u32]) -> V,
    ) -> Result<FxHashMap<TermId, Vec<V>>, SnapshotError> {
        let keys = self.section_u32s(kinds[0], names[0])?;
        let offs = self.section_u32s(kinds[1], names[1])?;
        let vals = self.section_u32s(kinds[2], names[2])?;
        if offs.len() != keys.len() + 1 {
            return Err(malformed(format!(
                "{}: {} offsets for {} keys",
                names[1],
                offs.len(),
                keys.len()
            )));
        }
        if offs.first() != Some(&0) {
            return Err(malformed(format!("{}: offsets must start at 0", names[1])));
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(malformed(format!("{}: keys not strictly increasing", names[0])));
        }
        if keys.iter().any(|&k| u64::from(k) >= n_terms) {
            return Err(malformed(format!("{}: key out of term range", names[0])));
        }
        if offs.windows(2).any(|w| w[0] > w[1]) {
            return Err(malformed(format!("{}: offsets not monotone", names[1])));
        }
        let entries = offs.last().copied().unwrap_or(0) as usize;
        if entries * stride != vals.len() {
            return Err(malformed(format!(
                "{}: {} values for {} entries of stride {stride}",
                names[2],
                vals.len(),
                entries
            )));
        }
        // Every stored value is a term id; a branchless max-scan keeps this
        // O(n) cheap while upholding the "corruption never panics later"
        // guarantee for the serving path too.
        if let Some(max) = vals.iter().copied().max() {
            if u64::from(max) >= n_terms {
                return Err(malformed(format!("{}: value {max} out of term range", names[2])));
            }
        }
        let mut map: FxHashMap<TermId, Vec<V>> = FxHashMap::default();
        map.reserve(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            let (a, b) = (offs[i] as usize * stride, offs[i + 1] as usize * stride);
            map.insert(TermId(k), vals[a..b].chunks_exact(stride).map(&decode).collect());
        }
        Ok(map)
    }

    /// Reconstitutes the full offline state: dictionary (term text borrowed
    /// by offset), graph (triples + indexes straight from the columns — no
    /// sorting, no re-interning), and the offline statistics records. The
    /// five independent reconstruction tasks (dictionary, triple column,
    /// three indexes) fan out over `threads` workers, with the thread
    /// budget split between that fan-out and the dictionary's internal
    /// chunk decode so the total worker count stays ≈ `threads`; results
    /// are matched back by kind, so the output is
    /// thread-count-independent.
    pub fn load(&self, threads: usize) -> Result<LoadedSnapshot, SnapshotError> {
        // Four of the five tasks are small; give the dictionary decode the
        // budget the outer fan-out does not occupy (at least one worker).
        let dict_threads = spade_parallel::resolve_threads(threads).saturating_sub(4).max(1);
        let meta = self.meta()?;
        let ends = self.dict_ends()?;
        if ends.len() as u64 != meta.n_terms {
            return Err(malformed(format!(
                "DICT_ENDS holds {} terms, META says {}",
                ends.len(),
                meta.n_terms
            )));
        }

        enum Part {
            Dict(Dictionary),
            Triples(Vec<Triple>),
            PropIndex(FxHashMap<TermId, Vec<(TermId, TermId)>>),
            SubjIndex(FxHashMap<TermId, Vec<(TermId, TermId)>>),
            TypeIndex(FxHashMap<TermId, Vec<TermId>>),
        }
        let built: Vec<Result<Part, SnapshotError>> =
            spade_parallel::map((0..5).collect(), threads, |task| match task {
                0 => Dictionary::from_parts(self.dict_blob()?, ends, dict_threads)
                    .map(Part::Dict)
                    .map_err(|e| malformed(format!("dictionary: {e}"))),
                1 => {
                    let raw = self.triples_raw()?;
                    if raw.len() as u64 != meta.n_triples.saturating_mul(3) {
                        return Err(malformed(format!(
                            "TRIPLES holds {} words, META says {} triples",
                            raw.len(),
                            meta.n_triples
                        )));
                    }
                    // SAFETY: `Triple` is `repr(C)` over three
                    // `repr(transparent)` u32 newtypes — size 12, align 4 —
                    // and `raw` is 4-aligned with length divisible by 3, so
                    // the column reinterprets in place and one memcpy owns
                    // it.
                    let view = unsafe {
                        std::slice::from_raw_parts(raw.as_ptr().cast::<Triple>(), raw.len() / 3)
                    };
                    Ok(Part::Triples(view.to_vec()))
                }
                2 => self
                    .read_csr(
                        [SEC_PROP_KEYS, SEC_PROP_OFFS, SEC_PROP_PAIRS],
                        ["PROP_KEYS", "PROP_OFFS", "PROP_PAIRS"],
                        2,
                        meta.n_terms,
                        |c| (TermId(c[0]), TermId(c[1])),
                    )
                    .map(Part::PropIndex),
                3 => self
                    .read_csr(
                        [SEC_SUBJ_KEYS, SEC_SUBJ_OFFS, SEC_SUBJ_PAIRS],
                        ["SUBJ_KEYS", "SUBJ_OFFS", "SUBJ_PAIRS"],
                        2,
                        meta.n_terms,
                        |c| (TermId(c[0]), TermId(c[1])),
                    )
                    .map(Part::SubjIndex),
                _ => self
                    .read_csr(
                        [SEC_TYPE_KEYS, SEC_TYPE_OFFS, SEC_TYPE_VALS],
                        ["TYPE_KEYS", "TYPE_OFFS", "TYPE_VALS"],
                        1,
                        meta.n_terms,
                        |c| TermId(c[0]),
                    )
                    .map(Part::TypeIndex),
            });
        // Unpack by variant, not by position, so a task-list edit can never
        // silently swap two indexes of the same shape.
        let (mut dict, mut triples, mut by_property, mut outgoing, mut type_extents) =
            (None, None, None, None, None);
        for part in built {
            match part? {
                Part::Dict(d) => dict = Some(d),
                Part::Triples(t) => triples = Some(t),
                Part::PropIndex(m) => by_property = Some(m),
                Part::SubjIndex(m) => outgoing = Some(m),
                Part::TypeIndex(m) => type_extents = Some(m),
            }
        }
        let (Some(dict), Some(triples), Some(by_property), Some(outgoing), Some(type_extents)) =
            (dict, triples, by_property, outgoing, type_extents)
        else {
            unreachable!("every reconstruction task ran exactly once")
        };

        let rdf_type = u32::try_from(meta.rdf_type)
            .map_err(|_| malformed(format!("rdf:type id {} overflows", meta.rdf_type)))?;
        let graph = Graph::from_indexed_parts(
            dict,
            TermId(rdf_type),
            triples,
            by_property,
            outgoing,
            type_extents,
        )
        .map_err(|e| malformed(e.to_string()))?;

        let words = self.section_u64s(SEC_STATS, "STATS")?;
        if words.len() % STATS_RECORD_WORDS != 0
            || (words.len() / STATS_RECORD_WORDS) as u64 != meta.n_stats
        {
            return Err(malformed(format!(
                "STATS holds {} words, META says {} records",
                words.len(),
                meta.n_stats
            )));
        }
        let mut stats = Vec::with_capacity(words.len() / STATS_RECORD_WORDS);
        for w in words.chunks_exact(STATS_RECORD_WORDS) {
            let record = PropertyStatsRecord::from_words(w)?;
            if u64::from(record.property.0) >= meta.n_terms {
                return Err(malformed(format!(
                    "stats record references unknown term {}",
                    record.property
                )));
            }
            stats.push(record);
        }
        Ok(LoadedSnapshot { graph, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_rdf::{vocab, Term};

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let iri = |s: &str| Term::iri(format!("http://x/{s}"));
        g.insert(iri("a"), iri("p"), Term::lit("v1"));
        g.insert(iri("b"), Term::iri(vocab::RDF_TYPE), iri("CEO"));
        g.insert(iri("a"), iri("q"), iri("b"));
        g.insert(iri("a"), iri("p"), Term::int(42));
        g
    }

    fn sample_stats(g: &Graph) -> Vec<PropertyStatsRecord> {
        vec![PropertyStatsRecord {
            property: g.triples()[0].p,
            triples: 2,
            subjects: 1,
            distinct_values: 2,
            multi_valued_subjects: 1,
            numeric_values: 1,
            link_values: 0,
            text_values: 0,
            numeric_bounds: Some((42.0, 42.0)),
        }]
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample_graph();
        let stats = sample_stats(&g);
        let bytes = snapshot_bytes(&g, &stats);
        let snap = Snapshot::from_bytes(&bytes, 0).expect("valid image");
        let meta = snap.meta().unwrap();
        assert_eq!(meta.n_terms as usize, g.dict.len());
        assert_eq!(meta.n_triples as usize, g.len());
        for threads in [1, 2, 8] {
            let loaded = snap.load(threads).expect("loadable");
            assert_eq!(loaded.graph.triples(), g.triples());
            assert_eq!(loaded.graph.rdf_type_id(), g.rdf_type_id());
            for (id, term) in g.dict.iter() {
                assert_eq!(loaded.graph.dict.term(id), term);
            }
            for p in g.properties() {
                assert_eq!(loaded.graph.property_pairs(p), g.property_pairs(p));
            }
            for s in g.subjects() {
                assert_eq!(loaded.graph.outgoing(s), g.outgoing(s));
            }
            for c in g.classes() {
                assert_eq!(loaded.graph.type_extent_raw(c), g.type_extent_raw(c));
            }
            assert_eq!(loaded.stats, stats);
        }
    }

    #[test]
    fn writer_is_deterministic() {
        let g = sample_graph();
        let stats = sample_stats(&g);
        assert_eq!(snapshot_bytes(&g, &stats), snapshot_bytes(&g, &stats));
    }

    #[test]
    fn open_modes_serve_identical_views() {
        let g = sample_graph();
        let stats = sample_stats(&g);
        let dir = std::env::temp_dir().join(format!(
            "spade-store-openmode-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.spade");
        write_snapshot(&path, &g, &stats).unwrap();

        let mapped = Snapshot::open_with(&path, 1, OpenMode::Mmap).expect("mmap open");
        let read = Snapshot::open_with(&path, 1, OpenMode::Read).expect("read open");
        assert!(!read.is_mapped());
        assert_eq!(mapped.image_len(), read.image_len());
        if mapped.is_mapped() {
            // Releasing resident pages must be transparent: views still work.
            mapped.release_resident_pages();
        }
        assert_eq!(mapped.meta().unwrap(), read.meta().unwrap());
        assert_eq!(mapped.triples_raw().unwrap(), read.triples_raw().unwrap());
        assert_eq!(mapped.dict_blob().unwrap(), read.dict_blob().unwrap());
        let a = mapped.load(1).expect("mapped load");
        let b = read.load(1).expect("read load");
        assert_eq!(a.graph.triples(), b.graph.triples());
        assert_eq!(a.stats, b.stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::new();
        let bytes = snapshot_bytes(&g, &[]);
        let loaded = Snapshot::from_bytes(&bytes, 1).unwrap().load(1).unwrap();
        assert!(loaded.graph.is_empty());
        assert_eq!(loaded.graph.dict.len(), 1); // rdf:type
        assert!(loaded.stats.is_empty());
    }
}
