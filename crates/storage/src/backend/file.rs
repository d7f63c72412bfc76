//! The `BFPG` page file: the index's inverted-list pages persisted to
//! one real file, served back through [`PageStore`] with positioned
//! (`pread`-style) reads.
//!
//! ```text
//! "BFPG" magic | u32 version (2)
//! u8 codec id | u32 dict_len | dictionary bytes   (v2 only)
//! u32 n_terms
//! directory, per term:  u32 n_pages, f64 idf
//!                       per page: u64 offset, u32 byte_len,
//!                                 u32 n_postings, u64 checksum
//! u64 FNV-1a over everything above
//! payload:  per page, `byte_len` codec-encoded bytes
//! ```
//!
//! Version 2 encodes each page's postings with a pluggable
//! [`ListCodec`] named in the header (plus its shared dictionary —
//! the Re-Pair grammar travels with the file); version 1 files, which
//! predate the codec layer and store raw little-endian
//! `(u32 doc, u32 freq)` pairs, still open and are reported as
//! [`Codec::Golden`].
//!
//! The directory (offsets, idfs, and the per-page checksums computed
//! by [`Page::new`] at build time) is loaded into memory at open and
//! guarded by its own FNV trailer; the payload is fetched on demand.
//! Every delivered page is decoded, rebuilt with [`Page::new`] and its
//! recomputed checksum — computed over the *decoded* postings, so it
//! is codec-independent — compared against the stored one. A short
//! read, a truncated file, a flipped payload bit, or an undecodable
//! payload surfaces as [`IrError::TornPage`] — the same retryable
//! error the fault injector produces — never as a panic or a silently
//! corrupt page.
//!
//! Two service modes ([`FileMode`]): `Buffered` issues one positioned
//! read per page against the open file descriptor; `Resident` loads
//! the whole file into memory at open (the mmap-style mode — the crate
//! forbids `unsafe`, so a private copy stands in for a mapping) and
//! serves slices of it.
//!
//! Statistics bookkeeping (counter updates, the sequential/random head
//! classification, errors bumping nothing, batched reads taking the
//! state lock once) is kept line-for-line equivalent to
//! [`DiskSim`](crate::DiskSim)'s, which is what makes the zero-latency
//! file backend event-for-event identical to the simulator.

use crate::codec::{Codec, GoldenCodec, ListCodec};
use crate::disk::{DiskStats, PageStore};
use crate::page::Page;
use bytes::Bytes;
use ir_types::{IrError, IrResult, PageId, Posting, TermId};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BFPG";
/// The raw-pair format that predates the codec layer.
const VERSION_V1: u32 = 1;
/// The codec-encoded format written by [`write_page_file_with`].
const VERSION: u32 = 2;
/// Sanity ceiling on the persisted dictionary (a full Re-Pair grammar
/// is ~2 KiB); larger claims are treated as corruption, not allocated.
const MAX_DICT_LEN: usize = 1 << 20;

/// Errors from writing or opening a page file.
#[derive(Debug)]
pub enum PageFileError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// The file is not a valid page file (bad magic/version, directory
    /// checksum mismatch, malformed structure).
    Corrupt(String),
}

impl fmt::Display for PageFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageFileError::Io(e) => write!(f, "i/o error: {e}"),
            PageFileError::Corrupt(msg) => write!(f, "corrupt page file: {msg}"),
        }
    }
}

impl std::error::Error for PageFileError {}

impl From<std::io::Error> for PageFileError {
    fn from(e: std::io::Error) -> Self {
        PageFileError::Io(e)
    }
}

/// FNV-1a, 64-bit — the same dependency-free integrity check the BFIR
/// index format uses.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// One term's pages plus the `idf_t` needed to rebuild them: the unit
/// [`write_page_file`] persists. The idf is stored bit-exactly so the
/// reconstructed pages carry the same `w*_{d,t}` (RAP's value input)
/// as the originals.
#[derive(Clone, Debug)]
pub struct TermPages {
    /// The term's inverse document frequency.
    pub idf: f64,
    /// The inverted list's pages, in page order.
    pub pages: Vec<Page>,
}

/// Serializes `terms` (index = term id) to `path` as a `BFPG` v2 page
/// file with the golden codec, atomically (temp file + rename).
pub fn write_page_file(terms: &[TermPages], path: &Path) -> Result<(), PageFileError> {
    write_page_file_with(terms, path, &GoldenCodec)
}

/// Serializes `terms` (index = term id) to `path` as a `BFPG` v2 page
/// file, each page's postings encoded by `codec` and the codec's
/// dictionary persisted in the header, atomically (temp file +
/// rename). The slice form of [`write_page_file_from`].
pub fn write_page_file_with(
    terms: &[TermPages],
    path: &Path,
    codec: &dyn ListCodec,
) -> Result<(), PageFileError> {
    write_page_file_from(terms.iter().map(Ok), path, codec)
}

/// Streams `terms` (in term-id order) to `path` as a `BFPG` v2 page
/// file, each page's postings encoded by `codec`, atomically (temp
/// file + rename). Terms are consumed one at a time: each page is
/// encoded straight into one payload buffer, so the writer holds the
/// encoded payload and the directory, never a second copy of either.
/// The first `Err` the iterator yields ends the write and is returned;
/// nothing is left at `path`.
pub fn write_page_file_from<T, E>(
    terms: impl IntoIterator<Item = Result<T, E>>,
    path: &Path,
    codec: &dyn ListCodec,
) -> Result<(), E>
where
    T: Borrow<TermPages>,
    E: From<PageFileError>,
{
    write(terms, path, Layout::Codec(codec))
}

/// Serializes `terms` in the **version 1** layout (raw little-endian
/// posting pairs, no codec header) — the format this crate wrote
/// before the codec layer existed. Kept so back-compat tests can
/// manufacture pre-upgrade files; new files are always v2.
pub fn write_page_file_v1(terms: &[TermPages], path: &Path) -> Result<(), PageFileError> {
    write(terms.iter().map(Ok), path, Layout::RawPairs)
}

/// What a page file's header and payloads hold.
#[derive(Clone, Copy)]
enum Layout<'a> {
    /// Version 1: no codec header, raw `(u32 doc, u32 freq)` pairs.
    RawPairs,
    /// Version 2: the codec's id and dictionary, codec payloads.
    Codec(&'a dyn ListCodec),
}

/// The one page-file writer. The directory records each page's offset
/// into the payload; the absolute offsets follow once the directory's
/// length — and so where the payload starts — is known.
fn write<T, E>(
    terms: impl IntoIterator<Item = Result<T, E>>,
    path: &Path,
    layout: Layout<'_>,
) -> Result<(), E>
where
    T: Borrow<TermPages>,
    E: From<PageFileError>,
{
    // Per term: (n_pages, idf); per page: (byte_len, n_postings,
    // checksum), in order.
    let mut term_dir: Vec<(u32, f64)> = Vec::new();
    let mut page_dir: Vec<(u32, u32, u64)> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    for term in terms {
        let term = term?;
        let term = term.borrow();
        term_dir.push((term.pages.len() as u32, term.idf));
        for page in &term.pages {
            let start = payload.len();
            match layout {
                Layout::RawPairs => {
                    for p in page.postings() {
                        payload.extend_from_slice(&p.doc.0.to_le_bytes());
                        payload.extend_from_slice(&p.freq.to_le_bytes());
                    }
                }
                Layout::Codec(codec) => payload.extend_from_slice(&codec.encode(page.postings())),
            }
            let byte_len = (payload.len() - start) as u32;
            page_dir.push((byte_len, page.len() as u32, page.checksum()));
        }
    }

    let mut head = Vec::new();
    head.extend_from_slice(MAGIC);
    match layout {
        Layout::RawPairs => head.extend_from_slice(&VERSION_V1.to_le_bytes()),
        Layout::Codec(codec) => {
            let dictionary = codec.dictionary();
            head.extend_from_slice(&VERSION.to_le_bytes());
            head.push(codec.id().id());
            head.extend_from_slice(&(dictionary.len() as u32).to_le_bytes());
            head.extend_from_slice(&dictionary);
        }
    }
    head.extend_from_slice(&(term_dir.len() as u32).to_le_bytes());
    let dir_len = term_dir.len() * (4 + 8) + page_dir.len() * 24;
    let mut offset = (head.len() + dir_len + 8) as u64;
    head.reserve(dir_len + 8);
    let mut pages = page_dir.iter();
    for &(n_pages, idf) in &term_dir {
        head.extend_from_slice(&n_pages.to_le_bytes());
        head.extend_from_slice(&idf.to_le_bytes());
        for &(byte_len, n_postings, checksum) in pages.by_ref().take(n_pages as usize) {
            head.extend_from_slice(&offset.to_le_bytes());
            head.extend_from_slice(&byte_len.to_le_bytes());
            head.extend_from_slice(&n_postings.to_le_bytes());
            head.extend_from_slice(&checksum.to_le_bytes());
            offset += u64::from(byte_len);
        }
    }
    let trailer = fnv1a(&head);
    head.extend_from_slice(&trailer.to_le_bytes());
    write_atomically(&[&head, &payload], path).map_err(E::from)
}

fn write_atomically(parts: &[&[u8]], path: &Path) -> Result<(), PageFileError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// How a [`FilePageStore`] services payload reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FileMode {
    /// One positioned (`pread`-style) read per page against the open
    /// descriptor — the out-of-core mode.
    #[default]
    Buffered,
    /// The whole file is loaded into memory at open and pages are
    /// served from the image — the mmap-style mode (`ir-storage`
    /// forbids `unsafe`, so a private copy stands in for a mapping).
    Resident,
}

#[derive(Clone, Copy, Debug)]
struct PageDir {
    offset: u64,
    byte_len: u32,
    n_postings: u32,
    checksum: u64,
}

#[derive(Clone, Debug)]
struct TermDir {
    idf: f64,
    pages: Vec<PageDir>,
}

#[derive(Debug, Default)]
struct FileState {
    stats: DiskStats,
    /// Head position, for the sequential/random classification — same
    /// rule as `DiskSim`.
    last: Option<PageId>,
}

/// A [`PageStore`] serving a `BFPG` page file.
///
/// Thread-safe: reads are serialized through the state mutex — one
/// head, like the device being modeled — which also keeps the
/// stats-update order identical to the read order.
pub struct FilePageStore {
    file: fs::File,
    /// `Some` in [`FileMode::Resident`].
    image: Option<Vec<u8>>,
    dir: Vec<TermDir>,
    mode: FileMode,
    /// The on-disk format version (1 = raw pairs, 2 = codec payloads).
    version: u32,
    /// Decoder for v2 payloads; v1 files get [`GoldenCodec`] so
    /// [`FilePageStore::codec`] always names a codec.
    codec: Arc<dyn ListCodec>,
    state: Mutex<FileState>,
}

impl fmt::Debug for FilePageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilePageStore")
            .field("mode", &self.mode)
            .field("version", &self.version)
            .field("codec", &self.codec.id())
            .field("n_terms", &self.dir.len())
            .finish()
    }
}

/// Positioned read. On unix this is a true `pread` (no shared cursor);
/// elsewhere it falls back to seek+read, which is safe because every
/// caller holds the store's state lock.
#[cfg(unix)]
fn pread(file: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn pread(file: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

impl FilePageStore {
    /// Opens a page file written by [`write_page_file`], loading and
    /// verifying the directory (and, in [`FileMode::Resident`], the
    /// whole payload image).
    pub fn open(path: &Path, mode: FileMode) -> Result<Self, PageFileError> {
        let mut file = fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut head = Vec::new();
        let mut take = |n: usize, head: &mut Vec<u8>| -> Result<usize, PageFileError> {
            let start = head.len();
            // Sizes here come from the (not yet verified) directory
            // itself — bound them by the file before allocating, so a
            // corrupt count is an error, not a giant zeroed buffer.
            if (start + n) as u64 > file_len {
                return Err(PageFileError::Corrupt(format!(
                    "directory claims {n} bytes at {start}, file has {file_len}"
                )));
            }
            head.resize(start + n, 0);
            file.read_exact(&mut head[start..]).map_err(|e| {
                PageFileError::Corrupt(format!("truncated directory at byte {start}: {e}"))
            })?;
            Ok(start)
        };
        let at = take(8, &mut head)?;
        if &head[at..at + 4] != MAGIC {
            return Err(PageFileError::Corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(head[at + 4..at + 8].try_into().unwrap());
        let (codec_id, dictionary) = match version {
            // v1 predates the codec layer: raw pairs, golden geometry.
            VERSION_V1 => (Codec::Golden, Vec::new()),
            VERSION => {
                let at = take(5, &mut head)?;
                let id = head[at];
                let codec_id = Codec::from_id(id)
                    .ok_or_else(|| PageFileError::Corrupt(format!("unknown codec id {id}")))?;
                let dict_len =
                    u32::from_le_bytes(head[at + 1..at + 5].try_into().unwrap()) as usize;
                if dict_len > MAX_DICT_LEN {
                    return Err(PageFileError::Corrupt(format!(
                        "dictionary claims {dict_len} bytes (max {MAX_DICT_LEN})"
                    )));
                }
                let at = take(dict_len, &mut head)?;
                (codec_id, head[at..at + dict_len].to_vec())
            }
            v => {
                return Err(PageFileError::Corrupt(format!(
                    "unsupported version {v} (expected {VERSION_V1} or {VERSION})"
                )))
            }
        };
        let at = take(4, &mut head)?;
        let n_terms = u32::from_le_bytes(head[at..at + 4].try_into().unwrap()) as usize;
        let mut dir = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            let at = take(12, &mut head)?;
            let n_pages = u32::from_le_bytes(head[at..at + 4].try_into().unwrap()) as usize;
            let idf = f64::from_le_bytes(head[at + 4..at + 12].try_into().unwrap());
            let at = take(n_pages * 24, &mut head)?;
            let pages = (0..n_pages)
                .map(|i| {
                    let e = &head[at + i * 24..at + (i + 1) * 24];
                    PageDir {
                        offset: u64::from_le_bytes(e[0..8].try_into().unwrap()),
                        byte_len: u32::from_le_bytes(e[8..12].try_into().unwrap()),
                        n_postings: u32::from_le_bytes(e[12..16].try_into().unwrap()),
                        checksum: u64::from_le_bytes(e[16..24].try_into().unwrap()),
                    }
                })
                .collect();
            dir.push(TermDir { idf, pages });
        }
        let computed = fnv1a(&head);
        let mut trailer = [0u8; 8];
        file.read_exact(&mut trailer)
            .map_err(|e| PageFileError::Corrupt(format!("missing directory checksum: {e}")))?;
        let stored = u64::from_le_bytes(trailer);
        if stored != computed {
            return Err(PageFileError::Corrupt(format!(
                "directory checksum mismatch (stored {stored:#x}, computed {computed:#x})"
            )));
        }
        // Only now that the trailer has vouched for the header bytes is
        // the dictionary worth parsing.
        let codec = codec_id
            .build(&dictionary)
            .map_err(|e| PageFileError::Corrupt(format!("bad {codec_id} dictionary: {e}")))?;
        let image = match mode {
            FileMode::Buffered => None,
            FileMode::Resident => {
                // The payload image keeps its file-absolute offsets:
                // prefix it with the directory bytes already consumed.
                let mut img = head;
                img.extend_from_slice(&trailer);
                file.read_to_end(&mut img)?;
                Some(img)
            }
        };
        Ok(FilePageStore {
            file,
            image,
            dir,
            mode,
            version,
            codec,
            state: Mutex::new(FileState::default()),
        })
    }

    /// Which service mode the store was opened in.
    pub fn mode(&self) -> FileMode {
        self.mode
    }

    /// The codec the payload is encoded with (v1 files report
    /// [`Codec::Golden`]).
    pub fn codec(&self) -> Codec {
        self.codec.id()
    }

    /// The on-disk format version (1 = raw pairs, 2 = codec payloads).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Total pages across all lists.
    pub fn total_pages(&self) -> usize {
        self.dir.iter().map(|t| t.pages.len()).sum()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        self.state.lock().stats
    }

    /// Resets the counters and the modeled head position.
    pub fn reset_stats(&self) {
        *self.state.lock() = FileState::default();
    }

    /// Locates `id` in the directory. Errors match `DiskSim`'s exactly.
    fn entry(&self, id: PageId) -> IrResult<(&TermDir, &PageDir)> {
        let term = self
            .dir
            .get(id.term.index())
            .ok_or(IrError::UnknownTerm(id.term))?;
        let page = term
            .pages
            .get(id.page.index())
            .ok_or(IrError::PageOutOfRange {
                page: id,
                list_len: term.pages.len() as u32,
            })?;
        Ok((term, page))
    }

    /// Fetches and verifies one page. Any payload problem — short
    /// read, truncation, flipped bit, nonsensical directory entry —
    /// comes back as the retryable [`IrError::TornPage`]; this path
    /// never panics on a damaged file.
    fn load_verified(&self, id: PageId) -> IrResult<Page> {
        let (term, d) = self.entry(id)?;
        let torn = || IrError::TornPage { page: id };
        let len = d.byte_len as usize;
        if d.n_postings == 0 || len == 0 {
            return Err(torn());
        }
        // v1 stores fixed-size raw pairs, so the length is checkable
        // before the read; codec payloads validate during decode.
        if self.version == VERSION_V1 && len != d.n_postings as usize * 8 {
            return Err(torn());
        }
        let mut buf = vec![0u8; len];
        match &self.image {
            Some(img) => {
                let start = usize::try_from(d.offset).map_err(|_| torn())?;
                let end = start.checked_add(len).ok_or_else(torn)?;
                if end > img.len() {
                    return Err(torn());
                }
                buf.copy_from_slice(&img[start..end]);
            }
            None => pread(&self.file, &mut buf, d.offset).map_err(|_| torn())?,
        }
        let postings: Vec<Posting> = if self.version == VERSION_V1 {
            buf.chunks_exact(8)
                .map(|c| {
                    Posting::new(
                        u32::from_le_bytes(c[0..4].try_into().unwrap()),
                        u32::from_le_bytes(c[4..8].try_into().unwrap()),
                    )
                })
                .collect()
        } else {
            let mut out = Vec::new();
            if !self.codec.decode_into(Bytes::from(buf), &mut out) {
                return Err(torn());
            }
            out
        };
        if postings.len() != d.n_postings as usize {
            return Err(torn());
        }
        let page = Page::new(id, postings.into(), term.idf);
        // `Page::new` recomputed the content checksum from what was
        // actually delivered; the directory holds the build-time one.
        if page.checksum() != d.checksum {
            return Err(torn());
        }
        Ok(page)
    }

    /// Counter update for one successful read — `DiskSim`'s rule.
    fn count_read(state: &mut FileState, id: PageId, entries: u64) {
        state.stats.reads += 1;
        state.stats.entries_read += entries;
        let sequential = matches!(
            state.last,
            Some(prev) if prev.term == id.term && prev.page.0 + 1 == id.page.0
        );
        if sequential {
            state.stats.sequential_reads += 1;
        } else {
            state.stats.random_reads += 1;
        }
        state.last = Some(id);
    }
}

impl PageStore for FilePageStore {
    fn read_page(&self, id: PageId) -> IrResult<Page> {
        let mut state = self.state.lock();
        let page = self.load_verified(id)?;
        Self::count_read(&mut state, id, page.len() as u64);
        Ok(page)
    }

    fn list_len(&self, term: TermId) -> Option<u32> {
        self.dir.get(term.index()).map(|t| t.pages.len() as u32)
    }

    fn n_lists(&self) -> usize {
        self.dir.len()
    }

    /// `false`: a damaged payload surfaces as an `Err`, never as a
    /// delivered page that fails verification — so the buffer pool
    /// does not pay for a second checksum pass, and its vectored
    /// fast path stays enabled.
    fn can_tear(&self) -> bool {
        false
    }

    /// Batched read taking the state lock once, mirroring
    /// [`DiskSim::read_pages`](crate::DiskSim): per-page counting in
    /// order, errors bump nothing and end the batch.
    fn read_pages(&self, ids: &[PageId]) -> Vec<IrResult<Page>> {
        let mut out = Vec::with_capacity(ids.len());
        let mut state = self.state.lock();
        for &id in ids {
            match self.load_verified(id) {
                Ok(page) => {
                    Self::count_read(&mut state, id, page.len() as u64);
                    out.push(Ok(page));
                }
                Err(e) => {
                    out.push(Err(e));
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;

    fn sample_terms(n_terms: u32, pages_per_term: u32) -> Vec<TermPages> {
        (0..n_terms)
            .map(|t| TermPages {
                idf: f64::from(t + 1) * 0.5,
                pages: (0..pages_per_term)
                    .map(|p| {
                        // Frequency-sorted within the page (f desc, d
                        // asc), like every page the builder cuts.
                        let postings: Vec<Posting> = (0..=p)
                            .map(|d| Posting::new(d, pages_per_term + p - d))
                            .collect();
                        Page::new(
                            PageId::new(TermId(t), p),
                            postings.into(),
                            f64::from(t + 1) * 0.5,
                        )
                    })
                    .collect(),
            })
            .collect()
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("buffir-backend-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    #[test]
    fn round_trips_pages_bit_exactly_in_both_modes() {
        let terms = sample_terms(3, 4);
        let path = tmpfile("round_trip.bfpg");
        write_page_file(&terms, &path).unwrap();
        for mode in [FileMode::Buffered, FileMode::Resident] {
            let store = FilePageStore::open(&path, mode).unwrap();
            assert_eq!(store.n_lists(), 3);
            assert_eq!(store.total_pages(), 12);
            assert_eq!(store.list_len(TermId(2)), Some(4));
            assert_eq!(store.list_len(TermId(3)), None);
            for (t, term) in terms.iter().enumerate() {
                for (p, original) in term.pages.iter().enumerate() {
                    let got = store.read_page(pid(t as u32, p as u32)).unwrap();
                    assert_eq!(got.postings(), original.postings());
                    assert_eq!(got.checksum(), original.checksum());
                    assert_eq!(
                        got.max_weight().to_bits(),
                        original.max_weight().to_bits(),
                        "RAP's value input must survive the round trip bit-exactly"
                    );
                    assert!(got.is_intact());
                }
            }
        }
    }

    /// The page-file image laid out field by field from the format
    /// description in the module docs: header, directory with absolute
    /// offsets, directory trailer, payloads in page order.
    fn spec_image(terms: &[TermPages], codec: &dyn ListCodec) -> Vec<u8> {
        let dictionary = codec.dictionary();
        let n_pages: usize = terms.iter().map(|t| t.pages.len()).sum();
        let payload_start = 17 + dictionary.len() + terms.len() * 12 + n_pages * 24 + 8;
        let mut out = Vec::new();
        out.extend_from_slice(b"BFPG");
        out.extend_from_slice(&2u32.to_le_bytes());
        out.push(codec.id().id());
        out.extend_from_slice(&(dictionary.len() as u32).to_le_bytes());
        out.extend_from_slice(&dictionary);
        out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
        let mut offset = payload_start as u64;
        for t in terms {
            out.extend_from_slice(&(t.pages.len() as u32).to_le_bytes());
            out.extend_from_slice(&t.idf.to_le_bytes());
            for page in &t.pages {
                let len = codec.encode(page.postings()).len() as u32;
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&(page.len() as u32).to_le_bytes());
                out.extend_from_slice(&page.checksum().to_le_bytes());
                offset += u64::from(len);
            }
        }
        let trailer = fnv1a(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        assert_eq!(out.len(), payload_start);
        for page in terms.iter().flat_map(|t| &t.pages) {
            out.extend_from_slice(&codec.encode(page.postings()));
        }
        out
    }

    #[test]
    fn streaming_and_slice_writers_match_the_format_byte_for_byte() {
        let mut terms = sample_terms(4, 3);
        terms[2].pages.clear(); // a term with no pages
        for codec_id in Codec::ALL {
            let codec: Arc<dyn ListCodec> = match codec_id {
                Codec::RePair => {
                    let lists: Vec<Vec<Posting>> = terms
                        .iter()
                        .flat_map(|t| t.pages.iter().map(|p| p.postings().to_vec()))
                        .collect();
                    Arc::new(crate::codec::RePairCodec::train(
                        lists.iter().map(|l| l.as_slice()),
                    ))
                }
                other => other.build(&[]).unwrap(),
            };
            let slice = tmpfile(&format!("writer_slice_{}.bfpg", codec_id.id()));
            let stream = tmpfile(&format!("writer_stream_{}.bfpg", codec_id.id()));
            write_page_file_with(&terms, &slice, codec.as_ref()).unwrap();
            let owned = terms.iter().cloned().map(Ok::<_, PageFileError>);
            write_page_file_from(owned, &stream, codec.as_ref()).unwrap();
            let expected = spec_image(&terms, codec.as_ref());
            assert_eq!(fs::read(&slice).unwrap(), expected, "{codec_id}");
            assert_eq!(fs::read(&stream).unwrap(), expected, "{codec_id}");
        }
    }

    #[test]
    fn a_failing_term_source_writes_nothing() {
        let terms = sample_terms(2, 2);
        let path = tmpfile("writer_fails.bfpg");
        let _ = fs::remove_file(&path);
        let source = terms
            .iter()
            .map(Ok)
            .chain(std::iter::once(Err(PageFileError::Corrupt("read".into()))));
        let err = write_page_file_from(source, &path, &GoldenCodec).unwrap_err();
        assert!(matches!(err, PageFileError::Corrupt(msg) if msg == "read"));
        assert!(!path.exists());
    }

    #[test]
    fn stats_bookkeeping_matches_disksim_event_for_event() {
        let terms = sample_terms(2, 3);
        let path = tmpfile("stats_parity.bfpg");
        write_page_file(&terms, &path).unwrap();
        let file = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        let sim = DiskSim::new(terms.iter().map(|t| t.pages.clone()).collect());
        let ids = [
            pid(0, 0),
            pid(0, 1),
            pid(0, 2),
            pid(1, 0),
            pid(1, 2),
            pid(0, 0),
        ];
        for &id in &ids {
            let a = file.read_page(id).unwrap();
            let b = sim.read_page(id).unwrap();
            assert_eq!(a.postings(), b.postings());
        }
        assert_eq!(file.stats(), sim.stats());
        // Batched reads agree too, and with the per-call path.
        file.reset_stats();
        sim.reset_stats();
        let batch_file = file.read_pages(&ids);
        let batch_sim = sim.read_pages(&ids);
        assert_eq!(batch_file.len(), batch_sim.len());
        assert_eq!(file.stats(), sim.stats());
        assert!(file.stats().sequential_reads > 0);
    }

    #[test]
    fn errors_match_disksim_and_bump_nothing() {
        let terms = sample_terms(1, 2);
        let path = tmpfile("errors.bfpg");
        write_page_file(&terms, &path).unwrap();
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        assert!(matches!(
            store.read_page(pid(9, 0)),
            Err(IrError::UnknownTerm(_))
        ));
        assert!(matches!(
            store.read_page(pid(0, 7)),
            Err(IrError::PageOutOfRange { list_len: 2, .. })
        ));
        assert_eq!(store.stats(), DiskStats::default());
        // Prefix contract on the batched path.
        let out = store.read_pages(&[pid(0, 0), pid(0, 7), pid(0, 1)]);
        assert_eq!(out.len(), 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert_eq!(store.stats().reads, 1);
    }

    #[test]
    fn truncated_payload_surfaces_torn_page_not_panic() {
        let terms = sample_terms(1, 3);
        let path = tmpfile("trunc.bfpg");
        write_page_file(&terms, &path).unwrap();
        let full = fs::read(&path).unwrap();
        // Cut the file mid-payload: the directory stays intact, so the
        // open succeeds, but the last pages are short reads.
        let cut = tmpfile("trunc_cut.bfpg");
        fs::write(&cut, &full[..full.len() - 10]).unwrap();
        for mode in [FileMode::Buffered, FileMode::Resident] {
            let store = FilePageStore::open(&cut, mode).unwrap();
            assert!(store.read_page(pid(0, 0)).is_ok(), "{mode:?}");
            let err = store.read_page(pid(0, 2)).unwrap_err();
            assert!(matches!(err, IrError::TornPage { page } if page == pid(0, 2)));
            assert!(err.is_transient(), "torn pages are retryable");
            // The failed read bumped nothing.
            assert_eq!(store.stats().reads, 1);
        }
    }

    #[test]
    fn flipped_payload_bit_surfaces_torn_page() {
        let terms = sample_terms(1, 2);
        let path = tmpfile("bitflip.bfpg");
        write_page_file(&terms, &path).unwrap();
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 3] ^= 0x40; // inside the last page's payload
        let bad = tmpfile("bitflip_mut.bfpg");
        fs::write(&bad, &data).unwrap();
        for mode in [FileMode::Buffered, FileMode::Resident] {
            let store = FilePageStore::open(&bad, mode).unwrap();
            assert!(store.read_page(pid(0, 0)).is_ok());
            assert!(matches!(
                store.read_page(pid(0, 1)),
                Err(IrError::TornPage { .. })
            ));
        }
    }

    #[test]
    fn corrupt_directory_is_rejected_at_open() {
        let terms = sample_terms(2, 2);
        let path = tmpfile("dir.bfpg");
        write_page_file(&terms, &path).unwrap();
        let original = fs::read(&path).unwrap();
        // Directory region: v2 header (magic+version+codec+dict_len,
        // empty golden dictionary, n_terms) through its trailer.
        let dir_end = 17 + 2 * (12 + 2 * 24) + 8;
        for offset in [0, 5, 13, 20, dir_end - 4] {
            let mut bad = original.clone();
            bad[offset] ^= 0x5a;
            let p = tmpfile("dir_mut.bfpg");
            fs::write(&p, &bad).unwrap();
            assert!(
                matches!(
                    FilePageStore::open(&p, FileMode::Buffered),
                    Err(PageFileError::Corrupt(_))
                ),
                "offset {offset}"
            );
        }
        // Truncating inside the directory is also an open-time error.
        let p = tmpfile("dir_trunc.bfpg");
        fs::write(&p, &original[..20]).unwrap();
        assert!(matches!(
            FilePageStore::open(&p, FileMode::Buffered),
            Err(PageFileError::Corrupt(_))
        ));
    }

    #[test]
    fn file_store_never_tears_silently() {
        let terms = sample_terms(1, 1);
        let path = tmpfile("tear.bfpg");
        write_page_file(&terms, &path).unwrap();
        let store = FilePageStore::open(&path, FileMode::Buffered).unwrap();
        assert!(!store.can_tear(), "damage is an Err, not a torn delivery");
    }

    #[test]
    fn v1_files_open_as_golden_and_serve_identically() {
        let terms = sample_terms(3, 4);
        let v1 = tmpfile("legacy_v1.bfpg");
        let v2 = tmpfile("legacy_v2.bfpg");
        write_page_file_v1(&terms, &v1).unwrap();
        write_page_file(&terms, &v2).unwrap();
        for mode in [FileMode::Buffered, FileMode::Resident] {
            let old = FilePageStore::open(&v1, mode).unwrap();
            let new = FilePageStore::open(&v2, mode).unwrap();
            assert_eq!(old.version(), 1);
            assert_eq!(new.version(), 2);
            assert_eq!(old.codec(), Codec::Golden);
            assert_eq!(new.codec(), Codec::Golden);
            for t in 0..3u32 {
                for p in 0..4u32 {
                    let a = old.read_page(pid(t, p)).unwrap();
                    let b = new.read_page(pid(t, p)).unwrap();
                    assert_eq!(a.postings(), b.postings());
                    assert_eq!(a.checksum(), b.checksum());
                }
            }
            assert_eq!(old.stats(), new.stats());
        }
    }

    #[test]
    fn every_codec_round_trips_through_the_page_file() {
        let terms = sample_terms(2, 3);
        for codec_id in Codec::ALL {
            let codec: std::sync::Arc<dyn ListCodec> = match codec_id {
                Codec::RePair => {
                    let lists: Vec<Vec<Posting>> = terms
                        .iter()
                        .flat_map(|t| t.pages.iter().map(|p| p.postings().to_vec()))
                        .collect();
                    std::sync::Arc::new(crate::codec::RePairCodec::train(
                        lists.iter().map(|l| l.as_slice()),
                    ))
                }
                other => other.build(&[]).unwrap(),
            };
            let path = tmpfile(&format!("codec_{}.bfpg", codec_id.id()));
            write_page_file_with(&terms, &path, codec.as_ref()).unwrap();
            for mode in [FileMode::Buffered, FileMode::Resident] {
                let store = FilePageStore::open(&path, mode).unwrap();
                assert_eq!(store.codec(), codec_id, "{mode:?}");
                for (t, term) in terms.iter().enumerate() {
                    for (p, original) in term.pages.iter().enumerate() {
                        let got = store.read_page(pid(t as u32, p as u32)).unwrap();
                        assert_eq!(got.postings(), original.postings(), "{codec_id}");
                        assert_eq!(got.checksum(), original.checksum(), "{codec_id}");
                        assert_eq!(
                            got.max_weight().to_bits(),
                            original.max_weight().to_bits(),
                            "{codec_id}: RAP's value input must survive"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_codec_id_and_bad_dictionary_are_rejected_at_open() {
        let terms = sample_terms(1, 1);
        let path = tmpfile("codec_hdr.bfpg");
        write_page_file(&terms, &path).unwrap();
        let original = fs::read(&path).unwrap();

        // Byte 8 is the codec id; 1 is a retired id and 9 a junk one.
        // The trailer guards the header, so patch it back up to reach
        // the codec check.
        let dir_end = 17 + (12 + 24);
        for id in [1u8, 9] {
            let mut bad = original.clone();
            bad[8] = id;
            let trailer = fnv1a(&bad[..dir_end]);
            bad[dir_end..dir_end + 8].copy_from_slice(&trailer.to_le_bytes());
            let p = tmpfile(&format!("codec_hdr_bad_id_{id}.bfpg"));
            fs::write(&p, &bad).unwrap();
            match FilePageStore::open(&p, FileMode::Buffered) {
                Err(PageFileError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("unknown codec id {id}")), "{msg}")
                }
                other => panic!("id {id}: expected corrupt, got {other:?}"),
            }
        }

        // A Re-Pair id whose dictionary bytes are garbage (claimed
        // empty dict for re-pair is a truncated grammar header).
        let mut bad = original;
        bad[8] = Codec::RePair.id();
        let trailer = fnv1a(&bad[..dir_end]);
        bad[dir_end..dir_end + 8].copy_from_slice(&trailer.to_le_bytes());
        let p = tmpfile("codec_hdr_bad_dict.bfpg");
        fs::write(&p, &bad).unwrap();
        match FilePageStore::open(&p, FileMode::Buffered) {
            Err(PageFileError::Corrupt(msg)) => assert!(msg.contains("dictionary"), "{msg}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
}
