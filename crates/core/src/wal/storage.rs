//! The byte-level backend a [`Wal`](super::Wal) writes through: the
//! [`WalStorage`] trait, the real directory of segment files and the shared
//! in-memory image the crash harness tears.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The byte-level backend a [`Wal`](super::Wal) writes through.
/// Implementations must apply `append` bytes in order and make everything
/// appended before a successful `sync` survive a crash — the segment that
/// holds them included — and a segment `remove` returned from must stay
/// gone.
pub trait WalStorage {
    /// Creates (or truncates) segment `index` and makes it current. The
    /// writer rotates before the segment grows past `max_bytes` (unless a
    /// single record is larger), so an in-memory backend sizes the
    /// segment once; a file backend ignores it.
    fn open_segment_sized(&mut self, index: u64, max_bytes: usize) -> io::Result<()>;
    /// [`WalStorage::open_segment_sized`] for a segment of unknown size
    /// (a copy of an image, a test planting bytes).
    fn open_segment(&mut self, index: u64) -> io::Result<()> {
        self.open_segment_sized(index, 0)
    }
    /// Appends bytes to the current segment. May apply a prefix and then
    /// fail — that is the torn write recovery must survive.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Forces appended bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Segment indices present, sorted ascending.
    fn list(&self) -> io::Result<Vec<u64>>;
    /// Reads a whole segment image.
    fn read(&self, index: u64) -> io::Result<Vec<u8>>;
    /// Truncates segment `index` to `len` bytes (torn-tail removal).
    fn truncate(&mut self, index: u64, len: usize) -> io::Result<()>;
    /// Deletes segment `index` (a checkpoint dropping a closed segment).
    fn remove(&mut self, index: u64) -> io::Result<()>;
}

/// Real directory-of-files storage: `wal-NNNNNNNN.seg` under `dir`.
///
/// A file's bytes and its name are made durable apart: `sync_data` covers
/// the bytes, and only an fsync of the directory covers the entry that
/// names a new segment (or the absence of a removed one).
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
    current: Option<fs::File>,
    /// A segment was created since the directory was last synced.
    dir_dirty: bool,
}

impl DirStorage {
    /// Storage rooted at `dir` (created if missing).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DirStorage> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DirStorage {
            dir,
            current: None,
            dir_dirty: false,
        })
    }

    fn path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("wal-{index:08}.seg"))
    }

    /// Makes the directory's entries durable.
    fn sync_dir(&mut self) -> io::Result<()> {
        fs::File::open(&self.dir)?.sync_all()?;
        self.dir_dirty = false;
        Ok(())
    }
}

impl WalStorage for DirStorage {
    fn open_segment_sized(&mut self, index: u64, _max_bytes: usize) -> io::Result<()> {
        self.current = Some(
            fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(self.path(index))?,
        );
        self.dir_dirty = true;
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let f = self
            .current
            .as_mut()
            .ok_or_else(|| io::Error::other("no open segment"))?;
        f.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Some(f) = self.current.as_mut() {
            f.sync_data()?;
        }
        if self.dir_dirty {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(idx) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push(idx);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn read(&self, index: u64) -> io::Result<Vec<u8>> {
        fs::read(self.path(index))
    }

    fn truncate(&mut self, index: u64, len: usize) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(self.path(index))?;
        f.set_len(len as u64)?;
        f.sync_data()
    }

    fn remove(&mut self, index: u64) -> io::Result<()> {
        fs::remove_file(self.path(index))?;
        self.sync_dir()
    }
}

#[derive(Debug, Default)]
struct MemInner {
    segments: BTreeMap<u64, Vec<u8>>,
}

/// Shared in-memory storage. Cloning shares the underlying image, so the
/// bytes survive the "death" of the component holding the writing handle —
/// exactly what the crash-injection harness needs to model a machine whose
/// disk outlives its process.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
    current: Option<u64>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total bytes across all segments (diagnostics).
    pub fn total_bytes(&self) -> usize {
        self.lock().segments.values().map(Vec::len).sum()
    }
}

impl WalStorage for MemStorage {
    fn open_segment_sized(&mut self, index: u64, max_bytes: usize) -> io::Result<()> {
        self.lock()
            .segments
            .insert(index, Vec::with_capacity(max_bytes));
        self.current = Some(index);
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let current = self
            .current
            .ok_or_else(|| io::Error::other("no open segment"))?;
        let mut inner = self.lock();
        inner
            .segments
            .get_mut(&current)
            .expect("current segment exists")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(()) // write-through: bytes are "on media" at append
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        Ok(self.lock().segments.keys().copied().collect())
    }

    fn read(&self, index: u64) -> io::Result<Vec<u8>> {
        self.lock()
            .segments
            .get(&index)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))
    }

    fn truncate(&mut self, index: u64, len: usize) -> io::Result<()> {
        let mut inner = self.lock();
        let seg = inner
            .segments
            .get_mut(&index)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))?;
        seg.truncate(len);
        Ok(())
    }

    fn remove(&mut self, index: u64) -> io::Result<()> {
        self.lock()
            .segments
            .remove(&index)
            .map(drop)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))
    }
}
