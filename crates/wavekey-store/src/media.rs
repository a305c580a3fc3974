//! Storage media abstraction.
//!
//! [`Volume`] is the small set of primitives the store needs: whole-file
//! and byte-range reads, truncating write, append, truncate-to-length,
//! atomic-ish rename, remove, and length. [`MemVolume`] is the default
//! for tests and benches — cloning it yields a *shared handle* (the
//! recovery soak holds one handle while the store owns the other, and
//! `deep_clone` freezes a crash image).
//! [`FileVolume`] maps the same primitives onto a directory of real files.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

use crate::StoreError;

/// Byte-level storage primitives under the journal and snapshot files.
pub trait Volume {
    /// Read a whole file. `Ok(None)` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError>;
    /// Read `len` bytes at `offset`. `Ok(None)` if the file does not exist
    /// or ends before the range does. The default slices [`Volume::read`];
    /// volumes that can seek override it.
    fn read_range(
        &self,
        name: &str,
        offset: usize,
        len: usize,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.read(name)?.and_then(|bytes| {
            let end = offset.checked_add(len)?;
            bytes.get(offset..end).map(<[u8]>::to_vec)
        }))
    }
    /// Create-or-replace a file with exactly `bytes`.
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;
    /// Append to a file, creating it if missing.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;
    /// Shrink a file to `len` bytes (no-op if already shorter or missing).
    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StoreError>;
    /// Rename `from` onto `to`, replacing `to`. The install step of the
    /// snapshot protocol; fault injection targets this.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError>;
    /// Delete a file; missing is not an error.
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
    /// Current length in bytes; 0 if missing.
    fn len(&self, name: &str) -> Result<usize, StoreError>;
}

/// In-memory volume. `Clone` shares the underlying files (a handle), so a
/// test can keep a handle while the store owns a `Box<dyn Volume>` of the
/// same media; `deep_clone` takes an independent crash image.
///
/// The handles share one `Rc<RefCell<…>>`: a volume and its clones live on
/// the thread that drives the store, so `MemVolume` is not `Send`.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<wavekey_store::MemVolume>();
/// ```
#[derive(Clone, Default)]
pub struct MemVolume {
    files: Rc<RefCell<BTreeMap<String, Vec<u8>>>>,
}

impl MemVolume {
    pub fn new() -> Self {
        Self::default()
    }

    /// Independent copy of the current media contents — "what would be on
    /// disk if the process died right now".
    pub fn deep_clone(&self) -> MemVolume {
        let files = self.files.borrow().clone();
        MemVolume {
            files: Rc::new(RefCell::new(files)),
        }
    }
}

impl core::fmt::Debug for MemVolume {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let files = self.files.borrow();
        let mut d = f.debug_map();
        for (name, bytes) in files.iter() {
            d.entry(name, &bytes.len());
        }
        d.finish()
    }
}

impl Volume for MemVolume {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.files.borrow().get(name).cloned())
    }

    fn read_range(
        &self,
        name: &str,
        offset: usize,
        len: usize,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let files = self.files.borrow();
        let end = offset.checked_add(len);
        Ok(files
            .get(name)
            .and_then(|f| f.get(offset..end?))
            .map(<[u8]>::to_vec))
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.files.borrow_mut().insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.files
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StoreError> {
        if let Some(f) = self.files.borrow_mut().get_mut(name) {
            if f.len() > len {
                f.truncate(len);
            }
        }
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        let mut files = self.files.borrow_mut();
        match files.remove(from) {
            Some(bytes) => {
                files.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(StoreError::Io(format!("rename: no such file {from}"))),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.files.borrow_mut().remove(name);
        Ok(())
    }

    fn len(&self, name: &str) -> Result<usize, StoreError> {
        Ok(self.files.borrow().get(name).map_or(0, Vec::len))
    }
}

/// Directory-backed volume over `std::fs`. Rename maps to `fs::rename`,
/// which is atomic on POSIX filesystems — the property the snapshot
/// protocol leans on.
#[derive(Debug, Clone)]
pub struct FileVolume {
    dir: PathBuf,
}

impl FileVolume {
    /// Open (creating if needed) a directory as a volume.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(FileVolume { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Volume for FileVolume {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn read_range(
        &self,
        name: &str,
        offset: usize,
        len: usize,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        use std::io::{ErrorKind, Read, Seek, SeekFrom};
        let io = |e: std::io::Error| StoreError::Io(e.to_string());
        let mut f = match std::fs::File::open(self.path(name)) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io(e)),
        };
        f.seek(SeekFrom::Start(offset as u64)).map_err(io)?;
        let mut out = vec![0u8; len];
        match f.read_exact(&mut out) {
            Ok(()) => Ok(Some(out)),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(io(e)),
        }
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        std::fs::write(self.path(name), bytes).map_err(|e| StoreError::Io(e.to_string()))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| StoreError::Io(e.to_string()))?;
        f.write_all(bytes).map_err(|e| StoreError::Io(e.to_string()))
    }

    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StoreError> {
        let path = self.path(name);
        match std::fs::OpenOptions::new().write(true).open(&path) {
            Ok(f) => {
                let cur = f
                    .metadata()
                    .map_err(|e| StoreError::Io(e.to_string()))?
                    .len();
                if cur > len as u64 {
                    f.set_len(len as u64)
                        .map_err(|e| StoreError::Io(e.to_string()))?;
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        std::fs::rename(self.path(from), self.path(to))
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn len(&self, name: &str) -> Result<usize, StoreError> {
        match std::fs::metadata(self.path(name)) {
            Ok(m) => Ok(m.len() as usize),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_volume_clone_is_shared_deep_clone_is_not() {
        let mut a = MemVolume::new();
        let handle = a.clone();
        a.append("j", b"one").unwrap();
        assert_eq!(handle.read("j").unwrap().unwrap(), b"one");

        let frozen = handle.deep_clone();
        a.append("j", b"two").unwrap();
        assert_eq!(frozen.read("j").unwrap().unwrap(), b"one");
        assert_eq!(handle.read("j").unwrap().unwrap(), b"onetwo");
    }

    #[test]
    fn mem_volume_primitives() {
        let mut v = MemVolume::new();
        assert_eq!(v.read("x").unwrap(), None);
        assert_eq!(v.len("x").unwrap(), 0);
        v.write("x", b"hello").unwrap();
        assert_eq!(v.read_range("x", 1, 3).unwrap().unwrap(), b"ell");
        assert_eq!(v.read_range("x", 5, 0).unwrap().unwrap(), b"");
        assert_eq!(v.read_range("x", 3, 3).unwrap(), None);
        assert_eq!(v.read_range("x", usize::MAX, 2).unwrap(), None);
        assert_eq!(v.read_range("missing", 0, 1).unwrap(), None);
        v.truncate("x", 2).unwrap();
        assert_eq!(v.read("x").unwrap().unwrap(), b"he");
        v.truncate("x", 100).unwrap(); // no-op growth
        assert_eq!(v.len("x").unwrap(), 2);
        v.rename("x", "y").unwrap();
        assert_eq!(v.read("x").unwrap(), None);
        assert_eq!(v.read("y").unwrap().unwrap(), b"he");
        assert!(v.rename("missing", "z").is_err());
        v.remove("y").unwrap();
        v.remove("y").unwrap(); // missing is fine
        assert_eq!(v.read("y").unwrap(), None);
    }

    /// A volume that implements only the required methods, so
    /// `read_range` is the trait's default.
    struct WholeFileReads(MemVolume);

    impl Volume for WholeFileReads {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
            self.0.read(name)
        }
        fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.0.write(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
            self.0.append(name, bytes)
        }
        fn truncate(&mut self, name: &str, len: usize) -> Result<(), StoreError> {
            self.0.truncate(name, len)
        }
        fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
            self.0.rename(from, to)
        }
        fn remove(&mut self, name: &str) -> Result<(), StoreError> {
            self.0.remove(name)
        }
        fn len(&self, name: &str) -> Result<usize, StoreError> {
            self.0.len(name)
        }
    }

    #[test]
    fn default_read_range_slices_a_whole_file_read() {
        let mut v = WholeFileReads(MemVolume::new());
        v.write("x", b"hello").unwrap();
        for (offset, len) in [(1, 3), (0, 5), (5, 0), (3, 3), (usize::MAX, 2)] {
            assert_eq!(
                v.read_range("x", offset, len).unwrap(),
                v.0.read_range("x", offset, len).unwrap(),
                "range {offset}+{len}"
            );
        }
        assert_eq!(v.read_range("missing", 0, 1).unwrap(), None);
    }

    #[test]
    fn file_volume_primitives() {
        let dir = std::env::temp_dir().join(format!(
            "wavekey-store-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut v = FileVolume::open(&dir).unwrap();
        assert_eq!(v.read("j").unwrap(), None);
        v.append("j", b"abc").unwrap();
        v.append("j", b"def").unwrap();
        assert_eq!(v.read("j").unwrap().unwrap(), b"abcdef");
        assert_eq!(v.read_range("j", 2, 3).unwrap().unwrap(), b"cde");
        assert_eq!(v.read_range("j", 4, 3).unwrap(), None);
        assert_eq!(v.read_range("missing", 0, 1).unwrap(), None);
        v.truncate("j", 4).unwrap();
        assert_eq!(v.len("j").unwrap(), 4);
        v.write("tmp", b"snap").unwrap();
        v.rename("tmp", "snap").unwrap();
        assert_eq!(v.read("snap").unwrap().unwrap(), b"snap");
        v.remove("snap").unwrap();
        assert_eq!(v.read("snap").unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
