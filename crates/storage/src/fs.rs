//! The storage seam: how a store's bytes reach whatever holds them.
//!
//! Every file a store keeps — run files, WAL segments, the manifest and
//! its temporary, the `SHARDS` meta — and every directory they live in is
//! created, written, read, synced, renamed, listed and removed through an
//! [`Fs`]. It has two implementations: [`OsFs`], the operating system's
//! filesystem and the only code that calls `std::fs`, and [`MemFs`], files
//! in memory, which a volatile store's runs live on.
//! [`FlakyBackend`](crate::FlakyBackend) wraps either to fail or delay any
//! of those operations on command.
//!
//! The seam decides how a byte becomes durable:
//! * [`Fs::sync`] is `fdatasync`: a file's data and the metadata needed to
//!   read it back, its length. LevelDB syncs its logs, tables and
//!   manifests the same way.
//! * A file's *name* — that it was created, renamed or removed — is
//!   durable once its directory is synced ([`Fs::sync_dir`]).
//!   [`Fs::create_dir`] syncs the parent of every directory it creates.
//!
//! Which file is synced when is the caller's order; DESIGN.md §5i lists
//! the store's. [`MemFs`] accepts every sync and does nothing: it keeps no
//! state a crash could lose. A page read on an open file is one positional
//! read ([`Fs::read_at`]): one syscall on [`OsFs`], one copy on [`MemFs`].

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A file opened through an [`Fs`]. Outside this crate it is a token to
/// hand back to the `Fs` that opened it.
pub struct FsFile {
    path: PathBuf,
    handle: Handle,
}

/// What an open file is to the `Fs` that opened it.
enum Handle {
    Os(File),
    /// A [`MemFs`] file's bytes, which outlive its name: a file removed or
    /// renamed while open is still read and written through its handle.
    Mem(Arc<RwLock<Vec<u8>>>),
}

impl FsFile {
    /// Where the file was opened.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn os(&self) -> io::Result<&File> {
        match &self.handle {
            Handle::Os(file) => Ok(file),
            Handle::Mem(_) => Err(io::Error::other("a memory file handed to the OS")),
        }
    }

    fn mem(&self) -> io::Result<&RwLock<Vec<u8>>> {
        match &self.handle {
            Handle::Mem(bytes) => Ok(bytes),
            Handle::Os(_) => Err(io::Error::other("an OS file handed to memory")),
        }
    }
}

impl std::fmt::Debug for FsFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsFile").field("path", &self.path).finish()
    }
}

/// A store's files and directories, as durable storage sees them.
pub trait Fs: Send + Sync + 'static {
    /// Creates the file at `path`, which must not exist, open for reading
    /// and writing, `O_DIRECT` when `direct`. Creating never destroys: an
    /// existing file is an `AlreadyExists` error.
    fn create(&self, path: &Path, direct: bool) -> io::Result<FsFile>;

    /// Opens the existing file at `path` for reading and writing.
    fn open(&self, path: &Path, direct: bool) -> io::Result<FsFile>;

    /// Writes all of `data` into `file` from byte `offset` on.
    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Fills `buf` from byte `offset` of `file` on. A file that ends first
    /// is an `UnexpectedEof` error.
    fn read_at(&self, file: &FsFile, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// The length of `file` in bytes.
    fn len(&self, file: &FsFile) -> io::Result<u64>;

    /// The whole content of the file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Makes what was written to `file` durable, with its length.
    fn sync(&self, file: &FsFile) -> io::Result<()>;

    /// Renames `from` to `to`, atomically replacing a file at `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// The names of the entries in directory `dir`, in no set order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Creates `dir` and its missing ancestors, syncing the parent of each
    /// one it creates.
    fn create_dir(&self, dir: &Path) -> io::Result<()>;

    /// Makes durable which files `dir` holds: every create, rename and
    /// remove in it so far survives a crash.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The operating system's filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsFs;

/// `O_DIRECT` differs per architecture (it is one of the few fcntl flags
/// that does).
#[cfg(any(target_arch = "arm", target_arch = "aarch64"))]
const O_DIRECT: i32 = 0o200000;
#[cfg(not(any(target_arch = "arm", target_arch = "aarch64")))]
const O_DIRECT: i32 = 0o40000;

fn open_options(direct: bool) -> OpenOptions {
    let mut opts = OpenOptions::new();
    opts.read(true)
        .write(true)
        .custom_flags(if direct { O_DIRECT } else { 0 });
    opts
}

impl Fs for OsFs {
    fn create(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        let file = open_options(direct).create_new(true).open(path)?;
        let (path, handle) = (path.to_path_buf(), Handle::Os(file));
        Ok(FsFile { path, handle })
    }

    fn open(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        let file = open_options(direct).open(path)?;
        let (path, handle) = (path.to_path_buf(), Handle::Os(file));
        Ok(FsFile { path, handle })
    }

    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> io::Result<()> {
        file.os()?.write_all_at(data, offset)
    }

    fn read_at(&self, file: &FsFile, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        file.os()?.read_exact_at(buf, offset)
    }

    fn len(&self, file: &FsFile) -> io::Result<u64> {
        Ok(file.os()?.metadata()?.len())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn sync(&self, file: &FsFile) -> io::Result<()> {
        file.os()?.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        std::fs::read_dir(dir)?
            .map(|entry| Ok(entry?.file_name().to_string_lossy().into_owned()))
            .collect()
    }

    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        if dir.is_dir() {
            return Ok(());
        }
        let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(parent) = parent {
            self.create_dir(parent)?;
        }
        match std::fs::create_dir(dir) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists && dir.is_dir() => Ok(()),
            Err(e) => Err(e),
            Ok(()) => self.sync_dir(parent.unwrap_or(Path::new("."))),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// Files and directories in memory, under one lock: the run store of a
/// volatile disk, and a whole durable store for tests that need no device.
/// It answers as [`OsFs`] does — `create` is exclusive, `rename` atomic
/// and replacing, a missing path `NotFound`, a short read `UnexpectedEof`
/// — except that it refuses `O_DIRECT`, which has no device to reach, and
/// that syncing does nothing. Clones share the files.
#[derive(Clone, Default)]
pub struct MemFs {
    nodes: Arc<RwLock<HashMap<PathBuf, Node>>>,
}

enum Node {
    Dir,
    File(Arc<RwLock<Vec<u8>>>),
}

fn not_found(path: &Path) -> io::Error {
    let what = format!("{}: no such file or directory", path.display());
    io::Error::new(io::ErrorKind::NotFound, what)
}

/// The directory `path` is in: the empty path for a bare name.
fn parent(path: &Path) -> &Path {
    path.parent().unwrap_or(Path::new(""))
}

/// `O_DIRECT` bypasses a device's cache; memory has neither.
fn no_direct() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "O_DIRECT on a memory fs")
}

impl MemFs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `dir` is a directory. The empty path, a relative path's
    /// parent, always is.
    fn is_dir(nodes: &HashMap<PathBuf, Node>, dir: &Path) -> bool {
        dir.as_os_str().is_empty() || matches!(nodes.get(dir), Some(Node::Dir))
    }

    /// The bytes of the file at `path`.
    fn file(&self, path: &Path) -> io::Result<Arc<RwLock<Vec<u8>>>> {
        match self.nodes.read().get(path) {
            Some(Node::File(bytes)) => Ok(Arc::clone(bytes)),
            Some(Node::Dir) => Err(io::Error::other(format!("{}: a directory", path.display()))),
            None => Err(not_found(path)),
        }
    }
}

impl Fs for MemFs {
    fn create(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        if direct {
            return Err(no_direct());
        }
        let mut nodes = self.nodes.write();
        if nodes.contains_key(path) {
            let what = format!("{}: file exists", path.display());
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, what));
        }
        if !Self::is_dir(&nodes, parent(path)) {
            return Err(not_found(path));
        }
        let bytes = Arc::default();
        nodes.insert(path.to_path_buf(), Node::File(Arc::clone(&bytes)));
        let (path, handle) = (path.to_path_buf(), Handle::Mem(bytes));
        Ok(FsFile { path, handle })
    }

    fn open(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        let bytes = self.file(path)?;
        if direct {
            return Err(no_direct());
        }
        let (path, handle) = (path.to_path_buf(), Handle::Mem(bytes));
        Ok(FsFile { path, handle })
    }

    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut bytes = file.mem()?.write();
        let end = offset as usize + data.len();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn read_at(&self, file: &FsFile, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let bytes = file.mem()?.read();
        let from = bytes.get(offset as usize..).unwrap_or_default();
        let Some(from) = from.get(..buf.len()) else {
            return Err(io::ErrorKind::UnexpectedEof.into());
        };
        buf.copy_from_slice(from);
        Ok(())
    }

    fn len(&self, file: &FsFile) -> io::Result<u64> {
        Ok(file.mem()?.read().len() as u64)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        Ok(self.file(path)?.read().clone())
    }

    fn sync(&self, file: &FsFile) -> io::Result<()> {
        file.mem().map(drop)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        if !matches!(nodes.get(from), Some(Node::File(_))) {
            return Err(not_found(from));
        }
        if !Self::is_dir(&nodes, parent(to)) || matches!(nodes.get(to), Some(Node::Dir)) {
            return Err(not_found(to));
        }
        let file = nodes.remove(from).expect("checked above");
        nodes.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        if !matches!(nodes.get(path), Some(Node::File(_))) {
            return Err(not_found(path));
        }
        nodes.remove(path);
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let nodes = self.nodes.read();
        if !Self::is_dir(&nodes, dir) {
            return Err(not_found(dir));
        }
        let children = nodes.keys().filter(|path| path.parent() == Some(dir));
        let names = children.filter_map(|path| path.file_name());
        Ok(names
            .map(|name| name.to_string_lossy().into_owned())
            .collect())
    }

    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        let ancestors = dir.ancestors().filter(|p| !p.as_os_str().is_empty());
        for dir in ancestors {
            match nodes.get(dir) {
                Some(Node::Dir) => break,
                Some(Node::File(_)) => {
                    let what = format!("{}: a file", dir.display());
                    return Err(io::Error::new(io::ErrorKind::AlreadyExists, what));
                }
                None => drop(nodes.insert(dir.to_path_buf(), Node::Dir)),
            }
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match Self::is_dir(&self.nodes.read(), dir) {
            true => Ok(()),
            false => Err(not_found(dir)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same round trip on both implementations.
    fn round_trip(fs: &dyn Fs, root: &Path) {
        let dir = root.join("a/b");
        fs.create_dir(&dir).unwrap();
        fs.create_dir(&dir).unwrap(); // already there: nothing to do
        let file = fs.create(&dir.join("x.tmp"), false).unwrap();
        fs.write_at(&file, 0, b"hello").unwrap();
        fs.write_at(&file, 5, b" world").unwrap();
        fs.sync(&file).unwrap();
        assert_eq!(fs.len(&file).unwrap(), 11);
        let mut buf = [0u8; 5];
        fs.read_at(&file, 6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        let err = fs.read_at(&file, 7, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        fs.rename(&dir.join("x.tmp"), &dir.join("x")).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert_eq!(fs.list(&dir).unwrap(), ["x"]);
        assert_eq!(fs.read(&dir.join("x")).unwrap(), b"hello world");
        // `create` never replaces what is there.
        let err = fs.create(&dir.join("x"), false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        fs.remove(&dir.join("x")).unwrap();
        assert!(fs.list(&dir).unwrap().is_empty());
        let err = fs.open(&dir.join("x"), false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        // The handle outlives the name.
        fs.write_at(&file, 11, b"!").unwrap();
        assert_eq!(fs.len(&file).unwrap(), 12);
    }

    #[test]
    fn os_fs_round_trips_a_durable_file() {
        let root = std::env::temp_dir().join(format!("monkey-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        round_trip(&OsFs, &root);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn mem_fs_round_trips_a_file_and_refuses_direct() {
        let fs = MemFs::new();
        round_trip(&fs, Path::new("/store"));
        let err = fs.create(Path::new("/store/d"), true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs.create(Path::new("/store/d"), false).unwrap();
        assert!(fs.open(Path::new("/store/d"), true).is_err());
        // A file's handle answers only to the kind of fs that opened it.
        assert!(OsFs
            .len(&fs.open(Path::new("/store/d"), false).unwrap())
            .is_err());
        let err = fs.create(Path::new("/nowhere/f"), false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
