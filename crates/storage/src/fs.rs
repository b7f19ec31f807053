//! The durable-directory seam: how a store's bytes reach the OS.
//!
//! Every file a store keeps — run files, WAL segments, the manifest and
//! its temporary, the `SHARDS` meta — and every directory they live in is
//! created, written, synced, renamed, listed and removed through an
//! [`Fs`]. [`OsFs`] is its one implementation and the only code that
//! calls `std::fs` for a store's files; [`FlakyBackend`](crate::FlakyBackend)
//! wraps it to fail any of those operations on command.
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
//! the store's. A page read on a run file that is already open stays one
//! positional syscall on its descriptor ([`FsFile`], inside this crate).

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::path::{Path, PathBuf};

/// A file opened through an [`Fs`]. Outside this crate it is a token to
/// hand back to the `Fs` that opened it.
#[derive(Debug)]
pub struct FsFile {
    file: File,
    path: PathBuf,
}

impl FsFile {
    /// Where the file was opened.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fills `buf` from byte `offset` on.
    pub(crate) fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.file.read_exact_at(buf, offset)
    }

    /// One read of up to `buf.len()` bytes from `offset`; the count read.
    pub(crate) fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.file.read_at(buf, offset)
    }

    /// The file's length in bytes.
    pub(crate) fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
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
        let path = path.to_path_buf();
        Ok(FsFile { file, path })
    }

    fn open(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        let file = open_options(direct).open(path)?;
        let path = path.to_path_buf();
        Ok(FsFile { file, path })
    }

    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> io::Result<()> {
        file.file.write_all_at(data, offset)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn sync(&self, file: &FsFile) -> io::Result<()> {
        file.file.sync_data()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_fs_round_trips_a_durable_file() {
        let root = std::env::temp_dir().join(format!("monkey-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (fs, dir) = (OsFs, root.join("a/b"));
        fs.create_dir(&dir).unwrap();
        fs.create_dir(&dir).unwrap(); // already there: nothing to do
        let file = fs.create(&dir.join("x.tmp"), false).unwrap();
        fs.write_at(&file, 0, b"hello").unwrap();
        fs.write_at(&file, 5, b" world").unwrap();
        fs.sync(&file).unwrap();
        assert_eq!(file.len().unwrap(), 11);
        fs.rename(&dir.join("x.tmp"), &dir.join("x")).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert_eq!(fs.list(&dir).unwrap(), ["x"]);
        assert_eq!(fs.read(&dir.join("x")).unwrap(), b"hello world");
        // `create` never replaces what is there.
        let err = fs.create(&dir.join("x"), false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        fs.remove(&dir.join("x")).unwrap();
        assert!(fs.list(&dir).unwrap().is_empty());
        assert!(fs.open(&dir.join("x"), false).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
