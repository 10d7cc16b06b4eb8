//! A relocatable, offset-addressed backing store for shared structures.
//!
//! The paper's model is crash-prone *processes* communicating through shared
//! atomic registers. Everything else in this crate works equally well for
//! threads in one address space, but pointers do not survive a process
//! boundary: a `MAP_SHARED` mapping lands at a different virtual address in
//! every process that maps it. This module therefore stores shared state in
//! an [`Arena`] — a single contiguous region addressed by *offsets*. Every
//! allocation returns a view pinned at allocation time: an [`ArenaRef<T>`]
//! or [`ArenaSliceRef<T>`] resolves `base + offset` once, keeps its arena
//! alive through an [`Arc`], and dereferences as a plain pointer. The view
//! remembers its offset, from which the word's stable [`Loc`] derives. The
//! offsets, not the pointers, are the layout: a `fork()` child inherits the
//! mapping (and so every view) at the same address, and a process that
//! attaches a file-backed arena by path re-runs the structures'
//! constructors in allocation order, landing every word on the offset its
//! creator used.
//!
//! Three backends are provided:
//!
//! * [`ArenaBackend::Heap`] (default): a process-private 64-byte-aligned
//!   heap block. Identical layout and code paths to the shared backend, but
//!   safe under miri and on every platform. This is what the rest of the
//!   workspace uses unless a caller explicitly asks for cross-process
//!   sharing.
//! * [`ArenaBackend::Shared`]: an anonymous `MAP_SHARED` mmap (unix only,
//!   not under miri). A child created with `fork()` inherits the mapping at
//!   the same address, so the views allocated before the fork stay valid
//!   in the child.
//! * [`ArenaBackend::File`]: a *named* `MAP_SHARED` mmap over a regular
//!   file, so **unrelated** processes attach by path instead of by fork
//!   inheritance ([`Arena::file_create`] / [`Arena::file_attach`]). The
//!   first 64 bytes of the file hold a validated [`FileHeader`] — magic,
//!   layout version, capacity, an attach-epoch counter bumped on every
//!   attach, and a dirty flag that survives a crash — which is what makes
//!   crash-consistent restart recovery possible (see `core::recovery`).
//!   An attached arena is opened in *preserve* mode: the `*_with`
//!   allocators claim offsets in construction order but skip their
//!   initializing writes, so re-running a structure's `*_in` constructor
//!   re-derives the same views over the surviving bytes.
//!
//! # Allocation discipline
//!
//! The arena is a bump allocator: allocations only grow it, nothing is ever
//! freed until the whole arena drops. Every allocation starts on a fresh
//! 64-byte boundary, so any single allocated object (a register word, a
//! free-list `pushes` counter) owns its cache line outright, and a slice
//! allocation packs its elements contiguously from an aligned base — the
//! layout the compiled flat wire-map/CSR structures were designed for.
//! Allocating past [`Arena::capacity`] panics; callers size arenas with the
//! `footprint` helpers next to each structure's `*_in` constructor.
//!
//! Only [`ArenaPod`] types may live in an arena: no destructors, valid when
//! zero-initialized, no interior pointers. Atomics and plain integers (and
//! `#[repr(C)]` structs thereof) qualify; anything holding a pointer, a
//! `Box` or a lock does not.
//!
//! # Stable locations
//!
//! Registers placed in an arena derive their [`Loc`] from the arena id and
//! the word's offset ([`Arena::loc_for`]) instead of the global fresh-`Loc`
//! counter, so the schedule explorer's conflict classes are identical no
//! matter which backend backs the run — the property the cross-backend
//! replay regression test pins down.
//!
//! # Example
//!
//! ```
//! use shmem::arena::Arena;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let arena = Arena::heap(4096);
//! let word = arena.alloc::<AtomicU64>();
//! let slab = arena.alloc_slice::<AtomicU64>(8);
//! word.store(7, Ordering::SeqCst);
//! slab[3].store(9, Ordering::SeqCst);
//! assert_eq!(word.load(Ordering::SeqCst), 7);
//! assert_eq!(slab[3].load(Ordering::SeqCst), 9);
//! // Every allocation starts a cache line; its Loc derives from the offset.
//! assert_eq!(word.offset() % 64, 0);
//! assert_eq!(word.loc(), arena.loc_for(word.offset()));
//! ```

// Raw memory: the arena owns an untyped region (heap block or mmap) and
// hands out typed views into it.
// Everything unsafe is confined to `Storage` and `Arena::resolve`.
#![allow(unsafe_code)]

use crate::pad::CachePadded;
use crate::vexec::Loc;
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache-line size assumed throughout the workspace (see [`crate::pad`]).
pub const ARENA_ALIGN: usize = 64;

/// The largest capacity an arena may have: offsets must fit in the 34-bit
/// field of the derived [`Loc`] encoding (16 GiB is far beyond any structure
/// in this workspace).
pub const MAX_ARENA_CAPACITY: usize = 1 << 34;

static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(1);

/// Which kind of memory backs an [`Arena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ArenaBackend {
    /// A process-private, 64-byte-aligned heap block (miri-safe default).
    #[default]
    Heap,
    /// An anonymous `MAP_SHARED` mapping: visible to children created with
    /// `fork()`. Unix only; unavailable under miri.
    Shared,
    /// A file-backed `MAP_SHARED` mapping with a validated [`FileHeader`]:
    /// unrelated processes attach by path ([`Arena::file_attach`]) and the
    /// bytes survive every process detaching. Unix only; unavailable under
    /// miri. The variant is payload-free (the enum stays `Copy`); the path
    /// is carried by the constructors and [`Arena::path`].
    File,
}

impl fmt::Display for ArenaBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaBackend::Heap => f.write_str("heap"),
            ArenaBackend::Shared => f.write_str("shared"),
            ArenaBackend::File => f.write_str("file"),
        }
    }
}

/// Why an arena could not be created.
#[derive(Debug)]
pub enum ArenaError {
    /// The requested backend is not available on this platform (e.g.
    /// [`ArenaBackend::Shared`] on non-unix targets or under miri).
    UnsupportedBackend(ArenaBackend),
    /// The requested capacity is zero or exceeds [`MAX_ARENA_CAPACITY`].
    InvalidCapacity(usize),
    /// The underlying `mmap` call failed.
    MapFailed(std::io::Error),
    /// Creating, opening or sizing the backing file failed.
    Io(std::io::Error),
    /// The file exists but its [`FileHeader`] does not validate (wrong
    /// magic, unknown layout version, or a capacity that disagrees with
    /// the file's size) — it is not an arena this build can attach to.
    BadHeader(String),
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::UnsupportedBackend(b) => {
                write!(f, "arena backend {b} is not available on this platform")
            }
            ArenaError::InvalidCapacity(cap) => {
                write!(
                    f,
                    "arena capacity {cap} out of range (1..={MAX_ARENA_CAPACITY})"
                )
            }
            ArenaError::MapFailed(err) => write!(f, "mmap failed: {err}"),
            ArenaError::Io(err) => write!(f, "arena file i/o failed: {err}"),
            ArenaError::BadHeader(why) => write!(f, "arena file header invalid: {why}"),
        }
    }
}

impl std::error::Error for ArenaError {}

/// Magic tag in the first word of a file-backed arena ("ARENAv1\0", little
/// endian). A file without it is not an arena and is refused at attach.
pub const ARENA_MAGIC: u64 = 0x0031_764e_4552_4141;

/// Layout version stamped at [`Arena::file_create`] and required verbatim at
/// [`Arena::file_attach`]. Bump whenever the byte layout of any
/// arena-resident structure changes incompatibly.
///
/// Version 2: the crash-robust lease table gained its free list and
/// transition stripes, and free-list data words moved to one per line.
/// Version 3: the lease table lost its quarantine bitmap (its registry now
/// follows the recovery-epoch line), and the telemetry stripes lost the
/// `robust.quarantined` counter word.
/// Version 4: the telemetry stripes lost the `prism.combined` and
/// `prism.fell_through` counter words.
pub const ARENA_LAYOUT_VERSION: u64 = 4;

/// Bytes reserved at the start of a file-backed arena for the validated
/// header — exactly one allocation line, so the first real allocation still
/// lands on a fresh 64-byte boundary.
pub const FILE_HEADER_BYTES: usize = 64;

/// The validated header at offset 0 of a file-backed arena.
///
/// All fields are atomics because unrelated live processes share the
/// mapping: the attach-epoch bump and the dirty-flag handshake race with
/// other attachers by design. The header occupies the first of the file's
/// [`FILE_HEADER_BYTES`]; the remaining header bytes are reserved (zero).
#[derive(Debug)]
#[repr(C)]
pub struct FileHeader {
    /// [`ARENA_MAGIC`], written last at create so a torn create never
    /// validates.
    pub magic: AtomicU64,
    /// [`ARENA_LAYOUT_VERSION`] of the creating build.
    pub layout_version: AtomicU64,
    /// Usable capacity in bytes (the file is this plus the header line).
    pub capacity: AtomicU64,
    /// Count of attaches (create included); bumped by every
    /// [`Arena::file_attach`]. Recovery uses it to arbitrate which fresh
    /// attacher repairs a dirty arena.
    pub attach_epoch: AtomicU64,
    /// Raised on attach, cleared only by an explicit [`Arena::mark_clean`]:
    /// a process that dies (or merely exits) without the clean handshake
    /// leaves the flag up, telling the next attacher to run recovery.
    pub dirty: AtomicU64,
}

/// Marker for types that may be placed in an [`Arena`].
///
/// # Safety
///
/// Implementors must guarantee all of:
///
/// * **Zero-valid**: the all-zero byte pattern is a valid, fully initialized
///   value (arena memory is zeroed at creation and never constructed
///   per-object unless a `*_with` allocator is used).
/// * **No destructor**: dropping the arena discards the bytes without
///   running `Drop` for the objects inside.
/// * **Self-contained**: the value holds no pointers, references or other
///   address-space-local state, so its bytes mean the same thing in every
///   process mapping the region.
/// * **Sync**: the arena hands out `&T` to multiple threads and processes
///   concurrently.
pub unsafe trait ArenaPod: Sized + Send + Sync + 'static {}

// Safety: atomics and bare integers are zero-valid, drop-free,
// address-space independent and (for the atomics) Sync. Plain integers are
// only reachable immutably through arena views, so sharing &T is safe.
unsafe impl ArenaPod for AtomicU64 {}
unsafe impl ArenaPod for AtomicUsize {}
unsafe impl ArenaPod for AtomicU32 {}
unsafe impl ArenaPod for AtomicBool {}
unsafe impl ArenaPod for u8 {}
unsafe impl ArenaPod for u32 {}
unsafe impl ArenaPod for u64 {}
unsafe impl ArenaPod for usize {}

// Safety: padding preserves every ArenaPod invariant (the pad bytes are
// zero-valid and meaningless), and CachePadded's 64-byte alignment is
// exactly the arena allocation alignment.
unsafe impl<T: ArenaPod> ArenaPod for CachePadded<T> {}

/// The raw region behind an arena.
enum Storage {
    Heap {
        base: NonNull<u8>,
        layout: Layout,
    },
    #[cfg(all(unix, not(miri)))]
    Shared {
        base: NonNull<u8>,
        len: usize,
    },
    /// A file-backed `MAP_SHARED` mapping. The fd is closed right after
    /// mapping (the mapping keeps the file pinned); dropping unmaps only —
    /// the bytes live on in the file until someone unlinks it.
    #[cfg(all(unix, not(miri)))]
    File {
        base: NonNull<u8>,
        len: usize,
    },
}

impl Storage {
    fn base(&self) -> NonNull<u8> {
        match self {
            Storage::Heap { base, .. } => *base,
            #[cfg(all(unix, not(miri)))]
            Storage::Shared { base, .. } => *base,
            #[cfg(all(unix, not(miri)))]
            Storage::File { base, .. } => *base,
        }
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        match self {
            Storage::Heap { base, layout } => {
                // Safety: allocated with exactly this layout in Arena::heap.
                unsafe { dealloc(base.as_ptr(), *layout) };
            }
            #[cfg(all(unix, not(miri)))]
            Storage::Shared { base, len } | Storage::File { base, len } => {
                // Safety: mapped with exactly this length in map_shared /
                // map_file. A forked child that exits via `_exit` never runs
                // this; a child that returns normally unmaps only its own
                // address space, not the parent's mapping (and for the file
                // backend, never the file's bytes).
                unsafe { libc::munmap(base.as_ptr().cast(), *len) };
            }
        }
    }
}

/// A relocatable bump-allocated region of shared memory.
///
/// See the [module docs](self) for the full story. Arenas are always used
/// behind an [`Arc`], because every view an allocator returns holds one to
/// keep the region mapped.
pub struct Arena {
    storage: Storage,
    capacity: usize,
    cursor: AtomicUsize,
    backend: ArenaBackend,
    id: u64,
    /// Attach/preserve mode ([`Arena::file_attach`]): the `*_with`
    /// allocators claim offsets but skip their initializing writes, so the
    /// bytes a previous fleet left behind survive re-construction.
    preserve: bool,
    /// The backing file's path (file backend only).
    path: Option<std::path::PathBuf>,
    /// This mapping's attach epoch (file backend only): the post-bump value
    /// of the header's attach counter.
    attach_epoch: Option<u64>,
    /// Whether the header's dirty flag was already up when this process
    /// attached — i.e. some earlier attacher never completed the
    /// [`Arena::mark_clean`] handshake and recovery should run.
    attached_dirty: bool,
}

// Safety: the region is only ever accessed through `&T` where `T: ArenaPod`
// (hence Sync), the cursor is atomic, and the storage pointer itself is
// never mutated after construction.
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("backend", &self.backend)
            .field("capacity", &self.capacity)
            .field("used", &self.used())
            .field("id", &self.id)
            .finish()
    }
}

impl Arena {
    /// Creates a process-private heap-backed arena with the given capacity
    /// in bytes. Panics if the capacity is out of range or the allocation
    /// fails (consistent with `Box`/`Vec` on OOM).
    pub fn heap(capacity: usize) -> Arc<Arena> {
        match Arena::with_backend(ArenaBackend::Heap, capacity) {
            Ok(arena) => arena,
            Err(err) => panic!("failed to create heap arena: {err}"),
        }
    }

    /// Creates an anonymous `MAP_SHARED` arena with the given capacity in
    /// bytes. Children created with `fork()` share the memory (writes are
    /// mutually visible); unrelated processes cannot attach.
    #[cfg(all(unix, not(miri)))]
    pub fn shared(capacity: usize) -> Result<Arc<Arena>, ArenaError> {
        Arena::with_backend(ArenaBackend::Shared, capacity)
    }

    /// Creates a heap or anonymous shared arena. [`ArenaBackend::Shared`]
    /// fails with [`ArenaError::UnsupportedBackend`] on non-unix platforms
    /// and under miri. File arenas are created by path
    /// ([`Arena::file_create`]), never here.
    fn with_backend(backend: ArenaBackend, capacity: usize) -> Result<Arc<Arena>, ArenaError> {
        if capacity == 0 || capacity > MAX_ARENA_CAPACITY {
            return Err(ArenaError::InvalidCapacity(capacity));
        }
        let storage = match backend {
            ArenaBackend::Heap => {
                let layout = Layout::from_size_align(capacity, ARENA_ALIGN)
                    .map_err(|_| ArenaError::InvalidCapacity(capacity))?;
                // Safety: layout has non-zero size (capacity >= 1).
                let raw = unsafe { alloc_zeroed(layout) };
                let base = NonNull::new(raw).unwrap_or_else(|| {
                    std::alloc::handle_alloc_error(layout);
                });
                Storage::Heap { base, layout }
            }
            ArenaBackend::Shared => Self::map_shared(capacity)?,
            ArenaBackend::File => unreachable!("file arenas are created by path"),
        };
        Ok(Arc::new(Arena {
            storage,
            capacity,
            cursor: AtomicUsize::new(0),
            backend,
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::SeqCst),
            preserve: false,
            path: None,
            attach_epoch: None,
            attached_dirty: false,
        }))
    }

    /// Creates a **named** arena: a fresh file at `path` sized
    /// `capacity + FILE_HEADER_BYTES`, mapped `MAP_SHARED`, with a validated
    /// [`FileHeader`] stamped at offset 0. `capacity` is the usable byte
    /// count — size it with the same `footprint` helpers as any other
    /// backend. Fails if the file already exists (chaos/restart loops unlink
    /// stale arenas explicitly; silently reusing one would hide a leak).
    #[cfg(all(unix, not(miri)))]
    pub fn file_create(
        path: impl AsRef<std::path::Path>,
        capacity: usize,
    ) -> Result<Arc<Arena>, ArenaError> {
        let path = path.as_ref();
        if capacity == 0 || capacity > MAX_ARENA_CAPACITY {
            return Err(ArenaError::InvalidCapacity(capacity));
        }
        let total = capacity + FILE_HEADER_BYTES;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(ArenaError::Io)?;
        file.set_len(total as u64).map_err(ArenaError::Io)?;
        let storage = Self::map_file(&file, total)?;
        // The fd closes when `file` drops below; the mapping outlives it.
        let arena = Arena {
            storage,
            capacity: total,
            cursor: AtomicUsize::new(FILE_HEADER_BYTES),
            backend: ArenaBackend::File,
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::SeqCst),
            preserve: false,
            path: Some(path.to_path_buf()),
            attach_epoch: Some(1),
            attached_dirty: false,
        };
        let header = arena.file_header().expect("file backend has a header");
        header
            .layout_version
            .store(ARENA_LAYOUT_VERSION, Ordering::SeqCst);
        header.capacity.store(capacity as u64, Ordering::SeqCst);
        header.attach_epoch.store(1, Ordering::SeqCst);
        header.dirty.store(1, Ordering::SeqCst);
        // Magic last: a create torn before this line never validates.
        header.magic.store(ARENA_MAGIC, Ordering::SeqCst);
        Ok(Arc::new(arena))
    }

    /// Attaches to an existing named arena by path, validating its
    /// [`FileHeader`] (magic, layout version, capacity vs file size). On
    /// success the header's attach epoch is bumped, the dirty flag is
    /// raised, and the arena is returned in *preserve* mode: re-running the
    /// same `*_in` constructors in the same order re-claims the same offsets
    /// **without** re-initializing the bytes — [`Arena::was_dirty`] then
    /// tells the caller whether recovery must run over the surviving state.
    #[cfg(all(unix, not(miri)))]
    pub fn file_attach(path: impl AsRef<std::path::Path>) -> Result<Arc<Arena>, ArenaError> {
        let path = path.as_ref();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(ArenaError::Io)?;
        let total = file.metadata().map_err(ArenaError::Io)?.len();
        if (total as usize) < FILE_HEADER_BYTES + ARENA_ALIGN
            || total as usize > MAX_ARENA_CAPACITY + FILE_HEADER_BYTES
        {
            return Err(ArenaError::BadHeader(format!(
                "file size {total} cannot hold a header plus any capacity"
            )));
        }
        let total = total as usize;
        let storage = Self::map_file(&file, total)?;
        let mut arena = Arena {
            storage,
            capacity: total,
            cursor: AtomicUsize::new(FILE_HEADER_BYTES),
            backend: ArenaBackend::File,
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::SeqCst),
            preserve: true,
            path: Some(path.to_path_buf()),
            attach_epoch: None,
            attached_dirty: false,
        };
        {
            let header = arena.file_header().expect("file backend has a header");
            let magic = header.magic.load(Ordering::SeqCst);
            if magic != ARENA_MAGIC {
                return Err(ArenaError::BadHeader(format!(
                    "magic {magic:#018x} != {ARENA_MAGIC:#018x} (not an arena, or a torn create)"
                )));
            }
            let version = header.layout_version.load(Ordering::SeqCst);
            if version != ARENA_LAYOUT_VERSION {
                return Err(ArenaError::BadHeader(format!(
                    "layout version {version} != {ARENA_LAYOUT_VERSION}"
                )));
            }
            let capacity = header.capacity.load(Ordering::SeqCst);
            if capacity as usize != total - FILE_HEADER_BYTES {
                return Err(ArenaError::BadHeader(format!(
                    "header capacity {capacity} disagrees with file size {total}"
                )));
            }
        }
        // Validated: join the arena. The dirty flag is a swap so we learn
        // whether a previous fleet left without the clean handshake, and the
        // epoch bump gives this attacher a unique recovery-arbitration
        // ticket.
        let (was_dirty, epoch) = {
            let header = arena.file_header().expect("validated above");
            (
                header.dirty.swap(1, Ordering::SeqCst) != 0,
                header.attach_epoch.fetch_add(1, Ordering::SeqCst) + 1,
            )
        };
        arena.attached_dirty = was_dirty;
        arena.attach_epoch = Some(epoch);
        Ok(Arc::new(arena))
    }

    #[cfg(all(unix, not(miri)))]
    fn map_file(file: &std::fs::File, len: usize) -> Result<Storage, ArenaError> {
        use std::os::unix::io::AsRawFd;
        // Safety: mapping a regular file we just opened read/write, length
        // checked against the file size by the callers; the result is
        // checked against MAP_FAILED before use.
        let raw = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if raw == libc::MAP_FAILED {
            return Err(ArenaError::MapFailed(std::io::Error::last_os_error()));
        }
        let base = NonNull::new(raw.cast::<u8>())
            .ok_or_else(|| ArenaError::MapFailed(std::io::Error::last_os_error()))?;
        Ok(Storage::File { base, len })
    }

    #[cfg(all(unix, not(miri)))]
    fn map_shared(capacity: usize) -> Result<Storage, ArenaError> {
        // Safety: anonymous mapping, no fd, flags and prot are constants;
        // the result is checked against MAP_FAILED before use. An anonymous
        // mapping is zero-filled by the kernel, satisfying the zero-valid
        // ArenaPod contract the same way alloc_zeroed does.
        let raw = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                capacity,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw == libc::MAP_FAILED {
            return Err(ArenaError::MapFailed(std::io::Error::last_os_error()));
        }
        let base = NonNull::new(raw.cast::<u8>())
            .ok_or_else(|| ArenaError::MapFailed(std::io::Error::last_os_error()))?;
        Ok(Storage::Shared {
            base,
            len: capacity,
        })
    }

    #[cfg(not(all(unix, not(miri))))]
    fn map_shared(_capacity: usize) -> Result<Storage, ArenaError> {
        Err(ArenaError::UnsupportedBackend(ArenaBackend::Shared))
    }

    /// The backend this arena was created on.
    pub fn backend(&self) -> ArenaBackend {
        self.backend
    }

    /// The backing file's path (file backend only).
    pub fn path(&self) -> Option<&std::path::Path> {
        self.path.as_deref()
    }

    /// Whether this arena is in attach/preserve mode: the `*_with`
    /// allocators claim offsets but keep the bytes found in the file.
    pub fn preserves_contents(&self) -> bool {
        self.preserve
    }

    /// This mapping's attach epoch (file backend only): 1 for the creator,
    /// bumped once per [`Arena::file_attach`]. Distinct per attacher, which
    /// is what recovery's single-winner arbitration keys on.
    pub fn attach_epoch(&self) -> Option<u64> {
        self.attach_epoch
    }

    /// Whether the dirty flag was already up when this process attached —
    /// i.e. a previous fleet died (or exited) without [`Arena::mark_clean`]
    /// and the surviving state needs recovery. Always `false` for the
    /// creator and for non-file backends.
    pub fn was_dirty(&self) -> bool {
        self.attached_dirty
    }

    /// The header's dirty flag as of now (file backend only; `false`
    /// otherwise). Raised by every attach, cleared only by
    /// [`Arena::mark_clean`].
    pub fn is_dirty(&self) -> bool {
        self.file_header()
            .map(|h| h.dirty.load(Ordering::SeqCst) != 0)
            .unwrap_or(false)
    }

    /// Clears the dirty flag — the orderly-shutdown handshake. Call only
    /// when every structure in the arena is quiescent (no leases held, no
    /// operations in flight); the next attacher will then skip recovery.
    /// No-op on non-file backends.
    pub fn mark_clean(&self) {
        if let Some(header) = self.file_header() {
            header.dirty.store(0, Ordering::SeqCst);
        }
    }

    /// The validated header of a file-backed arena; `None` for the heap and
    /// anonymous-shared backends (which have no header line).
    pub fn file_header(&self) -> Option<&FileHeader> {
        #[cfg(all(unix, not(miri)))]
        if matches!(self.storage, Storage::File { .. }) {
            debug_assert!(std::mem::size_of::<FileHeader>() <= FILE_HEADER_BYTES);
            // Safety: the file backend reserves the first FILE_HEADER_BYTES
            // (one mapped, page-aligned line) for exactly this struct, whose
            // fields are all atomics (zero-valid, Sync); the bump cursor
            // starts past it so no allocation can alias it.
            return Some(unsafe { &*self.storage.base().as_ptr().cast::<FileHeader>() });
        }
        None
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes consumed by allocations so far (always a multiple of 64).
    pub fn used(&self) -> usize {
        self.cursor.load(Ordering::SeqCst)
    }

    /// Bytes still available for allocation.
    pub fn remaining(&self) -> usize {
        self.capacity - self.used()
    }

    /// This arena's process-local id, the high bits of every derived
    /// [`Loc`]. Ids are allocation-order stable within a process, which is
    /// all the schedule explorer's conflict analysis needs.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The stable [`Loc`] for the word at `offset`.
    ///
    /// Encoding: bit 63 tags arena-derived locations (keeping them disjoint
    /// from the global fresh-`Loc` counter), bits 34..63 hold the arena id
    /// and bits 0..34 the byte offset. Two registers in the same arena thus
    /// conflict iff they occupy the same offset, regardless of backend.
    pub fn loc_for(&self, offset: usize) -> Loc {
        debug_assert!(offset < MAX_ARENA_CAPACITY);
        Loc::from_raw((1 << 63) | ((self.id & 0x1FFF_FFFF) << 34) | offset as u64)
    }

    /// Claims `size` bytes at the next 64-byte boundary, returning the
    /// offset. Panics if the arena is exhausted.
    fn bump(&self, size: usize) -> usize {
        let padded = size
            .checked_add(ARENA_ALIGN - 1)
            .map(|s| s & !(ARENA_ALIGN - 1))
            .unwrap_or(usize::MAX);
        let mut current = self.cursor.load(Ordering::SeqCst);
        loop {
            let next = current.saturating_add(padded);
            assert!(
                next <= self.capacity,
                "arena exhausted: {size} bytes requested, {} of {} in use \
                 (size the arena with the structure's footprint helper)",
                current,
                self.capacity
            );
            match self
                .cursor
                .compare_exchange(current, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return current,
                Err(actual) => current = actual,
            }
        }
    }

    /// Allocates one zero-initialized `T`, on its own cache line.
    pub fn alloc<T: ArenaPod>(self: &Arc<Self>) -> ArenaRef<T> {
        let offset = self.claim::<T>(1);
        self.pin(offset)
    }

    /// Allocates one `T` initialized to `value`, on its own cache line. In
    /// attach/preserve mode ([`Arena::file_attach`]) the offset is claimed
    /// but the initializing write is skipped: the bytes already in the file
    /// are the value (T is zero-valid and pointer-free, so whatever a
    /// previous fleet left is a valid T — possibly a torn one, which is
    /// recovery's problem, not memory safety's).
    pub fn alloc_with<T: ArenaPod>(self: &Arc<Self>, value: T) -> ArenaRef<T> {
        let offset = self.claim::<T>(1);
        if !self.preserve {
            // Safety: bump() just handed this region out exclusively; nothing
            // can hold a reference into it yet, and T has no Drop to leak.
            unsafe { std::ptr::write(self.raw_at::<T>(offset), value) };
        }
        self.pin(offset)
    }

    /// Allocates a zero-initialized slice of `len` elements, contiguous
    /// from a 64-byte-aligned base.
    pub fn alloc_slice<T: ArenaPod>(self: &Arc<Self>, len: usize) -> ArenaSliceRef<T> {
        let offset = self.claim::<T>(len);
        self.pin_slice(offset, len)
    }

    /// Allocates a slice of `len` elements, initializing element `i` with
    /// `init(i, loc)` where `loc` is the element's derived [`Loc`]. In
    /// attach/preserve mode the offsets are claimed but the writes are
    /// skipped, exactly as in [`Arena::alloc_with`] (the init closure still
    /// runs, since callers may rely on its side effects for bookkeeping).
    pub fn alloc_slice_with<T: ArenaPod>(
        self: &Arc<Self>,
        len: usize,
        mut init: impl FnMut(usize, Loc) -> T,
    ) -> ArenaSliceRef<T> {
        let offset = self.claim::<T>(len);
        for i in 0..len {
            let elem_offset = offset + i * std::mem::size_of::<T>();
            let value = init(i, self.loc_for(elem_offset));
            if !self.preserve {
                // Safety: freshly claimed exclusive region, as in alloc_with.
                unsafe { std::ptr::write(self.raw_at::<T>(elem_offset), value) };
            }
        }
        self.pin_slice(offset, len)
    }

    /// Claims room for `len` contiguous `T`s (at least one byte) at the
    /// next 64-byte boundary, returning the offset.
    fn claim<T: ArenaPod>(&self, len: usize) -> usize {
        assert!(
            std::mem::align_of::<T>() <= ARENA_ALIGN,
            "ArenaPod alignment exceeds the arena's 64-byte allocation grain"
        );
        let bytes = std::mem::size_of::<T>()
            .checked_mul(len)
            .expect("slice size overflow");
        self.bump(bytes.max(1))
    }

    /// Resolves the `T` at `offset` once, into a view that keeps the arena
    /// alive. Called after any initializing write, so the view's pointer is
    /// derived last.
    fn pin<T: ArenaPod>(self: &Arc<Self>, offset: usize) -> ArenaRef<T> {
        ArenaRef {
            ptr: NonNull::from(self.resolve::<T>(offset)),
            offset,
            arena: Arc::clone(self),
        }
    }

    /// The slice form of [`Arena::pin`].
    fn pin_slice<T: ArenaPod>(self: &Arc<Self>, offset: usize, len: usize) -> ArenaSliceRef<T> {
        ArenaSliceRef {
            // An empty slice resolves to a dangling-but-well-aligned base,
            // exactly what from_raw_parts requires for len 0.
            ptr: NonNull::from(self.resolve_slice::<T>(offset, len)).cast::<T>(),
            len,
            offset,
            arena: Arc::clone(self),
        }
    }

    /// Raw pointer to `offset`, bounds-checked against the allocated prefix.
    fn raw_at<T>(&self, offset: usize) -> *mut T {
        let size = std::mem::size_of::<T>();
        assert!(
            offset
                .checked_add(size)
                .is_some_and(|end| end <= self.used()),
            "arena offset out of bounds (offset {offset}, size {size}, used {})",
            self.used()
        );
        debug_assert_eq!(offset % std::mem::align_of::<T>().max(1), 0);
        // Safety: offset + size lies within the allocated (hence mapped and
        // initialized) prefix of the region.
        unsafe { self.storage.base().as_ptr().add(offset).cast::<T>() }
    }

    /// Resolves a typed reference at `offset`. Internal: the views pin it
    /// once at allocation.
    fn resolve<T: ArenaPod>(&self, offset: usize) -> &T {
        // Safety: raw_at bounds-checks; ArenaPod guarantees the zeroed (or
        // explicitly written) bytes are a valid T and that &T is Sync.
        unsafe { &*self.raw_at::<T>(offset) }
    }

    fn resolve_slice<T: ArenaPod>(&self, offset: usize, len: usize) -> &[T] {
        if len == 0 {
            return &[];
        }
        let bytes = std::mem::size_of::<T>()
            .checked_mul(len)
            .expect("slice size overflow");
        assert!(
            offset
                .checked_add(bytes)
                .is_some_and(|end| end <= self.used()),
            "arena slice out of bounds"
        );
        // Safety: as in resolve, for the whole contiguous run.
        unsafe { std::slice::from_raw_parts(self.raw_at::<T>(offset), len) }
    }
}

/// A single shared word that lives either *inline* (inside its owning
/// structure, the process-private default — exactly the pre-arena layout)
/// or in an [`Arena`], where it is addressable by offset from any process
/// mapping the region.
///
/// This is the building block downstream crates use to make a structure
/// arena-capable without writing any unsafe code: store an
/// `ArenaCell<AtomicU64>`, call [`ArenaCell::get`] on the hot path, and
/// offer a `*_in` constructor that forwards to [`ArenaCell::new_in`].
#[derive(Debug)]
pub struct ArenaCell<T: ArenaPod>(CellRepr<T>);

#[derive(Debug)]
enum CellRepr<T: ArenaPod> {
    Inline(T),
    /// Pinned at construction: the hot-path `get` is a plain dereference,
    /// never a per-access `base + offset` resolution.
    Arena(ArenaRef<T>),
}

impl<T: ArenaPod> ArenaCell<T> {
    /// Wraps a value stored inline in the owning structure.
    pub fn inline(value: T) -> Self {
        ArenaCell(CellRepr::Inline(value))
    }

    /// Allocates the value in `arena`, on its own cache line.
    pub fn new_in(arena: &Arc<Arena>, value: T) -> Self {
        ArenaCell(CellRepr::Arena(arena.alloc_with(value)))
    }

    /// Resolves the word, wherever it lives.
    #[inline]
    pub fn get(&self) -> &T {
        match &self.0 {
            CellRepr::Inline(value) => value,
            CellRepr::Arena(word) => word,
        }
    }

    /// The stable offset-derived [`Loc`] of an arena-resident word; `None`
    /// for inline cells (whose owner allocates a fresh global `Loc`).
    pub fn loc(&self) -> Option<Loc> {
        match &self.0 {
            CellRepr::Inline(_) => None,
            CellRepr::Arena(word) => Some(word.loc()),
        }
    }
}

impl<T: ArenaPod + Default> Default for ArenaCell<T> {
    fn default() -> Self {
        ArenaCell::inline(T::default())
    }
}

/// A pinned, pre-resolved view of a single `T` in an [`Arena`], as
/// [`Arena::alloc`] and [`Arena::alloc_with`] return it.
///
/// The `base + offset` resolution (bounds check included) happens **once**,
/// at allocation, and the resulting pointer is stored next to an owning
/// [`Arc<Arena>`] so it can never dangle. Dereferencing is a plain pointer
/// access, which is what makes arena-backed structures match the performance
/// of their pre-arena `Box`-based layouts on hot paths. The view also keeps
/// the word's offset, the layout fact that survives a process boundary.
pub struct ArenaRef<T: ArenaPod> {
    ptr: NonNull<T>,
    offset: usize,
    /// Keeps the storage mapped for as long as the pointer is handed out.
    arena: Arc<Arena>,
}

// Safety: the only access an ArenaRef offers is `&T`, and ArenaPod requires
// T: Sync (and Send); the Arc keeps the region alive on every thread.
unsafe impl<T: ArenaPod> Send for ArenaRef<T> {}
unsafe impl<T: ArenaPod> Sync for ArenaRef<T> {}

impl<T: ArenaPod> ArenaRef<T> {
    /// The byte offset of the value within its arena.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The arena holding the value.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// The stable [`Loc`] of this word (see [`Arena::loc_for`]).
    pub fn loc(&self) -> Loc {
        self.arena.loc_for(self.offset)
    }
}

impl<T: ArenaPod> std::ops::Deref for ArenaRef<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // Safety: pinned at allocation from a bounds-checked resolve; the
        // owned Arc keeps the backing region mapped for &self's lifetime.
        unsafe { self.ptr.as_ref() }
    }
}

impl<T: ArenaPod> Clone for ArenaRef<T> {
    fn clone(&self) -> Self {
        ArenaRef {
            ptr: self.ptr,
            offset: self.offset,
            arena: Arc::clone(&self.arena),
        }
    }
}

impl<T: ArenaPod> fmt::Debug for ArenaRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArenaRef")
            .field("offset", &self.offset)
            .finish()
    }
}

/// A pinned, pre-resolved view of a contiguous `[T]` in an [`Arena`]
/// (see [`ArenaRef`]; this is the slice form, returned by
/// [`Arena::alloc_slice`] and [`Arena::alloc_slice_with`]).
pub struct ArenaSliceRef<T: ArenaPod> {
    ptr: NonNull<T>,
    len: usize,
    offset: usize,
    arena: Arc<Arena>,
}

// Safety: as for ArenaRef — shared access only, T: Sync, region kept alive.
unsafe impl<T: ArenaPod> Send for ArenaSliceRef<T> {}
unsafe impl<T: ArenaPod> Sync for ArenaSliceRef<T> {}

impl<T: ArenaPod> ArenaSliceRef<T> {
    /// The byte offset of the first element within its arena.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The arena holding the elements.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// The stable [`Loc`] of element `index` (see [`Arena::loc_for`]).
    pub fn loc_at(&self, index: usize) -> Loc {
        assert!(index < self.len, "arena slice index out of range");
        self.arena
            .loc_for(self.offset + index * std::mem::size_of::<T>())
    }
}

impl<T: ArenaPod> std::ops::Deref for ArenaSliceRef<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // Safety: pinned at allocation from a bounds-checked resolve_slice;
        // the owned Arc keeps the backing region mapped for &self's lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: ArenaPod> Clone for ArenaSliceRef<T> {
    fn clone(&self) -> Self {
        ArenaSliceRef {
            ptr: self.ptr,
            len: self.len,
            offset: self.offset,
            arena: Arc::clone(&self.arena),
        }
    }
}

impl<T: ArenaPod> fmt::Debug for ArenaSliceRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArenaSliceRef")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

/// The calling operating-system process's identifier, for stamping lease
/// ownership in cross-process deployments (see the crash-robust reclamation
/// layer in the `adaptive_renaming` crate).
#[cfg(all(unix, not(miri)))]
pub fn os_pid() -> u32 {
    // SAFETY: getpid takes no arguments and cannot fail.
    #[allow(unsafe_code)]
    let pid = unsafe { libc::getpid() };
    pid as u32
}

/// Probes whether the operating-system process `pid` is alive: the classical
/// `kill(pid, 0)` existence check (signal 0 delivers nothing). A `0` pid is
/// reported alive — it addresses the caller's process group, never a
/// peer, so it can never be a crashed lease owner.
///
/// `EPERM` failures (a live process owned by another user) are
/// indistinguishable from death here; deployments sharing an arena across
/// users would need a richer probe. For the sibling processes forked by this
/// workspace's tests and benchmarks the check is exact.
#[cfg(all(unix, not(miri)))]
pub fn os_process_alive(pid: u32) -> bool {
    if pid == 0 {
        return true;
    }
    // SAFETY: signal 0 performs permission and existence checking only; no
    // signal is delivered to the target.
    #[allow(unsafe_code)]
    let rc = unsafe { libc::kill(pid as libc::pid_t, 0) };
    rc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_cache_line_aligned_and_zeroed() {
        let arena = Arena::heap(4096);
        let a = arena.alloc::<AtomicU64>();
        let b = arena.alloc::<AtomicU64>();
        let s = arena.alloc_slice::<AtomicU64>(5);
        for offset in [a.offset(), b.offset(), s.offset()] {
            assert_eq!(offset % ARENA_ALIGN, 0, "allocation not line-aligned");
        }
        assert_ne!(a.offset(), b.offset());
        assert_eq!(a.load(Ordering::SeqCst), 0);
        assert!(s.iter().all(|w| w.load(Ordering::SeqCst) == 0));
        // Single allocations each own a full line; slices pack contiguously.
        assert!(b.offset() - a.offset() >= 64);
        let base = &s[0] as *const AtomicU64 as usize;
        let next = &s[1] as *const AtomicU64 as usize;
        assert_eq!(next - base, std::mem::size_of::<AtomicU64>());
        // The resolved base pointer is itself 64-byte aligned.
        assert_eq!(base % 64, 0);
    }

    #[test]
    fn alloc_with_and_slice_with_initialize_values() {
        let arena = Arena::heap(4096);
        let word = arena.alloc_with(AtomicU64::new(41));
        assert_eq!(word.load(Ordering::SeqCst), 41);
        let slab = arena.alloc_slice_with::<u64>(4, |i, loc| {
            assert!(!loc.is_anon());
            (i as u64) * 10
        });
        assert_eq!(&slab[..], &[0, 10, 20, 30]);
    }

    #[test]
    fn derived_locs_are_stable_unique_and_tagged() {
        let arena = Arena::heap(4096);
        let a = arena.alloc::<AtomicU64>();
        let b = arena.alloc::<AtomicU64>();
        let la = a.loc();
        let lb = b.loc();
        assert_ne!(la, lb);
        assert_eq!(
            la,
            arena.loc_for(a.offset()),
            "locs are pure offset functions"
        );
        assert!(la.as_u64() & (1 << 63) != 0, "arena locs carry the tag bit");
        assert!(!la.is_anon());
        let s = arena.alloc_slice::<AtomicU64>(3);
        assert_ne!(s.loc_at(0), s.loc_at(1));
    }

    #[test]
    fn used_grows_in_line_multiples_and_remaining_tracks() {
        let arena = Arena::heap(1024);
        assert_eq!(arena.used(), 0);
        arena.alloc::<u8>();
        assert_eq!(arena.used(), 64, "even a byte claims a full line");
        arena.alloc_slice::<AtomicU64>(9); // 72 bytes -> 128
        assert_eq!(arena.used(), 192);
        assert_eq!(arena.remaining(), 1024 - 192);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn exhaustion_panics_with_context() {
        let arena = Arena::heap(128);
        arena.alloc_slice::<AtomicU64>(8);
        arena.alloc_slice::<AtomicU64>(9);
    }

    #[test]
    fn zero_capacity_and_oversize_are_rejected() {
        assert!(matches!(
            Arena::with_backend(ArenaBackend::Heap, 0),
            Err(ArenaError::InvalidCapacity(0))
        ));
        assert!(Arena::with_backend(ArenaBackend::Heap, MAX_ARENA_CAPACITY + 1).is_err());
    }

    #[test]
    fn backend_display_names_each_backend() {
        assert_eq!(ArenaBackend::Heap.to_string(), "heap");
        assert_eq!(ArenaBackend::Shared.to_string(), "shared");
        assert_eq!(ArenaBackend::File.to_string(), "file");
        assert_eq!(ArenaBackend::default(), ArenaBackend::Heap);
    }

    #[test]
    fn concurrent_bump_hands_out_disjoint_lines() {
        let arena = Arena::heap(64 * 256);
        let offsets: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let arena = Arc::clone(&arena);
                    s.spawn(move || {
                        (0..64)
                            .map(|_| arena.alloc::<AtomicU64>().offset())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), offsets.len(), "no two allocations overlap");
    }

    #[cfg(all(unix, not(miri)))]
    #[test]
    fn shared_backend_allocates_and_stores() {
        let arena = Arena::shared(4096).expect("anonymous MAP_SHARED mapping");
        assert_eq!(arena.backend(), ArenaBackend::Shared);
        let word = arena.alloc_with(AtomicU64::new(3));
        word.fetch_add(4, Ordering::SeqCst);
        assert_eq!(word.load(Ordering::SeqCst), 7);
    }

    #[cfg(all(unix, not(miri)))]
    mod file_backend {
        use super::*;

        fn scratch_path(tag: &str) -> std::path::PathBuf {
            let path = std::env::temp_dir().join(format!(
                "arena_{}_{}_{tag}.shm",
                std::process::id(),
                NEXT_ARENA_ID.load(Ordering::SeqCst)
            ));
            let _ = std::fs::remove_file(&path);
            path
        }

        #[test]
        fn create_write_drop_attach_round_trips_bytes() {
            let path = scratch_path("roundtrip");
            let created = Arena::file_create(&path, 4096).expect("file arena");
            assert_eq!(created.backend(), ArenaBackend::File);
            assert_eq!(created.path(), Some(path.as_path()));
            assert_eq!(created.attach_epoch(), Some(1));
            assert!(!created.was_dirty(), "the creator never sees dirt");
            assert!(created.is_dirty(), "attached processes raise the flag");
            assert!(!created.preserves_contents());
            let word = created.alloc_with(AtomicU64::new(7));
            let slab = created.alloc_slice::<AtomicU64>(4);
            slab[2].store(99, Ordering::SeqCst);
            word.store(41, Ordering::SeqCst);
            // The views hold the mapping too: drop them with the arena.
            let (word_offset, slab_offset) = (word.offset(), slab.offset());
            drop((word, slab, created));

            // A fresh, unrelated mapping of the same path sees the bytes.
            let attached = Arena::file_attach(&path).expect("attach by path");
            assert!(attached.preserves_contents());
            assert_eq!(attached.attach_epoch(), Some(2));
            assert!(attached.was_dirty(), "no clean handshake happened");
            // Re-run the same allocation sequence: same offsets, preserved
            // values (alloc_with must NOT overwrite the surviving 41).
            let word2 = attached.alloc_with(AtomicU64::new(0));
            let slab2 = attached.alloc_slice::<AtomicU64>(4);
            assert_eq!(word2.offset(), word_offset);
            assert_eq!(slab2.offset(), slab_offset);
            assert_eq!(word2.load(Ordering::SeqCst), 41);
            assert_eq!(slab2[2].load(Ordering::SeqCst), 99);
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn clean_handshake_clears_the_dirty_flag_for_the_next_attach() {
            let path = scratch_path("clean");
            let created = Arena::file_create(&path, 1024).expect("file arena");
            created.mark_clean();
            assert!(!created.is_dirty());
            drop(created);
            let attached = Arena::file_attach(&path).expect("attach");
            assert!(!attached.was_dirty(), "the handshake was completed");
            assert!(attached.is_dirty(), "but attaching re-raises the flag");
            std::fs::remove_file(&path).unwrap();
        }

        #[test]
        fn header_validation_rejects_non_arenas_and_torn_creates() {
            // Not a file at all.
            let missing = scratch_path("missing");
            assert!(matches!(
                Arena::file_attach(&missing),
                Err(ArenaError::Io(_))
            ));
            // A too-small file cannot hold the header.
            let tiny = scratch_path("tiny");
            std::fs::write(&tiny, b"hi").unwrap();
            assert!(matches!(
                Arena::file_attach(&tiny),
                Err(ArenaError::BadHeader(_))
            ));
            std::fs::remove_file(&tiny).unwrap();
            // A right-sized file of zeros has no magic: exactly what a
            // create torn before its final magic store leaves behind.
            let torn = scratch_path("torn");
            std::fs::write(&torn, vec![0u8; 4096 + FILE_HEADER_BYTES]).unwrap();
            assert!(matches!(
                Arena::file_attach(&torn),
                Err(ArenaError::BadHeader(_))
            ));
            std::fs::remove_file(&torn).unwrap();
        }

        #[test]
        fn attach_refuses_an_older_layout_version() {
            for old in [1, 2, 3] {
                let path = scratch_path("version");
                let arena = Arena::file_create(&path, 1024).expect("file arena");
                let header = arena.file_header().expect("file arenas have headers");
                assert_eq!(header.layout_version.load(Ordering::SeqCst), 4);
                // A file written by an older build: same magic, old layout.
                header.layout_version.store(old, Ordering::SeqCst);
                drop(arena);
                match Arena::file_attach(&path) {
                    Err(ArenaError::BadHeader(reason)) => {
                        assert!(
                            reason.contains(&format!("layout version {old}")),
                            "{reason}"
                        )
                    }
                    other => panic!("a version-{old} arena was not refused: {other:?}"),
                }
                std::fs::remove_file(&path).unwrap();
            }
        }

        #[test]
        fn create_refuses_existing_files_and_zero_capacities() {
            let path = scratch_path("exists");
            let arena = Arena::file_create(&path, 1024).expect("file arena");
            assert!(matches!(
                Arena::file_create(&path, 1024),
                Err(ArenaError::Io(_))
            ));
            drop(arena);
            std::fs::remove_file(&path).unwrap();
            assert!(matches!(
                Arena::file_create(scratch_path("zero"), 0),
                Err(ArenaError::InvalidCapacity(0))
            ));
        }

        #[test]
        fn header_line_is_reserved_and_capacity_accounts_for_it() {
            let path = scratch_path("layout");
            let arena = Arena::file_create(&path, 1024).expect("file arena");
            // The first allocation lands after the header line.
            let first = arena.alloc::<AtomicU64>().offset();
            assert_eq!(first, FILE_HEADER_BYTES);
            // The full requested capacity is usable beyond the header.
            assert_eq!(arena.remaining(), 1024 - 64);
            let header = arena.file_header().expect("file arenas have headers");
            assert_eq!(header.magic.load(Ordering::SeqCst), ARENA_MAGIC);
            assert_eq!(header.capacity.load(Ordering::SeqCst), 1024);
            drop(arena);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[cfg(miri)]
    #[test]
    fn shared_backend_is_rejected_under_miri() {
        assert!(matches!(
            Arena::with_backend(ArenaBackend::Shared, 4096),
            Err(ArenaError::UnsupportedBackend(_))
        ));
    }

    #[test]
    fn refs_alias_their_offsets_and_survive_threads() {
        let arena = Arena::heap(4096);
        let word = arena.alloc_with(AtomicU64::new(3));
        // The view, its offset-derived Loc and a fresh resolve of its offset
        // all name the same physical word of the same arena.
        assert!(Arc::ptr_eq(word.arena(), &arena));
        assert_eq!(word.loc(), arena.loc_for(word.offset()));
        arena
            .resolve::<AtomicU64>(word.offset())
            .store(9, Ordering::SeqCst);
        assert_eq!(word.load(Ordering::SeqCst), 9);

        let slab = arena.alloc_slice::<AtomicU64>(4);
        assert_eq!(slab.len(), 4);
        assert!(Arc::ptr_eq(slab.arena(), &arena));
        assert_eq!(slab.loc_at(2), arena.loc_for(slab.offset() + 2 * 8));
        arena.resolve_slice::<AtomicU64>(slab.offset(), 4)[2].store(7, Ordering::SeqCst);
        assert_eq!(slab[2].load(Ordering::SeqCst), 7);

        // Clones are cheap aliases, and refs cross threads (the Arc inside
        // keeps the region alive even if the caller drops its own arena).
        let other = word.clone();
        drop(arena);
        std::thread::scope(|scope| {
            scope.spawn(move || other.fetch_add(1, Ordering::SeqCst));
        });
        assert_eq!(word.load(Ordering::SeqCst), 10);
        assert!(format!("{word:?}").contains("ArenaRef"));
        assert!(format!("{slab:?}").contains("ArenaSliceRef"));
    }
}
