//! Physical memory of the emulated machine.

use std::fmt;

use crate::mmu::PAGE_SIZE;

/// One page of backing store, in bytes.
const PAGE: usize = PAGE_SIZE as usize;

/// Byte-addressable physical memory with bounds-checked access.
///
/// Spatial partitioning ultimately protects ranges of this memory: the MMU
/// translates partition-virtual addresses into physical frames here, and
/// interpartition communication performs the "memory-to-memory copies not
/// violating spatial separation requirements" (Sect. 2.1) between regions
/// owned by different partitions.
///
/// Installed memory is paged on demand, the way an emulator backs guest
/// RAM: every byte reads as zero until it is written, and only the
/// [`PAGE_SIZE`] pages that have been written hold backing store. A
/// machine with 16 MiB installed costs one pointer per page until its
/// software touches memory. Bounds are checked against the installed
/// size, not against what is resident.
///
/// # Examples
///
/// ```
/// use air_hw::PhysicalMemory;
///
/// let mut mem = PhysicalMemory::new(64 * 1024);
/// mem.write(0x100, b"hello")?;
/// let mut buf = [0u8; 5];
/// mem.read(0x100, &mut buf)?;
/// assert_eq!(&buf, b"hello");
/// # Ok::<(), air_hw::memory::OutOfRange>(())
/// ```
#[derive(Clone)]
pub struct PhysicalMemory {
    size: usize,
    /// One slot per page of installed memory; `None` reads as zeros.
    pages: Vec<Option<Box<[u8; PAGE]>>>,
}

/// Error returned when a physical access falls outside installed memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// First byte of the offending access.
    pub addr: u64,
    /// Length of the offending access.
    pub len: usize,
    /// Installed memory size.
    pub size: usize,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical access [{:#x}, {:#x}) outside installed memory of {} bytes",
            self.addr,
            self.addr + self.len as u64,
            self.size
        )
    }
}

impl std::error::Error for OutOfRange {}

/// Splits the access `[start, start + len)` at page boundaries into
/// `(page, offset in page, offset in access, length)` pieces.
fn pieces(start: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = start + done;
        let offset = at % PAGE;
        let n = (PAGE - offset).min(len - done);
        let piece = (at / PAGE, offset, done, n);
        done += n;
        Some(piece)
    })
}

impl PhysicalMemory {
    /// Installs `size` bytes of zeroed memory. No page is resident yet.
    pub fn new(size: usize) -> Self {
        Self {
            size,
            pages: vec![None; size.div_ceil(PAGE)],
        }
    }

    /// Installed memory size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, OutOfRange> {
        let out_of_range = OutOfRange {
            addr,
            len,
            size: self.size,
        };
        let start = usize::try_from(addr).map_err(|_| out_of_range)?;
        let end = start.checked_add(len).ok_or(out_of_range)?;
        if end > self.size {
            return Err(out_of_range);
        }
        Ok(start)
    }

    /// Reads `buf.len()` bytes starting at physical `addr`.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if any byte of the access is beyond installed memory;
    /// no partial reads occur.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), OutOfRange> {
        let start = self.check(addr, buf.len())?;
        for (page, offset, at, n) in pieces(start, buf.len()) {
            let dst = &mut buf[at..at + n];
            match &self.pages[page] {
                Some(bytes) => dst.copy_from_slice(&bytes[offset..offset + n]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    /// Writes `data` starting at physical `addr`, making every page it
    /// touches resident.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if any byte of the access is beyond installed memory;
    /// no partial writes occur.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), OutOfRange> {
        let start = self.check(addr, data.len())?;
        for (page, offset, at, n) in pieces(start, data.len()) {
            let bytes = self.pages[page].get_or_insert_with(|| Box::new([0; PAGE]));
            bytes[offset..offset + n].copy_from_slice(&data[at..at + n]);
        }
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` within physical memory — the
    /// primitive behind local interpartition message transfer. Overlapping
    /// ranges copy as if through an intermediate buffer (memmove).
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if either range is beyond installed memory.
    pub fn copy_within(&mut self, src: u64, dst: u64, len: usize) -> Result<(), OutOfRange> {
        self.check(src, len)?;
        self.check(dst, len)?;
        let mut staged = vec![0; len];
        self.read(src, &mut staged)?;
        self.write(dst, &staged)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if `addr` is beyond installed memory.
    pub fn read_u8(&self, addr: u64) -> Result<u8, OutOfRange> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if `addr` is beyond installed memory.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), OutOfRange> {
        self.write(addr, &[value])
    }
}

impl fmt::Debug for PhysicalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalMemory")
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pages of `m` holding backing store.
    fn resident_pages(m: &PhysicalMemory) -> usize {
        m.pages.iter().filter(|p| p.is_some()).count()
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysicalMemory::new(1024);
        m.write(10, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        m.read(10, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(m.read_u8(11).unwrap(), 2);
    }

    #[test]
    fn bounds_are_enforced_exactly() {
        let mut m = PhysicalMemory::new(16);
        assert!(m.write(14, &[0, 0]).is_ok());
        let err = m.write(15, &[0, 0]).unwrap_err();
        assert_eq!(
            err,
            OutOfRange {
                addr: 15,
                len: 2,
                size: 16
            }
        );
        let mut buf = [0u8; 1];
        assert_eq!(
            m.read(16, &mut buf).unwrap_err(),
            OutOfRange {
                addr: 16,
                len: 1,
                size: 16
            }
        );
    }

    #[test]
    fn copy_within_moves_payloads() {
        let mut m = PhysicalMemory::new(64);
        m.write(0, b"message").unwrap();
        m.copy_within(0, 32, 7).unwrap();
        let mut buf = [0u8; 7];
        m.read(32, &mut buf).unwrap();
        assert_eq!(&buf, b"message");
        assert_eq!(
            m.copy_within(60, 0, 8).unwrap_err(),
            OutOfRange {
                addr: 60,
                len: 8,
                size: 64
            }
        );
        assert_eq!(
            m.copy_within(0, 60, 8).unwrap_err(),
            OutOfRange {
                addr: 60,
                len: 8,
                size: 64
            }
        );
    }

    #[test]
    fn huge_address_is_rejected_not_panicking() {
        let m = PhysicalMemory::new(16);
        let mut buf = [0u8; 1];
        assert_eq!(
            m.read(u64::MAX, &mut buf).unwrap_err(),
            OutOfRange {
                addr: u64::MAX,
                len: 1,
                size: 16
            }
        );
    }

    #[test]
    fn accesses_cross_page_boundaries() {
        let mut m = PhysicalMemory::new(3 * PAGE);
        m.write(4095, &[1, 2, 3]).unwrap();
        assert_eq!(resident_pages(&m), 2);
        let mut buf = [0u8; 5];
        m.read(4094, &mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3, 0]);
        assert_eq!(m.read_u8(4097).unwrap(), 3);
        // A write spanning three pages.
        let long: Vec<u8> = (0..=255).cycle().take(PAGE + 2).collect();
        m.write(PAGE as u64 - 1, &long).unwrap();
        let mut back = vec![0u8; long.len()];
        m.read(PAGE as u64 - 1, &mut back).unwrap();
        assert_eq!(back, long);
        assert_eq!(resident_pages(&m), 3);
    }

    #[test]
    fn unwritten_pages_read_as_zeros() {
        let mut m = PhysicalMemory::new(4 * PAGE);
        m.write(0, &[0xff; 8]).unwrap();
        let mut buf = [0xaau8; 16];
        m.read(2 * PAGE as u64 + 100, &mut buf).unwrap();
        assert_eq!(buf, [0; 16]);
        assert_eq!(resident_pages(&m), 1, "reads never make a page resident");
    }

    #[test]
    fn copy_within_is_a_memmove() {
        let mut m = PhysicalMemory::new(64);
        m.write(8, b"abcdefgh").unwrap();
        // Forward overlap: destination above the source.
        m.copy_within(8, 11, 8).unwrap();
        let mut buf = [0u8; 11];
        m.read(8, &mut buf).unwrap();
        assert_eq!(&buf, b"abcabcdefgh");
        // Backward overlap: destination below the source.
        m.copy_within(11, 9, 8).unwrap();
        let mut buf = [0u8; 11];
        m.read(8, &mut buf).unwrap();
        assert_eq!(&buf, b"aabcdefghgh");
    }

    #[test]
    fn copy_within_crosses_pages() {
        let mut m = PhysicalMemory::new(4 * PAGE);
        let payload: Vec<u8> = (1..=200).collect();
        m.write(PAGE as u64 - 100, &payload).unwrap();
        m.copy_within(PAGE as u64 - 100, 3 * PAGE as u64 - 50, 200)
            .unwrap();
        let mut buf = vec![0u8; 200];
        m.read(3 * PAGE as u64 - 50, &mut buf).unwrap();
        assert_eq!(buf, payload);
        // Copying from never-written memory copies zeros.
        m.copy_within(2 * PAGE as u64 - 10, PAGE as u64 - 100, 20)
            .unwrap();
        let mut buf = [0xaau8; 20];
        m.read(PAGE as u64 - 100, &mut buf).unwrap();
        assert_eq!(buf, [0; 20]);
    }

    #[test]
    fn installing_memory_makes_no_page_resident() {
        let m = PhysicalMemory::new(16 * 1024 * 1024);
        assert_eq!(m.size(), 16 * 1024 * 1024);
        assert_eq!(resident_pages(&m), 0);
        assert_eq!(m.read_u8(16 * 1024 * 1024 - 1).unwrap(), 0);
        assert_eq!(resident_pages(&m), 0);
    }

    #[test]
    fn a_partial_last_page_is_bounded_by_the_installed_size() {
        let mut m = PhysicalMemory::new(PAGE + 10);
        assert!(m.write(PAGE as u64, &[7; 10]).is_ok());
        assert_eq!(
            m.write(PAGE as u64 + 5, &[7; 6]).unwrap_err(),
            OutOfRange {
                addr: PAGE as u64 + 5,
                len: 6,
                size: PAGE + 10
            }
        );
    }
}
