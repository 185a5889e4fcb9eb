//! The kernel data types tracked by the cache model — the rows of Table 4.
//!
//! Sizes are the ones the paper reports for its Linux 2.6.35 kernel (e.g. a
//! `tcp_sock` is 1,664 bytes, i.e. 26 cache lines). Types whose Linux slab
//! cache is anonymous appear under their `slab:size-N` name, exactly as
//! DProf prints them.

use serde::{Deserialize, Serialize};

/// Cache line size on both evaluation machines.
pub const CACHE_LINE: usize = 64;

/// A kernel data type whose instances the cache model tracks at
/// field granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum DataType {
    /// Established TCP socket (`struct tcp_sock`).
    TcpSock,
    /// Packet metadata (`struct sk_buff`).
    SkBuff,
    /// Connection-initiation request socket (`struct tcp_request_sock`).
    TcpRequestSock,
    /// Thread kernel stacks and other 16 KB generic buffers.
    Slab16384,
    /// Small per-connection kernel buffers (128-byte slab).
    Slab128,
    /// Socket send-buffer chunks (1 KB slab).
    Slab1024,
    /// Page-sized packet data buffers (4 KB slab).
    Slab4096,
    /// Wait-queue entries and similar 192-byte objects.
    Slab192,
    /// File-descriptor-table entry for a socket.
    SocketFd,
    /// Process/thread descriptor (`struct task_struct`).
    TaskStruct,
    /// VFS file object for served static content (`struct file`).
    File,
    /// The (possibly cloned) TCP listen socket itself.
    ListenSock,
    /// Per-listen-socket busy-core bit vector (§3.3.1).
    BusyBitmap,
    /// A hash-table bucket head (established/request table chains).
    HashBucket,
}

impl DataType {
    /// All tracked types, in Table 4 row order first, then the extra
    /// reproduction-internal types.
    pub const ALL: [DataType; 14] = [
        DataType::TcpSock,
        DataType::SkBuff,
        DataType::TcpRequestSock,
        DataType::Slab16384,
        DataType::Slab128,
        DataType::Slab1024,
        DataType::Slab4096,
        DataType::SocketFd,
        DataType::Slab192,
        DataType::TaskStruct,
        DataType::File,
        DataType::ListenSock,
        DataType::BusyBitmap,
        DataType::HashBucket,
    ];

    /// The types Table 4 reports, in the paper's row order.
    pub const TABLE4: [DataType; 11] = [
        DataType::TcpSock,
        DataType::SkBuff,
        DataType::TcpRequestSock,
        DataType::Slab16384,
        DataType::Slab128,
        DataType::Slab1024,
        DataType::Slab4096,
        DataType::SocketFd,
        DataType::Slab192,
        DataType::TaskStruct,
        DataType::File,
    ];

    /// Dense index of the type (its declaration discriminant), used by the
    /// hot-path tables in `layout` and the slab free lists in place of a
    /// linear scan of [`DataType::ALL`].
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The type whose [`DataType::index`] is `i`. [`DataType::ALL`] is in
    /// Table 4 order, where `SocketFd` comes before `Slab192`, so it cannot
    /// serve as this table.
    ///
    /// # Panics
    ///
    /// Panics if no type has index `i`.
    #[inline]
    #[must_use]
    pub fn from_index(i: usize) -> DataType {
        match i {
            0 => DataType::TcpSock,
            1 => DataType::SkBuff,
            2 => DataType::TcpRequestSock,
            3 => DataType::Slab16384,
            4 => DataType::Slab128,
            5 => DataType::Slab1024,
            6 => DataType::Slab4096,
            7 => DataType::Slab192,
            8 => DataType::SocketFd,
            9 => DataType::TaskStruct,
            10 => DataType::File,
            11 => DataType::ListenSock,
            12 => DataType::BusyBitmap,
            13 => DataType::HashBucket,
            _ => panic!("no DataType has index {i}"),
        }
    }

    /// Object size in bytes (Table 4's "Size of Object" column).
    #[must_use]
    pub fn size(self) -> usize {
        match self {
            DataType::TcpSock => 1664,
            DataType::SkBuff => 512,
            DataType::TcpRequestSock => 128,
            DataType::Slab16384 => 16_384,
            DataType::Slab128 => 128,
            DataType::Slab1024 => 1024,
            DataType::Slab4096 => 4096,
            DataType::Slab192 => 192,
            DataType::SocketFd => 640,
            DataType::TaskStruct => 5184,
            DataType::File => 192,
            DataType::ListenSock => 1664,
            DataType::BusyBitmap => 64,
            DataType::HashBucket => 64,
        }
    }

    /// Number of cache lines the object spans.
    #[must_use]
    pub fn lines(self) -> usize {
        self.size().div_ceil(CACHE_LINE)
    }

    /// The label DProf (and Table 4) uses for the type.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DataType::TcpSock => "tcp_sock",
            DataType::SkBuff => "sk_buff",
            DataType::TcpRequestSock => "tcp_request_sock",
            DataType::Slab16384 => "slab:size-16384",
            DataType::Slab128 => "slab:size-128",
            DataType::Slab1024 => "slab:size-1024",
            DataType::Slab4096 => "slab:size-4096",
            DataType::Slab192 => "slab:size-192",
            DataType::SocketFd => "socket_fd",
            DataType::TaskStruct => "task_struct",
            DataType::File => "file",
            DataType::ListenSock => "listen_sock",
            DataType::BusyBitmap => "busy_bitmap",
            DataType::HashBucket => "hash_bucket",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_table4() {
        assert_eq!(DataType::TcpSock.size(), 1664);
        assert_eq!(DataType::SkBuff.size(), 512);
        assert_eq!(DataType::TcpRequestSock.size(), 128);
        assert_eq!(DataType::SocketFd.size(), 640);
        assert_eq!(DataType::TaskStruct.size(), 5184);
        assert_eq!(DataType::File.size(), 192);
    }

    #[test]
    fn line_counts() {
        assert_eq!(DataType::TcpSock.lines(), 26);
        assert_eq!(DataType::SkBuff.lines(), 8);
        assert_eq!(DataType::TcpRequestSock.lines(), 2);
        assert_eq!(DataType::TaskStruct.lines(), 81);
        assert_eq!(DataType::File.lines(), 3);
        assert_eq!(DataType::Slab16384.lines(), 256);
    }

    #[test]
    fn labels_match_dprof_output() {
        assert_eq!(DataType::Slab16384.label(), "slab:size-16384");
        assert_eq!(DataType::TcpSock.label(), "tcp_sock");
    }

    #[test]
    fn from_index_inverts_index() {
        for ty in DataType::ALL {
            assert_eq!(DataType::from_index(ty.index()), ty, "{}", ty.label());
        }
        for i in 0..DataType::ALL.len() {
            assert_eq!(DataType::from_index(i).index(), i);
        }
        // `ALL` is not in index order: decoding through it would swap these.
        assert_ne!(DataType::ALL[DataType::Slab192.index()], DataType::Slab192);
        assert_ne!(
            DataType::ALL[DataType::SocketFd.index()],
            DataType::SocketFd
        );
    }

    #[test]
    #[should_panic(expected = "no DataType has index 14")]
    fn from_index_rejects_out_of_range() {
        let _ = DataType::from_index(14);
    }

    #[test]
    fn table4_is_subset_of_all() {
        for t in DataType::TABLE4 {
            assert!(DataType::ALL.contains(&t));
        }
    }
}
