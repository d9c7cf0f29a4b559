//! Per-peer chunk buffer (the bitmap peers exchange with neighbors).

use p2p_types::ChunkId;
use serde::{Deserialize, Serialize};

/// A peer's chunk holdings for its video, as a compact bitset.
///
/// # Examples
///
/// ```
/// use p2p_streaming::ChunkBuffer;
/// use p2p_types::{ChunkId, VideoId};
///
/// let mut b = ChunkBuffer::empty(100);
/// let c = ChunkId::new(VideoId::new(0), 42);
/// assert!(!b.has_index(42));
/// b.insert_index(42);
/// assert!(b.has_index(42));
/// assert_eq!(b.count(), 1);
/// assert!(b.has(c));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkBuffer {
    words: Vec<u64>,
    chunk_count: u32,
    held: u32,
}

impl ChunkBuffer {
    /// An empty buffer for a video of `chunk_count` chunks.
    pub fn empty(chunk_count: u32) -> Self {
        ChunkBuffer { words: vec![0; (chunk_count as usize).div_ceil(64)], chunk_count, held: 0 }
    }

    /// A full buffer (seeds "cache the complete video").
    pub fn full(chunk_count: u32) -> Self {
        let mut b = ChunkBuffer::empty(chunk_count);
        for i in 0..chunk_count {
            b.insert_index(i);
        }
        b
    }

    /// The bitmap word of chunks `64 * i .. 64 * i + 64`: bit `j` is set
    /// iff chunk `64 * i + j` is held (0 past the end of the video).
    pub(crate) fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Number of chunks in the video.
    pub fn chunk_count(&self) -> u32 {
        self.chunk_count
    }

    /// Number of chunks held.
    pub fn count(&self) -> u32 {
        self.held
    }

    /// Whether every chunk is held.
    pub fn is_complete(&self) -> bool {
        self.held == self.chunk_count
    }

    /// Whether the chunk at `index` is held (out-of-range ⇒ `false`).
    pub fn has_index(&self, index: u32) -> bool {
        if index >= self.chunk_count {
            return false;
        }
        self.words[(index / 64) as usize] & (1u64 << (index % 64)) != 0
    }

    /// Whether `chunk` is held (video identity is the caller's concern;
    /// only the index is consulted).
    pub fn has(&self, chunk: ChunkId) -> bool {
        self.has_index(chunk.index_in_video())
    }

    /// Marks the chunk at `index` as held. Returns `true` if newly added.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn insert_index(&mut self, index: u32) -> bool {
        assert!(index < self.chunk_count, "chunk index out of range");
        let word = &mut self.words[(index / 64) as usize];
        let mask = 1u64 << (index % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.held += 1;
            true
        } else {
            false
        }
    }

    /// Marks `chunk` as held. Returns `true` if newly added.
    ///
    /// # Panics
    ///
    /// Panics if the chunk index is out of range.
    pub fn insert(&mut self, chunk: ChunkId) -> bool {
        self.insert_index(chunk.index_in_video())
    }

    /// Fraction of the video held, in `[0, 1]`.
    pub fn fill_ratio(&self) -> f64 {
        if self.chunk_count == 0 {
            1.0
        } else {
            f64::from(self.held) / f64::from(self.chunk_count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_types::VideoId;

    #[test]
    fn empty_and_full() {
        let e = ChunkBuffer::empty(130);
        assert_eq!(e.count(), 0);
        assert!(!e.is_complete());
        let f = ChunkBuffer::full(130);
        assert_eq!(f.count(), 130);
        assert!(f.is_complete());
        for i in 0..130 {
            assert!(f.has_index(i));
        }
    }

    #[test]
    fn insert_is_idempotent() {
        let mut b = ChunkBuffer::empty(10);
        assert!(b.insert_index(3));
        assert!(!b.insert_index(3));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn out_of_range_has_is_false() {
        let b = ChunkBuffer::empty(10);
        assert!(!b.has_index(10));
        assert!(!b.has(ChunkId::new(VideoId::new(0), 99)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut b = ChunkBuffer::empty(10);
        b.insert_index(10);
    }

    #[test]
    fn fill_ratio() {
        let mut b = ChunkBuffer::empty(4);
        assert_eq!(b.fill_ratio(), 0.0);
        b.insert_index(0);
        b.insert_index(1);
        assert_eq!(b.fill_ratio(), 0.5);
        assert_eq!(ChunkBuffer::empty(0).fill_ratio(), 1.0);
    }

    #[test]
    fn word_boundaries() {
        let mut b = ChunkBuffer::empty(200);
        for i in [0u32, 63, 64, 127, 128, 199] {
            assert!(b.insert_index(i));
            assert!(b.has_index(i));
        }
        assert_eq!(b.count(), 6);
    }
}
