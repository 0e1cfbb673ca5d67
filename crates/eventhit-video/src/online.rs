//! Online frame ingestion: a ring buffer that assembles collection-window
//! covariates incrementally, so deployments can feed frames one at a time
//! instead of materializing the full stream's feature matrix.

use eventhit_nn::matrix::Matrix;

/// A source of per-frame feature vectors (the boundary where a real
/// detector — YOLO, Faster R-CNN, a user's own extractor — plugs in).
pub trait FrameSource {
    /// Feature dimensionality `D`.
    fn dim(&self) -> usize;

    /// Produces the next frame's features, or `None` at end of stream.
    fn next_frame(&mut self) -> Option<Vec<f32>>;
}

/// Adapter exposing a precomputed `N x D` feature matrix as a
/// [`FrameSource`] (used by the simulator and tests).
pub struct MatrixFrameSource<'a> {
    features: &'a Matrix,
    cursor: usize,
}

impl<'a> MatrixFrameSource<'a> {
    /// Wraps a feature matrix, starting at frame `from`.
    pub fn new(features: &'a Matrix, from: usize) -> Self {
        MatrixFrameSource {
            features,
            cursor: from,
        }
    }
}

impl FrameSource for MatrixFrameSource<'_> {
    fn dim(&self) -> usize {
        self.features.cols()
    }

    fn next_frame(&mut self) -> Option<Vec<f32>> {
        if self.cursor >= self.features.rows() {
            return None;
        }
        let row = self.features.row(self.cursor).to_vec();
        self.cursor += 1;
        Some(row)
    }
}

/// A fixed-capacity ring of the last `M` frames' features: one flat
/// `M x D` allocation made at construction. A push copies the borrowed
/// row over the oldest slot, and the newest rows are handed out as
/// slices of the ring ([`WindowBuffer::last_rows`]) — steady-state
/// ingestion allocates nothing.
pub struct WindowBuffer {
    window: usize,
    dim: usize,
    /// `window` slots of `dim` values; slot `i` is `data[i*dim..(i+1)*dim]`.
    data: Vec<f32>,
    /// The slot the next push writes — the oldest row's, once full.
    next: usize,
    /// Rows buffered so far (at most `window`).
    len: usize,
    /// Total frames ever pushed (the current stream position + 1).
    pushed: u64,
}

impl WindowBuffer {
    /// Creates a buffer for collection windows of `window` frames of
    /// dimensionality `dim`.
    pub fn new(window: usize, dim: usize) -> Self {
        assert!(window > 0 && dim > 0);
        WindowBuffer {
            window,
            dim,
            data: vec![0.0; window * dim],
            next: 0,
            len: 0,
            pushed: 0,
        }
    }

    /// Pushes one frame's features, evicting the oldest when full. The
    /// row is copied in, so a borrowed slice does as well as an owned
    /// vector.
    ///
    /// # Panics
    /// Panics if `features.len() != dim`.
    pub fn push(&mut self, features: impl AsRef<[f32]>) {
        let features = features.as_ref();
        assert_eq!(features.len(), self.dim, "frame dimensionality mismatch");
        self.data[self.next * self.dim..(self.next + 1) * self.dim].copy_from_slice(features);
        self.next = (self.next + 1) % self.window;
        self.len = (self.len + 1).min(self.window);
        self.pushed += 1;
    }

    /// True when a full collection window is buffered.
    pub fn is_full(&self) -> bool {
        self.len == self.window
    }

    /// The configured collection-window size `M`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The configured feature dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The newest `m` buffered rows, oldest first, borrowed from the ring
    /// — what the encoder consumes at an anchor, without a copy.
    ///
    /// # Panics
    /// Panics if fewer than `m` rows are buffered.
    pub fn last_rows(&self, m: usize) -> impl Iterator<Item = &[f32]> + Clone {
        assert!(
            m <= self.len,
            "window slice {m} exceeds the {} buffered rows",
            self.len
        );
        // The newest row sits just before `next`; the run of `m` rows
        // ending there wraps around the end of the ring at most once.
        let start = (self.next + self.window - m) % self.window;
        let first = m.min(self.window - start);
        let (head, tail) = (
            &self.data[start * self.dim..(start + first) * self.dim],
            &self.data[..(m - first) * self.dim],
        );
        head.chunks_exact(self.dim)
            .chain(tail.chunks_exact(self.dim))
    }

    /// Copies out the buffered rows, oldest first — between 0 and
    /// `window` rows of `dim` values each. Together with
    /// [`WindowBuffer::frames_seen`] this is the buffer's complete
    /// dynamic state, which [`WindowBuffer::restore`] reconstructs
    /// bit-identically (the durable-serving snapshot path).
    pub fn snapshot_rows(&self) -> Vec<Vec<f32>> {
        self.last_rows(self.len).map(<[f32]>::to_vec).collect()
    }

    /// Rebuilds a buffer from a snapshot taken with
    /// [`WindowBuffer::snapshot_rows`] / [`WindowBuffer::frames_seen`].
    ///
    /// # Panics
    /// Panics if more than `window` rows are given, any row is not `dim`
    /// long, or `pushed` is smaller than the number of rows (callers that
    /// read snapshots from disk validate first and surface typed errors).
    pub fn restore(window: usize, dim: usize, rows: &[Vec<f32>], pushed: u64) -> Self {
        assert!(rows.len() <= window, "snapshot holds more rows than fit");
        assert!(
            rows.iter().all(|r| r.len() == dim),
            "snapshot row dimensionality mismatch"
        );
        assert!(
            pushed >= rows.len() as u64,
            "fewer frames pushed than buffered"
        );
        let mut buffer = WindowBuffer::new(window, dim);
        for row in rows {
            buffer.push(row);
        }
        buffer.pushed = pushed;
        buffer
    }

    /// Number of frames pushed so far.
    pub fn frames_seen(&self) -> u64 {
        self.pushed
    }

    /// The current covariate matrix (`M x D`, oldest frame first).
    ///
    /// # Panics
    /// Panics if the buffer is not yet full.
    pub fn covariates(&self) -> Matrix {
        self.covariates_last(self.window)
    }

    /// The covariate matrix of the *last* `m` buffered frames
    /// (`m x D`, oldest first) — the adaptive-window variant of
    /// [`WindowBuffer::covariates`]: a shrunken collection window
    /// consumes only the newest `m` rows. `covariates_last(window)` is
    /// identical to `covariates()`. This is the owned copy (a record's
    /// covariates, a carry memo); scoring reads
    /// [`WindowBuffer::last_rows`] instead.
    ///
    /// # Panics
    /// Panics if the buffer is not yet full or `m` is not in
    /// `[1, window]`.
    pub fn covariates_last(&self, m: usize) -> Matrix {
        assert!(self.is_full(), "collection window not yet full");
        assert!(
            m >= 1 && m <= self.window,
            "window slice {m} outside [1, {}]",
            self.window
        );
        let mut out = Matrix::zeros(m, self.dim);
        for (r, frame) in self.last_rows(m).enumerate() {
            out.set_row(r, frame);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_fills_then_slides() {
        let mut buf = WindowBuffer::new(3, 2);
        assert!(!buf.is_full());
        buf.push(vec![1.0, 1.0]);
        buf.push(vec![2.0, 2.0]);
        assert!(!buf.is_full());
        buf.push(vec![3.0, 3.0]);
        assert!(buf.is_full());
        let cov = buf.covariates();
        assert_eq!(cov.row(0), &[1.0, 1.0]);
        assert_eq!(cov.row(2), &[3.0, 3.0]);

        buf.push(vec![4.0, 4.0]);
        let cov = buf.covariates();
        assert_eq!(cov.row(0), &[2.0, 2.0]);
        assert_eq!(cov.row(2), &[4.0, 4.0]);
        assert_eq!(buf.frames_seen(), 4);
    }

    #[test]
    #[should_panic(expected = "not yet full")]
    fn covariates_requires_full_window() {
        let buf = WindowBuffer::new(3, 2);
        let _ = buf.covariates();
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn push_rejects_wrong_dim() {
        let mut buf = WindowBuffer::new(2, 3);
        buf.push(vec![1.0]);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        let mut buf = WindowBuffer::new(3, 2);
        for i in 0..5 {
            buf.push(vec![i as f32, -(i as f32)]);
        }
        let restored = WindowBuffer::restore(
            buf.window(),
            buf.dim(),
            &buf.snapshot_rows(),
            buf.frames_seen(),
        );
        assert_eq!(restored.frames_seen(), buf.frames_seen());
        assert_eq!(restored.covariates(), buf.covariates());

        // Both continue identically after the restore point.
        let mut a = buf;
        let mut b = restored;
        a.push(vec![9.0, 9.5]);
        b.push(vec![9.0, 9.5]);
        assert_eq!(a.covariates(), b.covariates());
        assert_eq!(a.frames_seen(), b.frames_seen());
    }

    #[test]
    #[should_panic(expected = "more rows than fit")]
    fn restore_rejects_oversized_snapshots() {
        let _ = WindowBuffer::restore(2, 1, &[vec![1.0], vec![2.0], vec![3.0]], 3);
    }

    #[test]
    fn covariates_last_slices_the_newest_rows() {
        let mut buf = WindowBuffer::new(4, 2);
        for i in 0..6 {
            buf.push(vec![i as f32, 10.0 + i as f32]);
        }
        // Buffer holds frames 2..=5.
        assert_eq!(buf.covariates_last(4), buf.covariates());
        let last2 = buf.covariates_last(2);
        assert_eq!(last2.shape(), (2, 2));
        assert_eq!(last2.row(0), &[4.0, 14.0]);
        assert_eq!(last2.row(1), &[5.0, 15.0]);
        assert_eq!(buf.covariates_last(1).row(0), &[5.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "outside [1, 4]")]
    fn covariates_last_rejects_oversized_slice() {
        let mut buf = WindowBuffer::new(4, 1);
        for i in 0..4 {
            buf.push(vec![i as f32]);
        }
        let _ = buf.covariates_last(5);
    }

    /// Row `i` of a test stream: distinct in every entry.
    fn row(i: usize) -> Vec<f32> {
        vec![i as f32, 100.0 + i as f32, -(i as f32)]
    }

    #[test]
    fn ring_hands_out_rows_oldest_first_across_every_wrap_position() {
        let window = 5;
        let mut buf = WindowBuffer::new(window, 3);
        for i in 0..3 * window + 2 {
            buf.push(row(i));
            let held = (i + 1).min(window);
            let want: Vec<Vec<f32>> = (i + 1 - held..=i).map(row).collect();
            assert_eq!(buf.snapshot_rows(), want, "after frame {i}");
            if buf.is_full() {
                for m in 1..=window {
                    let got: Vec<&[f32]> = buf.last_rows(m).collect();
                    assert_eq!(got, want[window - m..], "frame {i}, m {m}");
                    let cov = buf.covariates_last(m);
                    assert_eq!(cov.shape(), (m, 3));
                    for (r, w) in want[window - m..].iter().enumerate() {
                        assert_eq!(cov.row(r), w.as_slice(), "frame {i}, m {m}, row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn restore_mid_wrap_continues_identically() {
        // Snapshot at every wrap position, restore, and keep pushing: the
        // restored ring starts at slot 0 whatever the original's offset
        // was, and must still agree row for row.
        let window = 4;
        for cut in 1..3 * window {
            let mut a = WindowBuffer::new(window, 3);
            for i in 0..cut {
                a.push(row(i));
            }
            let mut b = WindowBuffer::restore(window, 3, &a.snapshot_rows(), a.frames_seen());
            for i in cut..cut + 2 * window {
                assert_eq!(a.snapshot_rows(), b.snapshot_rows(), "cut {cut}, frame {i}");
                a.push(row(i));
                b.push(row(i));
            }
            assert_eq!(a.covariates(), b.covariates());
            assert_eq!(a.frames_seen(), b.frames_seen());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 2 buffered rows")]
    fn last_rows_rejects_more_rows_than_buffered() {
        let mut buf = WindowBuffer::new(4, 3);
        buf.push(row(0));
        buf.push(row(1));
        let _ = buf.last_rows(3);
    }

    #[test]
    fn push_takes_borrowed_and_owned_rows() {
        let mut buf = WindowBuffer::new(2, 3);
        let owned = row(0);
        buf.push(&owned);
        buf.push(owned.as_slice());
        buf.push(owned);
        assert_eq!(buf.frames_seen(), 3);
    }

    #[test]
    fn matrix_source_yields_rows_then_ends() {
        let mut m = Matrix::zeros(3, 2);
        for r in 0..3 {
            m[(r, 0)] = r as f32;
        }
        let mut src = MatrixFrameSource::new(&m, 1);
        assert_eq!(src.dim(), 2);
        assert_eq!(src.next_frame(), Some(vec![1.0, 0.0]));
        assert_eq!(src.next_frame(), Some(vec![2.0, 0.0]));
        assert_eq!(src.next_frame(), None);
        assert_eq!(src.next_frame(), None);
    }

    #[test]
    fn buffered_covariates_match_matrix_slice() {
        let mut m = Matrix::zeros(10, 3);
        for r in 0..10 {
            for c in 0..3 {
                m[(r, c)] = (r * 3 + c) as f32;
            }
        }
        let mut src = MatrixFrameSource::new(&m, 0);
        let mut buf = WindowBuffer::new(4, 3);
        for _ in 0..7 {
            buf.push(src.next_frame().unwrap());
        }
        // Window should be rows 3..=6.
        let cov = buf.covariates();
        let expected = m.select_rows(&[3, 4, 5, 6]);
        assert_eq!(cov, expected);
    }
}
