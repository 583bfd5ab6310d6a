
use litho_sim::MaskGrid;
use litho_tensor::Fnv1a;

use crate::Rect;

/// A contact-layer mask clip.
///
/// Matches the object taxonomy of the paper's color encoding: the *target*
/// contact at the clip centre (green), *neighbor* contacts (red), and
/// *SRAFs* (blue). Geometry is in physical nm with the origin at the clip's
/// top-left corner; the drawn clip extent is `extent_nm` per side
/// (2 µm in the paper, §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    /// Clip edge length in nm.
    pub extent_nm: f64,
    /// The centre contact whose resist pattern is being modelled.
    pub target: Rect,
    /// Other contacts in the clip.
    pub neighbors: Vec<Rect>,
    /// Sub-resolution assist features (never intended to print).
    pub srafs: Vec<Rect>,
}

impl Clip {
    /// Creates a clip with a target contact and no neighbors or SRAFs.
    pub fn new(extent_nm: f64, target: Rect) -> Self {
        Clip {
            extent_nm,
            target,
            neighbors: Vec::new(),
            srafs: Vec::new(),
        }
    }

    /// Clip centre coordinates in nm.
    pub fn center(&self) -> (f64, f64) {
        (self.extent_nm / 2.0, self.extent_nm / 2.0)
    }

    /// All printing features (target + neighbors); SRAFs excluded.
    pub fn contacts(&self) -> impl Iterator<Item = &Rect> {
        std::iter::once(&self.target).chain(self.neighbors.iter())
    }

    /// Total number of drawn shapes.
    pub fn shape_count(&self) -> usize {
        1 + self.neighbors.len() + self.srafs.len()
    }

    /// Rasterises the full clip (all shapes transmit) onto a mask grid of
    /// `grid_size` pixels covering the clip extent.
    pub fn to_mask_grid(&self, grid_size: usize) -> MaskGrid {
        let pitch = self.extent_nm / grid_size as f64;
        let mut grid = MaskGrid::new(grid_size, pitch);
        for r in self.contacts() {
            grid.fill_rect_nm(r.x0, r.y0, r.x1, r.y1, 1.0);
        }
        for r in &self.srafs {
            grid.fill_rect_nm(r.x0, r.y0, r.x1, r.y1, 1.0);
        }
        grid
    }

    /// Whether any two shapes in the clip overlap — generated clips must
    /// be overlap-free (DRC-clean).
    pub fn has_overlaps(&self) -> bool {
        let shapes: Vec<&Rect> = self
            .contacts()
            .chain(self.srafs.iter())
            .collect();
        for i in 0..shapes.len() {
            for j in i + 1..shapes.len() {
                if shapes[i].overlaps(shapes[j]) {
                    return true;
                }
            }
        }
        false
    }

    /// Stable FNV-1a fingerprint of the clip geometry, formatted like the
    /// run-ledger dataset fingerprint (`{hash:016x}`). Two clips share a
    /// fingerprint iff their drawn geometry is bit-identical, which is
    /// what lets eval tooling join per-clip records across runs.
    pub fn fingerprint(&self) -> String {
        fn rect(hash: &mut Fnv1a, r: &Rect) {
            for v in [r.x0, r.y0, r.x1, r.y1] {
                hash.write(&v.to_le_bytes());
            }
        }
        let mut hash = Fnv1a::new();
        hash.write(&self.extent_nm.to_le_bytes());
        rect(&mut hash, &self.target);
        hash.write(&(self.neighbors.len() as u32).to_le_bytes());
        for r in &self.neighbors {
            rect(&mut hash, r);
        }
        hash.write(&(self.srafs.len() as u32).to_le_bytes());
        for r in &self.srafs {
            rect(&mut hash, r);
        }
        hash.hex()
    }

    /// Returns a copy cropped to the central `crop_nm` window, with
    /// coordinates rebased so the crop's top-left is the new origin.
    /// Shapes entirely outside the window are dropped; straddling shapes
    /// are kept (the rasteriser clips at the window edge).
    pub fn cropped_center(&self, crop_nm: f64) -> Clip {
        let off = (self.extent_nm - crop_nm) / 2.0;
        let window = Rect::new(off, off, off + crop_nm, off + crop_nm);
        let rebase = |r: &Rect| r.translated(-off, -off);
        Clip {
            extent_nm: crop_nm,
            target: rebase(&self.target),
            neighbors: self
                .neighbors
                .iter()
                .filter(|r| r.overlaps(&window))
                .map(rebase)
                .collect(),
            srafs: self
                .srafs
                .iter()
                .filter(|r| r.overlaps(&window))
                .map(rebase)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_clip() -> Clip {
        let mut clip = Clip::new(2048.0, Rect::centered_square(1024.0, 1024.0, 60.0));
        clip.neighbors
            .push(Rect::centered_square(1144.0, 1024.0, 60.0));
        clip.srafs
            .push(Rect::centered(1024.0, 900.0, 100.0, 30.0));
        clip
    }

    #[test]
    fn shape_accounting() {
        let clip = sample_clip();
        assert_eq!(clip.shape_count(), 3);
        assert_eq!(clip.contacts().count(), 2);
        assert_eq!(clip.center(), (1024.0, 1024.0));
    }

    #[test]
    fn mask_grid_covers_all_shapes() {
        let clip = sample_clip();
        let grid = clip.to_mask_grid(256);
        let expected = 60.0 * 60.0 * 2.0 + 100.0 * 30.0;
        assert!((grid.transmitted_area_nm2() - expected).abs() / expected < 0.02);
    }

    #[test]
    fn overlap_detection() {
        let mut clip = sample_clip();
        assert!(!clip.has_overlaps());
        clip.neighbors
            .push(Rect::centered_square(1030.0, 1024.0, 60.0));
        assert!(clip.has_overlaps());
    }

    #[test]
    fn fingerprint_is_stable_and_geometry_sensitive() {
        let clip = sample_clip();
        let fp = clip.fingerprint();
        assert_eq!(fp.len(), 16);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(fp, sample_clip().fingerprint(), "same geometry, same id");
        let mut moved = sample_clip();
        moved.target = Rect::centered_square(1025.0, 1024.0, 60.0);
        assert_ne!(fp, moved.fingerprint());
        let mut extra = sample_clip();
        extra.srafs.push(Rect::centered(900.0, 900.0, 100.0, 30.0));
        assert_ne!(fp, extra.fingerprint());
    }

    #[test]
    fn center_crop_rebases_and_filters() {
        let mut clip = sample_clip();
        // A far-corner neighbor that the 1um crop must drop.
        clip.neighbors.push(Rect::centered_square(100.0, 100.0, 60.0));
        let cropped = clip.cropped_center(1024.0);
        assert_eq!(cropped.extent_nm, 1024.0);
        // Target recentered at 512.
        assert_eq!(cropped.target.center(), (512.0, 512.0));
        // Near neighbor kept (rebased), far one dropped.
        assert_eq!(cropped.neighbors.len(), 1);
        assert_eq!(cropped.neighbors[0].center(), (632.0, 512.0));
        assert_eq!(cropped.srafs.len(), 1);
    }
}
