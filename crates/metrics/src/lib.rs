//! Evaluation metrics for end-to-end lithography modeling.
//!
//! Implements the four metrics of the paper's Section 2 exactly as
//! defined:
//!
//! * [`ede`] — **edge displacement error** (Definition 1): per-edge
//!   distances between the bounding boxes of the golden and predicted
//!   contours.
//! * [`pixel_accuracy`] (Definition 2), [`class_accuracy`] (Definition 3)
//!   and [`mean_iou`] (Definition 4) — the semantic-segmentation metrics
//!   over the monochrome resist images, with "class i" = "color i of a
//!   pixel".
//! * [`center_error_nm`] — the Euclidean distance between golden and
//!   predicted resist centres, used to evaluate the center-prediction CNN
//!   (paper §4.1: 0.43 nm on N10, 0.37 nm on N7).
//!
//! Predictions and golden images are rank-2 tensors with values in
//! `[0, 1]`; class membership is thresholded at 0.5.
//!
//! # Example
//!
//! ```
//! use litho_metrics::{mean_iou, pixel_accuracy};
//! use litho_tensor::Tensor;
//!
//! let golden = Tensor::from_vec(vec![1.0, 1.0, 0.0, 0.0], &[2, 2])?;
//! let pred = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[2, 2])?;
//! assert_eq!(pixel_accuracy(&pred, &golden)?, 0.75);
//! assert_eq!(mean_iou(&pred, &golden)?, (0.5 + 2.0 / 3.0) / 2.0);
//! # Ok::<(), litho_tensor::TensorError>(())
//! ```

mod bbox;
mod center;
mod ede;
mod histogram;
mod record;
mod segmentation;
mod summary;

pub use bbox::BoundingBox;
pub use center::{center_error_nm, center_of_mass_px};
pub use ede::{ede, EdeValue};
pub use histogram::Histogram;
pub use record::SampleRecord;
pub use segmentation::{class_accuracy, confusion, mean_iou, pixel_accuracy, Confusion};
pub use summary::{MetricAccumulator, MetricSummary, SliceSummary};

pub use litho_tensor::{Result, Tensor, TensorError};

pub(crate) fn check_pair(prediction: &Tensor, golden: &Tensor) -> Result<(usize, usize)> {
    let pd = prediction.dims();
    let gd = golden.dims();
    if pd != gd {
        return Err(TensorError::ShapeMismatch {
            left: pd.to_vec(),
            right: gd.to_vec(),
        });
    }
    if pd.len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: pd.len(),
        });
    }
    Ok((pd[0], pd[1]))
}
