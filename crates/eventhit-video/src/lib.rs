//! # eventhit-video
//!
//! The video-stream substrate of the EventHit reproduction: event classes
//! and occurrence intervals, a synthetic stream generator reproducing the
//! paper's Table I statistics (VIRAT / THUMOS / Breakfast), a simulated
//! noisy feature extractor standing in for YOLOv3-class detectors, triplet
//! record extraction with censoring (§II), and temporal dataset splits.
//!
//! ```
//! use eventhit_video::dataset::{Dataset, SplitSpec};
//! use eventhit_video::features::{extract, FeatureConfig};
//! use eventhit_video::stream::VideoStream;
//! use eventhit_video::synthetic;
//!
//! let profile = synthetic::thumos().scaled(0.02);
//! let stream = VideoStream::generate(&profile, 42);
//! let features = extract(&stream, &FeatureConfig::default(), 43);
//! let ds = Dataset::build(&stream, &features, profile.collection_window,
//!                         profile.horizon, &SplitSpec::default());
//! assert!(!ds.train.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod dataset;
pub mod detector;
pub mod distributions;
pub mod event;
pub mod features;
pub mod online;
pub mod records;
pub mod stream;
pub mod synthetic;

pub use dataset::{Dataset, SplitSpec};
pub use event::{EventClass, EventGroup, EventInstance, OccurrenceInterval};
pub use records::{EventLabel, Record};
pub use stream::VideoStream;
pub use synthetic::DatasetProfile;
