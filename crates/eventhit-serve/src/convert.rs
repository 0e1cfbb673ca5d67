//! Mapping between `eventhit-core` decision types and their wire images.
//!
//! The wire types in [`crate::protocol`] deliberately do not depend on
//! `eventhit-core`, so the codec stays a pure, self-contained layer; this
//! module is the single place where the two vocabularies meet. The wire
//! carries what a served decision holds — its anchor and one interval per
//! event — so both directions are lossless for every decision a server
//! emits, whose degradation is always `None`. The loopback soak test
//! round-trips every decision through them and compares against the
//! in-process `run_lanes` output for bit-identity.

use eventhit_core::infer::IntervalPrediction;
use eventhit_core::streaming::{DegradationTag, HorizonDecision};

use crate::protocol::{WireDecision, WirePrediction};

/// Converts a relay decision to its wire image.
pub fn decision_to_wire(d: &HorizonDecision) -> WireDecision {
    WireDecision {
        anchor: d.anchor,
        predictions: d
            .predictions
            .iter()
            .map(|p| WirePrediction {
                present: p.present,
                start: p.start,
                end: p.end,
            })
            .collect(),
    }
}

/// Reconstructs a relay decision from its wire image, undegraded: the
/// wire carries no degradation because no served decision has one.
pub fn decision_from_wire(d: &WireDecision) -> HorizonDecision {
    HorizonDecision {
        anchor: d.anchor,
        degradation: DegradationTag::None,
        predictions: d
            .predictions
            .iter()
            .map(|p| IntervalPrediction {
                present: p.present,
                start: p.start,
                end: p.end,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_round_trip_through_the_wire_image() {
        let present = IntervalPrediction {
            present: true,
            start: 2,
            end: 9,
        };
        let predictions = [
            vec![],
            vec![present],
            vec![present, IntervalPrediction::absent()],
        ];
        for (i, predictions) in predictions.into_iter().enumerate() {
            let d = HorizonDecision {
                anchor: 1000 + i as u64,
                degradation: DegradationTag::None,
                predictions,
            };
            assert_eq!(decision_from_wire(&decision_to_wire(&d)), d);
        }
    }
}
