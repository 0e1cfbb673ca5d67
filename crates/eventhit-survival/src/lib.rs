//! # eventhit-survival
//!
//! Survival-analysis substrate for the EventHit reproduction: a Cox
//! proportional-hazards model fitted by Newton–Raphson on the Breslow
//! partial likelihood, and the Breslow baseline cumulative-hazard
//! estimator.
//!
//! These power the paper's COX baseline (§VI.B item 7), which regresses
//! survival ("time until the event") on window covariates and relays the
//! horizon suffix once the predicted event probability crosses a threshold.

#![forbid(unsafe_code)]

pub mod cox;
pub mod linalg;

pub use cox::{CoxConfig, CoxError, CoxModel, Subject};
