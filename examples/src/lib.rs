//! Runnable examples for the LOFT reproduction live in the package root as `[[bin]]` targets.
#![forbid(unsafe_code)]
