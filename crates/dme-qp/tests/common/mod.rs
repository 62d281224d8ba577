//! Test support shared by the `dme-qp` integration tests.

pub mod certificate;
