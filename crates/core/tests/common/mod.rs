//! Test support shared by the `dmeopt` integration tests.

pub mod dosepl_oracle;
