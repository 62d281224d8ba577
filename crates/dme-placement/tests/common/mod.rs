//! Strategies shared by the integration proptests and the placer's unit
//! tests.

use dme_netlist::{profiles::TechNode, DesignProfile};
use proptest::prelude::*;

/// Small random designs of every supported shape.
pub fn random_profile() -> impl Strategy<Value = DesignProfile> {
    (80usize..300, any::<u64>(), 4usize..12).prop_map(|(cells, seed, levels)| DesignProfile {
        name: "PROP".into(),
        node: TechNode::N65,
        target_cells: cells,
        num_primary_inputs: 8,
        seq_fraction: 0.12,
        levels,
        chain_bias: 0.8,
        level_taper: 0.0,
        slices: 1,
        ff_tap_deep_frac: 0.75,
        die_area_mm2: cells as f64 * 5.0e-6,
        utilization: 0.7,
        seed,
    })
}
