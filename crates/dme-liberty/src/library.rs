//! Library assembly and characterized-variant caching.

use crate::cell::{CellFunction, CellMaster, CellTables};
use dme_device::Technology;
use std::collections::HashMap;

/// The slew/load grid shared by all NLDM tables in a library.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAxes {
    /// Input transition times in ns (strictly increasing).
    pub slew_ns: Vec<f64>,
    /// Output loads in fF (strictly increasing).
    pub load_ff: Vec<f64>,
}

impl Default for TableAxes {
    fn default() -> Self {
        Self {
            slew_ns: vec![0.002, 0.008, 0.02, 0.05, 0.1, 0.2, 0.4],
            load_ff: vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        }
    }
}

/// A complete standard-cell library for one technology node.
///
/// [`Library::standard`] creates the cell set the paper reports: 36
/// combinational masters and 9 sequential masters.
#[derive(Debug)]
pub struct Library {
    tech: Technology,
    cells: Vec<CellMaster>,
    axes: TableAxes,
    by_name: HashMap<String, usize>,
}

impl Library {
    /// Builds the standard 36 + 9 master library for a technology.
    pub fn standard(tech: Technology) -> Self {
        use CellFunction::*;
        let mut specs: Vec<(CellFunction, u32)> = Vec::new();
        for x in [1u32, 2, 4, 8] {
            specs.push((Inv, x));
            specs.push((Buf, x));
        }
        for k in [2u8, 3, 4] {
            for x in [1u32, 2] {
                specs.push((Nand(k), x));
                specs.push((Nor(k), x));
            }
        }
        for x in [1u32, 2] {
            specs.push((And(2), x));
            specs.push((Or(2), x));
            specs.push((Aoi21, x));
            specs.push((Oai21, x));
            specs.push((Xor2, x));
            specs.push((Xnor2, x));
            specs.push((Mux2, x));
        }
        specs.push((Aoi22, 1));
        specs.push((Oai22, 1));
        // 9 sequential masters.
        for x in [1u32, 2] {
            specs.push((Dff, x));
            specs.push((Dffr, x));
            specs.push((Dffs, x));
        }
        specs.push((Dffrs, 1));
        specs.push((Latch, 1));
        specs.push((Sdff, 1));

        let cells: Vec<CellMaster> = specs
            .into_iter()
            .map(|(f, x)| CellMaster::new(&tech, f, x))
            .collect();
        let by_name = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name().to_string(), i))
            .collect();
        Self {
            tech,
            cells,
            axes: TableAxes::default(),
            by_name,
        }
    }

    /// The library's technology node.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The table axes shared by every cell.
    pub fn axes(&self) -> &TableAxes {
        &self.axes
    }

    /// All cell masters.
    pub fn cells(&self) -> &[CellMaster] {
        &self.cells
    }

    /// Cell master by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn cell(&self, idx: usize) -> &CellMaster {
        &self.cells[idx]
    }

    /// Cell master by name, e.g. `"NAND2X1"`.
    pub fn cell_by_name(&self, name: &str) -> Option<&CellMaster> {
        self.by_name.get(name).map(|&i| &self.cells[i])
    }

    /// Index of a cell master by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Number of combinational masters (the paper uses 36).
    pub fn combinational_count(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_sequential()).count()
    }

    /// Number of sequential masters (the paper uses 9).
    pub fn sequential_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_sequential()).count()
    }

    /// Indices of all combinational masters.
    pub fn combinational_indices(&self) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&i| !self.cells[i].is_sequential())
            .collect()
    }

    /// Indices of all sequential masters.
    pub fn sequential_indices(&self) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&i| self.cells[i].is_sequential())
            .collect()
    }
}

/// Cache of characterized cell variants keyed by quantized geometry
/// deltas — the in-memory equivalent of the paper's "21 different
/// characterized libraries" (441 when both layers are modulated).
///
/// Deltas are quantized to 0.1 nm before keying, comfortably finer than
/// the 1 nm (0.5% dose) characterization step.
///
/// The cache is a plain arena: [`VariantCache::resolve`] maps a key to a
/// dense variant id (characterizing on first use) through `&mut self`,
/// and [`VariantCache::get`] reads the tables of an id through `&self`.
/// A timing pass resolves every instance's id once, serially, and its
/// parallel level loops then share `&CellTables` with no lock.
#[derive(Debug)]
pub struct VariantCache<'a> {
    library: &'a Library,
    ids: HashMap<(usize, i64, i64), u32>,
    tables: Vec<CellTables>,
}

impl<'a> VariantCache<'a> {
    /// Creates an empty cache over a library.
    pub fn new(library: &'a Library) -> Self {
        Self {
            library,
            ids: HashMap::new(),
            tables: Vec::new(),
        }
    }

    /// Id of cell `idx`'s variant at geometry deltas, characterizing it on
    /// first use. Deltas are quantized to 0.1 nm; ids count up from 0 in
    /// first-use order.
    ///
    /// # Panics
    ///
    /// Panics if `dl_nm` or `dw_nm` is not finite (NaN would otherwise
    /// quantize silently to the nominal variant), or if `idx` is not a
    /// master of the library.
    pub fn resolve(&mut self, idx: usize, dl_nm: f64, dw_nm: f64) -> u32 {
        assert!(
            dl_nm.is_finite() && dw_nm.is_finite(),
            "non-finite geometry delta for cell master {idx}: ΔL {dl_nm} nm, ΔW {dw_nm} nm"
        );
        let (kl, kw) = ((dl_nm * 10.0).round() as i64, (dw_nm * 10.0).round() as i64);
        let next = self.tables.len();
        *self.ids.entry((idx, kl, kw)).or_insert_with(|| {
            self.tables.push(self.library.cell(idx).characterize(
                self.library.tech(),
                kl as f64 / 10.0,
                kw as f64 / 10.0,
                self.library.axes(),
            ));
            u32::try_from(next).expect("variant ids fit in u32")
        })
    }

    /// Tables of a variant id returned by [`VariantCache::resolve`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was not handed out by this cache.
    pub fn get(&self, id: u32) -> &CellTables {
        &self.tables[id as usize]
    }

    /// Number of distinct characterized variants held.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_paper_cell_counts() {
        for tech in [Technology::n65(), Technology::n90()] {
            let lib = Library::standard(tech);
            assert_eq!(lib.combinational_count(), 36, "combinational masters");
            assert_eq!(lib.sequential_count(), 9, "sequential masters");
            assert_eq!(lib.cells().len(), 45);
        }
    }

    #[test]
    fn cell_names_are_unique_and_resolvable() {
        let lib = Library::standard(Technology::n65());
        for (i, c) in lib.cells().iter().enumerate() {
            assert_eq!(lib.index_of(c.name()), Some(i), "{}", c.name());
        }
        assert!(lib.cell_by_name("NO_SUCH_CELL").is_none());
    }

    #[test]
    fn variant_cache_hits_after_first_characterization() {
        let lib = Library::standard(Technology::n65());
        let mut cache = VariantCache::new(&lib);
        assert!(cache.is_empty());
        let a = cache.resolve(0, -2.0, 0.0);
        assert_eq!(cache.len(), 1);
        let b = cache.resolve(0, -2.04, 0.0); // quantizes to the same key
        assert_eq!(cache.len(), 1);
        assert_eq!(a, b);
        let c = cache.resolve(0, -3.0, 0.0);
        assert_eq!(cache.len(), 2);
        assert_ne!(a, c);
        // The arena holds exactly what characterization produces at the
        // quantized key.
        let direct = lib.cell(0).characterize(lib.tech(), -2.0, 0.0, lib.axes());
        assert_eq!(cache.get(a), &direct);
    }

    #[test]
    fn variants_differ_by_geometry() {
        let lib = Library::standard(Technology::n65());
        let mut cache = VariantCache::new(&lib);
        let nominal = cache.resolve(0, 0.0, 0.0);
        let short = cache.resolve(0, -10.0, 0.0);
        assert!(
            cache.get(short).delay_worst(0.02, 2.0) < cache.get(nominal).delay_worst(0.02, 2.0)
        );
    }

    #[test]
    #[should_panic(expected = "non-finite geometry delta")]
    fn nan_length_delta_is_rejected() {
        let lib = Library::standard(Technology::n65());
        VariantCache::new(&lib).resolve(0, f64::NAN, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite geometry delta")]
    fn infinite_width_delta_is_rejected() {
        let lib = Library::standard(Technology::n65());
        VariantCache::new(&lib).resolve(0, 0.0, f64::INFINITY);
    }
}
