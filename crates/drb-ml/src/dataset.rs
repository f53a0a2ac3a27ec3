//! DRB-ML dataset assembly, filtering, and (de)serialization.
//!
//! §3.2: the experiments use the subset of entries whose trimmed code
//! fits the 4k-token prompt budget — 198 of 201, split 100 race-yes /
//! 98 race-no (§3.5 quotes 50.5% / 49.5%).

use crate::entry::DrbMlEntry;
use llm::KernelView;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::OnceLock;

/// The whole DRB-ML dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// All entries, in id order.
    pub entries: Vec<DrbMlEntry>,
}

impl Dataset {
    /// Build the dataset from the generated corpus (cached).
    pub fn generate() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| Dataset {
            entries: drb_gen::corpus().iter().map(DrbMlEntry::from_kernel).collect(),
        })
    }

    /// Entries that fit the 4k prompt budget (the evaluation subset).
    pub fn subset_4k(&self) -> Vec<&DrbMlEntry> {
        self.entries.iter().filter(|e| e.fits_prompt_budget()).collect()
    }

    /// (positive, negative) counts of a slice of entries.
    pub fn label_counts<'a>(entries: impl IntoIterator<Item = &'a DrbMlEntry>) -> (usize, usize) {
        let mut yes = 0;
        let mut no = 0;
        for e in entries {
            if e.data_race == 1 {
                yes += 1;
            } else {
                no += 1;
            }
        }
        (yes, no)
    }

    /// Surrogate views for the evaluation subset, difficulty included.
    ///
    /// Each view carries its analysis artifact (AST, tokens, features),
    /// computed in parallel at build time around the AST its corpus
    /// kernel already parsed (an entry whose code differs from its
    /// kernel's, as an edited import may, is parsed). For the canonical
    /// [`Dataset::generate`] dataset this clones
    /// [`Dataset::generated_views`], and clones share the artifact cells,
    /// so every kernel is analyzed exactly once per process.
    pub fn subset_views(&self) -> Vec<KernelView> {
        if std::ptr::eq(self, Dataset::generate()) {
            return Dataset::generated_views().to_vec();
        }
        self.build_subset_views()
    }

    /// The canonical dataset's evaluation-subset views, built once per
    /// process and shared by reference.
    pub fn generated_views() -> &'static [KernelView] {
        static VIEWS: OnceLock<Vec<KernelView>> = OnceLock::new();
        VIEWS.get_or_init(|| Dataset::generate().build_subset_views())
    }

    fn build_subset_views(&self) -> Vec<KernelView> {
        let kernels = drb_gen::corpus();
        let jobs: Vec<(&DrbMlEntry, Option<&drb_gen::Kernel>)> = self
            .subset_4k()
            .into_iter()
            .map(|e| (e, kernels.iter().find(|k| k.id == e.id)))
            .collect();
        par::par_map(&jobs, par::default_workers(), |&(e, k)| {
            let cat = k.map_or(0.5, |k| k.category.difficulty());
            // A corpus kernel's AST serves only an entry with its code.
            match k.filter(|k| k.trimmed_code == e.trimmed_code).and_then(|k| k.unit.clone()) {
                Some(unit) => e.to_view_parsed(cat, unit),
                None => e.to_view(cat),
            }
        })
    }

    /// Write one JSON file per entry (`DRB-ML-xxx.json`), mirroring the
    /// paper's "201 JSON files" layout, plus an `index.json`.
    pub fn export_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut names = Vec::new();
        for e in &self.entries {
            let file = format!("DRB-ML-{:03}.json", e.id);
            let path = dir.join(&file);
            std::fs::write(&path, serde_json::to_string_pretty(e)?)?;
            names.push(file);
        }
        std::fs::write(dir.join("index.json"), serde_json::to_string_pretty(&names)?)?;
        Ok(())
    }

    /// Read a dataset back from an exported directory.
    pub fn import_dir(dir: &Path) -> std::io::Result<Dataset> {
        let names: Vec<String> =
            serde_json::from_str(&std::fs::read_to_string(dir.join("index.json"))?)?;
        let mut entries = Vec::with_capacity(names.len());
        for n in names {
            let e: DrbMlEntry = serde_json::from_str(&std::fs::read_to_string(dir.join(n))?)?;
            entries.push(e);
        }
        entries.sort_by_key(|e| e.id);
        Ok(Dataset { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_201_entries() {
        let ds = Dataset::generate();
        assert_eq!(ds.entries.len(), 201);
    }

    #[test]
    fn token_filter_keeps_198() {
        let ds = Dataset::generate();
        let subset = ds.subset_4k();
        assert_eq!(subset.len(), 198, "the 4k filter must drop exactly 3 entries");
        let (yes, no) = Dataset::label_counts(subset.iter().copied());
        assert_eq!((yes, no), (100, 98), "paper §3.5: 100 positive / 98 negative");
    }

    #[test]
    fn dropped_entries_are_the_oversized_trio() {
        let ds = Dataset::generate();
        let dropped: Vec<&DrbMlEntry> =
            ds.entries.iter().filter(|e| !e.fits_prompt_budget()).collect();
        assert_eq!(dropped.len(), 3);
        assert!(dropped.iter().all(|e| e.name.contains("oversized")), "{dropped:?}");
    }

    #[test]
    fn subset_positive_share_matches_paper() {
        // §3.5: roughly 50.5% positive / 49.5% negative.
        let ds = Dataset::generate();
        let subset = ds.subset_4k();
        let (yes, _) = Dataset::label_counts(subset.iter().copied());
        let share = yes as f64 / subset.len() as f64;
        assert!((share - 0.505).abs() < 0.001, "{share}");
    }

    #[test]
    fn export_import_round_trip() {
        let dir = std::env::temp_dir().join("drbml_test_export");
        let _ = std::fs::remove_dir_all(&dir);
        let ds = Dataset::generate();
        ds.export_dir(&dir).unwrap();
        assert!(dir.join("DRB-ML-001.json").exists());
        assert!(dir.join("DRB-ML-201.json").exists());
        let back = Dataset::import_dir(&dir).unwrap();
        assert_eq!(*ds, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn views_align_with_subset() {
        let ds = Dataset::generate();
        let views = ds.subset_views();
        assert_eq!(views.len(), 198);
        assert!(views.iter().all(|v| v.difficulty > 0.0 && v.difficulty < 1.0));
    }

    #[test]
    fn every_subset_kernel_carries_its_corpus_unit() {
        let kernels = drb_gen::corpus();
        for e in &Dataset::generate().entries {
            let k = kernels.iter().find(|k| k.id == e.id).unwrap();
            assert_eq!(k.unit.is_some(), e.fits_prompt_budget(), "{}", e.name);
        }
        for v in Dataset::generate().subset_views() {
            let k = kernels.iter().find(|k| k.id == v.id).unwrap();
            let ast = v.artifact().ast.as_ref().expect("corpus kernels parse");
            assert!(std::sync::Arc::ptr_eq(ast, k.unit.as_ref().unwrap()), "{}", k.name);
        }
    }

    #[test]
    fn an_edited_entry_is_parsed_not_given_the_corpus_unit() {
        let mut ds = Dataset::generate().clone();
        let e = &mut ds.entries[0];
        e.trimmed_code = e.trimmed_code.replacen("int ", "int  ", 1);
        let views = ds.subset_views();
        let ast = views[0].artifact().ast.as_ref().unwrap();
        let unit = drb_gen::corpus()[0].unit.as_ref().unwrap();
        assert!(!std::sync::Arc::ptr_eq(ast, unit));
        assert_eq!(**ast, minic::parse(&views[0].trimmed_code).unwrap());
    }
}
