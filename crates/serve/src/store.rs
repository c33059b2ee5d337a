//! The spec store: named [`PlannerModel`]s behind an `RwLock`.
//!
//! Loaded from a `specs/` directory at startup (one machine per
//! `<name>.json`, round-tripped through `tpu_spec::json`), then served
//! read-mostly: every query clones an `Arc` to the spec's shared
//! [`PlannerModel`], so PUT/DELETE on one spec never blocks queries on
//! another beyond the map lookup itself. When a persist directory is
//! configured, PUT writes the *canonical* serialization back to
//! `<dir>/<name>.json` and DELETE removes it — the on-disk directory
//! stays the source of truth a restart reloads.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};
use tpu_sched::PlannerModel;
use tpu_spec::json::JsonValue;
use tpu_spec::MachineSpec;

/// One stored machine: its service name and shared planner model.
#[derive(Debug)]
pub struct SpecEntry {
    /// The URL-safe name queries address it by (`/specs/<name>/...`).
    pub name: String,
    /// The immutable spec-derived model all queries share.
    pub model: Arc<PlannerModel>,
    /// The name as a response body's JSON field, `"spec":"<name>"`,
    /// rendered once here so a cache hit only splices it in.
    pub(crate) spec_field: String,
}

impl SpecEntry {
    fn new(name: &str, spec: &MachineSpec) -> SpecEntry {
        SpecEntry {
            name: name.to_string(),
            model: Arc::new(PlannerModel::for_spec(spec)),
            spec_field: format!("\"spec\":{}", JsonValue::Str(name.into())),
        }
    }
}

/// Why a store operation failed, with its HTTP mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The name is not `[A-Za-z0-9._-]{1,64}` (or starts with a dot).
    BadName(String),
    /// The body failed `MachineSpec::from_json` validation.
    BadSpec(String),
    /// Reading or writing the persist directory failed.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadName(name) => write!(
                f,
                "invalid spec name {name:?}: use 1-64 of [A-Za-z0-9._-], not starting with '.'"
            ),
            StoreError::BadSpec(msg) => write!(f, "invalid machine spec: {msg}"),
            StoreError::Io(msg) => write!(f, "spec storage I/O: {msg}"),
        }
    }
}

/// The shared, thread-safe spec registry.
pub struct SpecStore {
    specs: RwLock<BTreeMap<String, Arc<SpecEntry>>>,
    persist_dir: Option<PathBuf>,
}

impl SpecStore {
    /// An empty in-memory store (tests, ephemeral servers).
    pub fn in_memory() -> SpecStore {
        SpecStore {
            specs: RwLock::new(BTreeMap::new()),
            persist_dir: None,
        }
    }

    /// Loads every `*.json` in a directory (file stem = spec name) and
    /// keeps the directory as the persistence target for PUT/DELETE.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] for an unreadable directory, an invalid
    /// file name, or a file that fails spec validation — a service
    /// refusing to start beats one silently skipping a machine.
    pub fn load_dir(dir: &Path) -> Result<SpecStore, StoreError> {
        let mut specs = BTreeMap::new();
        let entries =
            fs::read_dir(dir).map_err(|e| StoreError::Io(format!("{}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            validate_name(&name)?;
            let text = fs::read_to_string(&path)
                .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
            let spec = MachineSpec::from_json(&text)
                .map_err(|e| StoreError::BadSpec(format!("{}: {e}", path.display())))?;
            specs.insert(name.clone(), Arc::new(SpecEntry::new(&name, &spec)));
        }
        Ok(SpecStore {
            specs: RwLock::new(specs),
            persist_dir: Some(dir.to_path_buf()),
        })
    }

    /// Looks up a spec by name.
    pub fn get(&self, name: &str) -> Option<Arc<SpecEntry>> {
        self.read().get(name).cloned()
    }

    /// Every stored spec, in name order.
    pub fn list(&self) -> Vec<Arc<SpecEntry>> {
        self.read().values().cloned().collect()
    }

    /// Number of stored specs.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the store holds no specs.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Inserts or replaces a spec, returning the new entry, the spec
    /// hash it *replaced* (for cache invalidation), and whether it was
    /// newly created. Persists the canonical JSON when a directory is
    /// configured.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] for a bad name or a persist failure (the
    /// entry is built before the file is written, and the in-memory map
    /// is only updated after the disk write succeeds).
    pub fn put(
        &self,
        name: &str,
        spec: &MachineSpec,
    ) -> Result<(Arc<SpecEntry>, Option<u64>, bool), StoreError> {
        validate_name(name)?;
        let entry = Arc::new(SpecEntry::new(name, spec));
        if let Some(dir) = &self.persist_dir {
            let path = dir.join(format!("{name}.json"));
            fs::write(&path, format!("{}\n", spec.to_json()))
                .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
        }
        let mut specs = self.write();
        let old = specs.insert(name.to_string(), Arc::clone(&entry));
        let replaced_hash = old.as_ref().map(|e| e.model.spec_hash());
        Ok((entry, replaced_hash, replaced_hash.is_none()))
    }

    /// Removes a spec (and its persisted file), returning the removed
    /// entry for cache invalidation.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the persisted file exists but
    /// cannot be removed; the in-memory entry is kept in that case so
    /// the store never diverges from disk.
    pub fn remove(&self, name: &str) -> Result<Option<Arc<SpecEntry>>, StoreError> {
        if self.read().get(name).is_none() {
            return Ok(None);
        }
        if let Some(dir) = &self.persist_dir {
            let path = dir.join(format!("{name}.json"));
            if path.exists() {
                fs::remove_file(&path)
                    .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
            }
        }
        Ok(self.write().remove(name))
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<SpecEntry>>> {
        // Entries are immutable Arcs; a poisoned lock cannot hold a
        // half-written value worth rejecting.
        self.specs.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<SpecEntry>>> {
        self.specs.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Accepts exactly the names that are safe as both URL segments and
/// file stems: 1-64 chars of `[A-Za-z0-9._-]`, not starting with `.`
/// (no hidden files, no `..` traversal).
pub fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(StoreError::BadName(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_crud_round_trip() {
        let store = SpecStore::in_memory();
        assert!(store.is_empty());
        let (entry, replaced, created) = store.put("v4", &MachineSpec::v4()).unwrap();
        assert!(created);
        assert_eq!(replaced, None);
        assert_eq!(entry.model.spec(), &MachineSpec::v4());
        assert_eq!(store.len(), 1);
        let (_, replaced, created) = store.put("v4", &MachineSpec::v3()).unwrap();
        assert!(!created);
        assert_eq!(replaced, Some(MachineSpec::v4().canonical_hash()));
        let removed = store.remove("v4").unwrap().unwrap();
        assert_eq!(removed.model.spec(), &MachineSpec::v3());
        assert!(store.remove("v4").unwrap().is_none());
    }

    #[test]
    fn names_are_validated() {
        for bad in ["", ".hidden", "a/b", "a b", "..", &"x".repeat(65)] {
            assert!(validate_name(bad).is_err(), "{bad:?}");
        }
        for good in ["v4", "v4-half", "my_spec.v2", "A100"] {
            assert!(validate_name(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn load_dir_round_trips_the_committed_specs() {
        // The repo's own specs/ directory is the service's seed corpus.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
        let store = SpecStore::load_dir(&dir).unwrap();
        assert!(
            store.len() >= 9,
            "expected the committed specs, got {}",
            store.len()
        );
        let v4 = store.get("v4").unwrap();
        assert_eq!(v4.model.spec(), &MachineSpec::v4());
        // Listing is name-ordered (deterministic across runs).
        let names: Vec<String> = store.list().iter().map(|e| e.name.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn persistence_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("tpu-serve-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seed.json"), MachineSpec::v3().to_json()).unwrap();
        let store = SpecStore::load_dir(&dir).unwrap();
        assert_eq!(store.len(), 1);
        store.put("extra", &MachineSpec::v4()).unwrap();
        assert!(dir.join("extra.json").exists());
        // A fresh store sees the canonical persisted bytes.
        let reloaded = SpecStore::load_dir(&dir).unwrap();
        assert_eq!(
            reloaded.get("extra").unwrap().model.spec(),
            &MachineSpec::v4()
        );
        store.remove("seed").unwrap();
        assert!(!dir.join("seed.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
