//! Scenario-hash result cache: persisted per-cell report rows keyed by
//! a stable hash of everything that could change the row's bytes.
//!
//! A cache key is the SHA-256 of a canonical description of the work:
//! a code-version salt, the engine tag, the engine's configuration
//! (evaluator, wake policy, PV sizing, replication plan, search space —
//! whichever apply) and the cell's full parameter fingerprint, with
//! every `f64` contributing its exact bit pattern. Identical inputs
//! always map to the same key; perturbing any single axis value, seed,
//! policy or threshold changes the keys of exactly the affected cells,
//! so a dirty re-run recomputes only those.
//!
//! Each entry is one file under `root/<key[..2]>/<key>.entry`:
//!
//! ```text
//! corridor-result-cache v1\n
//! <sha256 of payload, hex>\n
//! <csv row bytes> 0x1f <json row bytes>
//! ```
//!
//! The payload carries the cell's row in *both* formats, so one
//! evaluation warms the CSV and JSON streams alike. Entries are written
//! to a temporary file and renamed into place (atomic on POSIX), and
//! verified against their embedded checksum on load — a corrupt or
//! truncated entry is treated as a miss and recomputed, never served.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use corridor_core::hash::sha256_hex;

use crate::stream::RowPair;
use crate::ScenarioCell;

/// Code-version salt baked into every key: bump the suffix whenever row
/// rendering or evaluation semantics change, so stale caches from older
/// builds can never be served.
const CACHE_SALT: &str = concat!("corridor-sim-", env!("CARGO_PKG_VERSION"), "-rows-v1");

const ENTRY_MAGIC: &str = "corridor-result-cache v1";

/// Separator between the CSV and JSON renderings in an entry payload
/// (ASCII unit separator — it can appear in neither rendering).
const PAYLOAD_SEP: u8 = 0x1f;

/// A directory of persisted result rows, shared by the streaming
/// engines.
///
/// # Examples
///
/// ```
/// use corridor_core::sink::{RowFormat, StringSink};
/// use corridor_sim::{ResultCache, ScenarioGrid, SweepEngine};
///
/// let dir = std::env::temp_dir().join("corridor-cache-doc");
/// let cache = ResultCache::open(&dir).unwrap();
/// let engine = SweepEngine::new().workers(1).pv_sizing(false);
/// let grid = ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0]);
///
/// let mut cold = StringSink::new();
/// engine.stream_with(&grid, RowFormat::Csv, &mut cold, Some(&cache)).unwrap();
///
/// let mut warm = StringSink::new();
/// let summary = engine.stream_with(&grid, RowFormat::Csv, &mut warm, Some(&cache)).unwrap();
/// assert_eq!(warm.as_str(), cold.as_str());
/// assert_eq!(summary.cache_hits, 2); // the warm run computed nothing
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    temp_seq: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the error of creating the root directory.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(ResultCache {
            root,
            temp_seq: AtomicU64::new(0),
        })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(&key[..2]).join(format!("{key}.entry"))
    }

    /// Loads the row pair stored under `key`, or `None` on a miss — a
    /// missing file, a foreign or truncated entry, or a payload whose
    /// checksum no longer matches (silent corruption must recompute,
    /// never propagate).
    pub(crate) fn load(&self, key: &str) -> Option<RowPair> {
        let bytes = fs::read(self.entry_path(key)).ok()?;
        let (magic, rest) = split_line(&bytes)?;
        if magic != ENTRY_MAGIC.as_bytes() {
            return None;
        }
        let (checksum, payload) = split_line(rest)?;
        let checksum = core::str::from_utf8(checksum).ok()?;
        if sha256_hex(payload) != checksum {
            return None;
        }
        let sep = payload.iter().position(|&b| b == PAYLOAD_SEP)?;
        Some(RowPair {
            csv: String::from_utf8(payload[..sep].to_vec()).ok()?,
            json: String::from_utf8(payload[sep + 1..].to_vec()).ok()?,
        })
    }

    /// Persists `rows` under `key`, best-effort: the cache is an
    /// optimization, so a full disk or permission error must not abort
    /// a sweep — the next run simply misses again.
    pub(crate) fn store(&self, key: &str, rows: &RowPair) {
        let _ = self.try_store(key, rows);
    }

    fn try_store(&self, key: &str, rows: &RowPair) -> io::Result<()> {
        let path = self.entry_path(key);
        let dir = path
            .parent()
            .ok_or_else(|| io::Error::other("cache entry path has no parent directory"))?;
        fs::create_dir_all(dir)?;
        let mut payload = Vec::with_capacity(rows.csv.len() + 1 + rows.json.len());
        payload.extend_from_slice(rows.csv.as_bytes());
        payload.push(PAYLOAD_SEP);
        payload.extend_from_slice(rows.json.as_bytes());
        let mut entry = Vec::with_capacity(ENTRY_MAGIC.len() + 1 + 64 + 1 + payload.len());
        entry.extend_from_slice(ENTRY_MAGIC.as_bytes());
        entry.push(b'\n');
        entry.extend_from_slice(sha256_hex(&payload).as_bytes());
        entry.push(b'\n');
        entry.extend_from_slice(&payload);
        // temp + rename: readers only ever see complete entries
        let temp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&temp, &entry)?;
        fs::rename(&temp, &path)
    }
}

fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let at = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..at], &bytes[at + 1..]))
}

/// Builds canonical key strings field by field and hashes them. The
/// canonical form is `label=value;` pairs; every `f64` is written as
/// its exact bit pattern, so keys never depend on decimal formatting.
pub(crate) struct KeyBuilder {
    raw: String,
}

impl KeyBuilder {
    /// Starts a key for one engine's work unit.
    pub(crate) fn new(engine: &str) -> Self {
        let mut raw = String::with_capacity(256);
        raw.push_str(CACHE_SALT);
        raw.push(';');
        raw.push_str("engine=");
        raw.push_str(engine);
        raw.push(';');
        KeyBuilder { raw }
    }

    pub(crate) fn text(&mut self, label: &str, value: &str) -> &mut Self {
        use core::fmt::Write as _;
        // length-prefix free-form text so adjacent fields cannot collide
        let _ = write!(self.raw, "{label}={}:{value};", value.len());
        self
    }

    pub(crate) fn int(&mut self, label: &str, value: u64) -> &mut Self {
        use core::fmt::Write as _;
        let _ = write!(self.raw, "{label}={value};");
        self
    }

    pub(crate) fn f64(&mut self, label: &str, value: f64) -> &mut Self {
        use core::fmt::Write as _;
        let _ = write!(self.raw, "{label}={:016x};", value.to_bits());
        self
    }

    /// Appends the cell's full fingerprint: grid position, every axis
    /// value, the power models and the climate. Locations are
    /// fingerprinted by name — the built-in climates have distinct
    /// names, and custom ones must too for caching to be sound.
    pub(crate) fn cell(&mut self, cell: &ScenarioCell) -> &mut Self {
        let params = cell.params();
        let lp = params.lp_node();
        let hp = params.hp_mast();
        self.int("cell", cell.index() as u64)
            .f64("tph", cell.trains_per_hour())
            .f64("window", cell.service_window_h())
            .f64("speed", cell.train_speed_kmh())
            .f64("length", cell.train_length_m())
            .f64("spacing", cell.lp_spacing_m())
            .f64("conv_isd", cell.conventional_isd_m())
            .text("profile", cell.profile_name())
            .f64("lp_pmax", lp.p_max().value())
            .f64("lp_dp", lp.delta_p())
            .f64("lp_sleep", lp.p_sleep().value())
            .f64("hp_pmax", hp.p_max().value())
            .f64("hp_dp", hp.delta_p())
            .f64("hp_sleep", hp.p_sleep().value())
            .text("climate", cell.location().name())
            .int("nodes", cell.nodes() as u64)
            .f64("isd", cell.isd().value())
    }

    /// Hashes the canonical string into the entry key.
    pub(crate) fn finish(&self) -> String {
        sha256_hex(self.raw.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_core::ScenarioParams;
    use corridor_solar::climate;
    use corridor_units::Meters;

    fn pair() -> RowPair {
        RowPair {
            csv: "1,2,3\n".to_owned(),
            json: "  {\"cell\": 1}".to_owned(),
        }
    }

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("corridor-cache-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = temp_cache("roundtrip");
        let key = sha256_hex(b"some-key");
        assert!(cache.load(&key).is_none());
        cache.store(&key, &pair());
        assert_eq!(cache.load(&key).unwrap(), pair());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_and_truncated_entries_miss() {
        let cache = temp_cache("corrupt");
        let key = sha256_hex(b"entry");
        cache.store(&key, &pair());
        let path = cache.entry_path(&key);

        // flip a payload byte → checksum mismatch
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&key).is_none());

        // truncate mid-checksum → structurally invalid
        fs::write(&path, &fs::read(&path).unwrap()[..30]).unwrap();
        assert!(cache.load(&key).is_none());

        // wrong magic → foreign file, never parsed further
        fs::write(&path, b"not-a-cache-entry\nwhatever\npayload").unwrap();
        assert!(cache.load(&key).is_none());

        // a fresh store heals the slot
        cache.store(&key, &pair());
        assert_eq!(cache.load(&key).unwrap(), pair());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn payload_may_contain_newlines() {
        // optimizer CSV chunks are multi-line; the entry format must
        // treat everything after the checksum line as payload
        let cache = temp_cache("multiline");
        let key = sha256_hex(b"multiline");
        let rows = RowPair {
            csv: "a,b\nc,d\ne,f\n".to_owned(),
            json: "  {\"x\": [1,\n2]}".to_owned(),
        };
        cache.store(&key, &rows);
        assert_eq!(cache.load(&key).unwrap(), rows);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn key_builder_separates_fields_and_bits() {
        let base = KeyBuilder::new("sweep").finish();
        assert_ne!(base, KeyBuilder::new("mc").finish());
        // adjacent text fields cannot collide thanks to length prefixes
        let mut a = KeyBuilder::new("sweep");
        a.text("p", "ab").text("q", "c");
        let mut b = KeyBuilder::new("sweep");
        b.text("p", "a").text("q", "bc");
        assert_ne!(a.finish(), b.finish());
        // f64 keys are bit-exact: 0.1 + 0.2 != 0.3
        let mut x = KeyBuilder::new("sweep");
        x.f64("v", 0.1 + 0.2);
        let mut y = KeyBuilder::new("sweep");
        y.f64("v", 0.3);
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn cell_fingerprint_tracks_every_axis() {
        let cell = |isd: f64| {
            ScenarioCell::new(
                0,
                ScenarioParams::paper_default(),
                climate::berlin(),
                "paper".to_owned(),
                10,
                Meters::new(isd),
            )
        };
        let key_of = |c: &ScenarioCell| {
            let mut k = KeyBuilder::new("sweep");
            k.cell(c);
            k.finish()
        };
        assert_eq!(key_of(&cell(2650.0)), key_of(&cell(2650.0)));
        assert_ne!(key_of(&cell(2650.0)), key_of(&cell(2600.0)));
    }
}
